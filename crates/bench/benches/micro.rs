//! Criterion micro-benchmarks for the substrate costs behind Table 8's
//! generation column: schema validation, state-store operations, IR
//! analysis, campaign planning, and oracle comparisons.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use acto::Mode;
use crdspec::validate;
use operators::registry::operator_by_name;
use simkube::meta::ObjectMeta;
use simkube::objects::{ConfigMap, ObjectData};

fn bench_json(c: &mut Criterion) {
    let op = operator_by_name("ZooKeeperOp");
    let doc = crdspec::json::to_string_pretty(&op.initial_cr());
    c.bench_function("json/parse-initial-cr", |b| {
        b.iter(|| crdspec::json::from_str(black_box(&doc)).expect("parse"))
    });
    let value = op.initial_cr();
    c.bench_function("json/serialize-initial-cr", |b| {
        b.iter(|| crdspec::json::to_string(black_box(&value)))
    });
}

fn bench_validation(c: &mut Criterion) {
    let op = operator_by_name("TiDBOp");
    let schema = op.schema();
    let cr = op.initial_cr();
    c.bench_function("schema/validate-tidb-cr", |b| {
        b.iter(|| validate(black_box(&schema), black_box(&cr)))
    });
}

fn bench_quantity(c: &mut Criterion) {
    c.bench_function("quantity/parse", |b| {
        b.iter(|| {
            for s in ["250m", "1.5Gi", "512Mi", "2", "1e3"] {
                let q: simkube::Quantity = black_box(s).parse().expect("quantity");
                black_box(q);
            }
        })
    });
}

fn bench_store(c: &mut Criterion) {
    c.bench_function("store/create-update-delete", |b| {
        b.iter(|| {
            let mut store = simkube::ObjectStore::new();
            for i in 0..50 {
                let key = store
                    .create(
                        ObjectMeta::named("ns", &format!("cm-{i}")),
                        ObjectData::ConfigMap(ConfigMap::default()),
                        i,
                    )
                    .expect("create");
                store
                    .update_with(&key, i, |o| {
                        if let ObjectData::ConfigMap(cm) = &mut o.data {
                            cm.data.insert("k".to_string(), i.to_string());
                        }
                    })
                    .expect("update");
            }
            black_box(store.len())
        })
    });
}

fn bench_analysis(c: &mut Criterion) {
    let ir = operator_by_name("ZooKeeperOp").ir();
    c.bench_function("opdsl/control-dependencies", |b| {
        b.iter(|| opdsl::control_dependencies(black_box(&ir)))
    });
    let spec = operator_by_name("ZooKeeperOp").initial_cr();
    c.bench_function("opdsl/interpret", |b| {
        b.iter(|| opdsl::run(black_box(&ir), black_box(&spec)).expect("run"))
    });
}

fn bench_planning(c: &mut Criterion) {
    let op = operator_by_name("TiDBOp");
    let schema = op.schema();
    let ir = op.ir();
    let initial = op.initial_cr();
    let images = op.images();
    c.bench_function("campaign/plan-tidb-whitebox", |b| {
        b.iter(|| {
            acto::plan_campaign(
                black_box(&schema),
                Some(black_box(&ir)),
                Mode::Whitebox,
                black_box(&initial),
                &images,
                "test-cluster",
            )
        })
    });
}

fn bench_oracles(c: &mut Criterion) {
    let instance = operators::Instance::deploy(
        operator_by_name("ZooKeeperOp"),
        operators::bugs::BugToggles::all_fixed(),
        simkube::PlatformBugs::none(),
    )
    .expect("deploy");
    let snap = acto::oracles::masked_snapshot(&instance);
    c.bench_function("oracle/differential-compare", |b| {
        b.iter(|| acto::oracles::differential_normal(black_box(&snap), black_box(&snap)))
    });
    let raw = instance.state_snapshot();
    c.bench_function("oracle/mask-snapshot", |b| {
        b.iter(|| {
            raw.values()
                .map(|v| acto::oracles::mask_value(black_box(v)))
                .collect::<Vec<_>>()
        })
    });
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("short-zookeeper-campaign", |b| {
        b.iter(|| {
            let config = acto::CampaignConfig {
                operators: vec!["ZooKeeperOp".to_string()],
                mode: Mode::Whitebox,
                bugs: operators::bugs::BugToggles::all_injected(),
                platform: simkube::PlatformBugs::none(),
                max_ops: Some(5),
                differential: false,
                strategy: acto::Strategy::Full,
                custom_oracles: Vec::new(),
                faults: Default::default(),
                crash_sweep: false,
                topology: None,
            };
            black_box(acto::run_campaign(&config).trials.len())
        })
    });
    group.finish();
}

fn bench_regex(c: &mut Criterion) {
    c.bench_function("regex/dns-label", |b| {
        b.iter(|| {
            crdspec::validate::pattern_matches(
                "^[a-z0-9]([-a-z0-9]*[a-z0-9])?$",
                black_box("my-cluster-pod-12"),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_json,
    bench_validation,
    bench_quantity,
    bench_store,
    bench_analysis,
    bench_planning,
    bench_oracles,
    bench_campaign,
    bench_regex
);
criterion_main!(benches);
