//! Micro-benchmarks of the substrate costs behind Table 8's generation
//! column: JSON codec, schema validation, quantity parsing, state-store
//! writes, IR analysis, campaign planning, oracle comparisons, a short
//! campaign end to end, and the CRD pattern matcher.
//!
//! Each measurement is the best-of-[`super::REPEATS`] wall clock of a
//! fixed iteration count, recorded as `ns_per_iter`; the quick budget only
//! lowers the counts. There is no gate: the study records.

use std::hint::black_box;

use acto::oracles::{differential_normal, mask_value, masked_snapshot};
use acto::{plan_campaign, run_campaign, Mode};
use crdspec::{json, validate, Value};
use operators::registry::operator_by_name;
use operators::{BugToggles, Instance};
use simkube::meta::ObjectMeta;
use simkube::objects::{ConfigMap, ObjectData};
use simkube::{ObjectStore, PlatformBugs, Quantity};

use super::{best_wall, int, journaled_campaign, round};
use crate::harness::Outcome;

/// How many times fewer iterations a quick run times.
const QUICK_DIVISOR: usize = 20;

/// The measurements taken so far.
struct Micro {
    /// [`QUICK_DIVISOR`] at the quick budget, 1 at the full one.
    divisor: usize,
    records: Vec<Value>,
}

impl Micro {
    /// Times `full_iters` runs of `body` (fewer at the quick budget) and
    /// records the best repeat per iteration.
    fn time<R>(&mut self, name: &str, full_iters: usize, mut body: impl FnMut() -> R) {
        let iters = (full_iters / self.divisor).max(1);
        let wall = best_wall(iters, || {
            black_box(body());
        });
        let ns_per_iter = wall.as_nanos() as f64 / iters as f64;
        self.records.push(Value::object([
            ("name", Value::from(name)),
            ("iters", int(iters)),
            ("ns_per_iter", round(ns_per_iter, 1)),
        ]));
    }
}

pub(super) fn run(quick: bool) -> Outcome {
    let mut m = Micro {
        divisor: if quick { QUICK_DIVISOR } else { 1 },
        records: Vec::new(),
    };

    let zookeeper = operator_by_name("ZooKeeperOp");
    let value = zookeeper.initial_cr();
    let doc = json::to_string_pretty(&value);
    m.time("json/parse-initial-cr", 20_000, || {
        json::from_str(black_box(&doc)).expect("parse")
    });
    m.time("json/serialize-initial-cr", 50_000, || {
        json::to_string(black_box(&value))
    });

    let tidb = operator_by_name("TiDBOp");
    let schema = tidb.schema();
    let cr = tidb.initial_cr();
    m.time("schema/validate-tidb-cr", 20_000, || {
        validate(black_box(&schema), black_box(&cr))
    });

    m.time("quantity/parse", 200_000, || {
        for s in ["250m", "1.5Gi", "512Mi", "2", "1e3"] {
            let q: Quantity = black_box(s).parse().expect("quantity");
            black_box(q);
        }
    });

    m.time("store/create-update-delete", 500, || {
        let mut store = ObjectStore::new();
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
        store.len()
    });

    let ir = zookeeper.ir();
    m.time("opdsl/control-dependencies", 10_000, || {
        opdsl::control_dependencies(black_box(&ir))
    });

    let tidb_ir = tidb.ir();
    let images = tidb.images();
    m.time("campaign/plan-tidb-whitebox", 200, || {
        plan_campaign(
            black_box(&schema),
            Some(black_box(&tidb_ir)),
            Mode::Whitebox,
            black_box(&cr),
            &images,
            "test-cluster",
        )
    });

    let instance = Instance::deploy(
        operator_by_name("ZooKeeperOp"),
        BugToggles::all_fixed(),
        PlatformBugs::none(),
    )
    .expect("deploy");
    let snap = masked_snapshot(&instance);
    m.time("oracle/differential-compare", 1_000_000, || {
        differential_normal(black_box(&snap), black_box(&snap))
    });
    let raw = instance.state_snapshot();
    m.time("oracle/mask-snapshot", 2_000, || {
        raw.values()
            .map(|v| mask_value(black_box(v)))
            .collect::<Vec<_>>()
    });

    m.time("campaign/short-zookeeper-campaign", 10, || {
        run_campaign(&journaled_campaign(5)).trials.len()
    });

    m.time("regex/dns-label", 20_000, || {
        crdspec::validate::pattern_matches(
            "^[a-z0-9]([-a-z0-9]*[a-z0-9])?$",
            black_box("my-cluster-pod-12"),
        )
    });

    Outcome {
        artifact: Value::object([("measurements", Value::Array(m.records))]),
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_micro_records_each_measurement_once() {
        let outcome = run(true);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let records = outcome
            .artifact
            .get("measurements")
            .and_then(Value::as_array)
            .expect("measurements");
        let names: Vec<&str> = records
            .iter()
            .map(|r| r.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(
            names,
            [
                "json/parse-initial-cr",
                "json/serialize-initial-cr",
                "schema/validate-tidb-cr",
                "quantity/parse",
                "store/create-update-delete",
                "opdsl/control-dependencies",
                "campaign/plan-tidb-whitebox",
                "oracle/differential-compare",
                "oracle/mask-snapshot",
                "campaign/short-zookeeper-campaign",
                "regex/dns-label",
            ]
        );
        for record in records {
            let iters = record.get("iters").and_then(Value::as_i64).expect("iters");
            assert!(iters >= 1, "{record:?}");
            let ns = record.get("ns_per_iter").and_then(Value::as_f64);
            assert!(ns.is_some_and(|ns| ns > 0.0), "{record:?}");
        }
    }
}
