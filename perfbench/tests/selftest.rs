//! Self-tests of the benchmark. Run them optimized:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};

use crdspec::Value;
use perfbench::big_cluster::BigCluster;
use perfbench::campaign::Campaign;
use perfbench::fuzz::{Fuzz, EXECS};
use perfbench::heap::CountingAlloc;
use perfbench::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use perfbench::{run_timed, run_traced, TracedRun, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn scratch(name: &str) -> PathBuf {
    let dir = perfbench::out_dir().join(format!("selftest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    crdspec::json::from_str(&raw).expect("parse BENCHMARK.json")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defs(list: &[MetricDef]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

fn names(values: &[(&str, f64)]) -> Vec<String> {
    values.iter().map(|(n, _)| n.to_string()).collect()
}

/// A traced run's per-layer value `name`.
fn layer(run: &TracedRun, name: &str) -> f64 {
    metrics::per_layer(run)
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .expect(name)
}

/// The walk replayed every trial of the job to its recorded outcome.
fn walked_every_trial(run: &TracedRun) {
    assert!(run.job.trials > 0);
    assert_eq!(layer(run, "walk.trials"), run.job.trials as f64);
    assert_eq!(layer(run, "run.trials"), run.job.trials as f64);
}

#[test]
fn listed_metrics_and_workloads_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), defs(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), defs(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        workloads,
        [
            Campaign::default().name(),
            Fuzz::default().name(),
            BigCluster::default().name()
        ]
    );
}

/// One small operator: the timed run's emitted names, its checks, and a
/// walk that replays every trial of the timed run to its recorded outcome.
/// The walk is sequential, so it waits for convergence less often than the
/// 2-worker run by exactly the segment prefix states the run built: one per
/// segment that missed the snapshot depot.
#[test]
fn campaign_smoke_checks_emits_listed_names_and_walks_every_trial() {
    let w = Campaign {
        operators: vec!["ZooKeeperOp"],
    };
    let dir = scratch("campaign");
    let timed = run_timed(&w, &dir, 0.0, 1, 1);
    assert!(timed.failures().is_empty());
    assert_eq!(timed.setups.setup_s.len(), 1);
    let job = &timed.jobs[0];
    assert!(job.failures.is_empty(), "{:?}", job.failures);
    assert!(job.trials > 0);
    assert_eq!(job.bugs_detected, 6);
    let e2e = metrics::end_to_end(&timed);
    assert_eq!(
        names(&e2e),
        defs(END_TO_END)
            .into_iter()
            .map(|d| d.0)
            .collect::<Vec<_>>()
    );
    assert!(e2e.iter().all(|(_, v)| *v > 0.0), "{e2e:?}");

    let traced = run_traced(&w, &dir);
    walked_every_trial(&traced);
    assert_eq!(traced.job.trials, job.trials);
    let prefix_builds = layer(&traced, "exec.segments") - layer(&traced, "exec.depot_hits");
    assert_eq!(
        layer(&traced, "run.convergence_waits"),
        layer(&traced, "walk.convergence_waits") + prefix_builds
    );
    let self_sum: f64 = traced.tracer.self_times().values().sum();
    let uncovered = traced.walk_wall_s - traced.tracer.covered_s();
    assert!((self_sum + uncovered - traced.walk_wall_s).abs() < 1e-6);
    let layers = metrics::per_layer(&traced);
    assert_eq!(
        names(&layers),
        defs(PER_LAYER).into_iter().map(|d| d.0).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fuzz job's checks, and a walk that replays every execution with the
/// run's own convergence waits and coverage.
#[test]
fn fuzz_smoke_passes_its_checks_and_walks_every_trial() {
    let w = Fuzz::default();
    let dir = scratch("fuzz");
    let traced = run_traced(&w, &dir);
    assert!(traced.job.failures.is_empty(), "{:?}", traced.job.failures);
    assert_eq!(traced.job.ops, EXECS);
    assert!(traced.job.coverage_features > 0);
    walked_every_trial(&traced);
    assert_eq!(
        layer(&traced, "walk.convergence_waits"),
        layer(&traced, "run.convergence_waits")
    );
    assert_eq!(
        layer(&traced, "walk.coverage_features"),
        traced.job.coverage_features as f64
    );
    drop(traced);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The big-cluster job's checks on a small topology, and a walk that
/// matches the sequential run's trials, convergence waits and crash points.
#[test]
fn big_cluster_smoke_passes_its_checks_and_walks_every_trial() {
    let w = BigCluster {
        nodes: 20,
        background_pods: 200,
    };
    let dir = scratch("big-cluster");
    let traced = run_traced(&w, &dir);
    assert!(traced.job.failures.is_empty(), "{:?}", traced.job.failures);
    assert_eq!(traced.job.bugs_detected, 6);
    walked_every_trial(&traced);
    assert!(layer(&traced, "crash.points_swept") > 0.0);
    assert_eq!(
        layer(&traced, "walk.crash_points"),
        layer(&traced, "crash.points_swept")
    );
    assert_eq!(
        layer(&traced, "walk.convergence_waits"),
        layer(&traced, "run.convergence_waits")
    );
}
