//! Metric names, units and how each is computed from a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{TimedRun, TracedRun};

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("trials_per_s", "1/s", "higher"),
    m("cpu_ms_per_trial", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_heap_mb", "MB", "lower"),
    m("bugs_detected", "count", "higher"),
    m("coverage_features", "count", "higher"),
];

/// Per-layer metrics, printed by a traced run. Times ending in `.s` are
/// the walk's self times; counts come from the walk or the timed job as
/// their names say (`walk.*` beside `run.*`).
pub const PER_LAYER: &[MetricDef] = &[
    m("plan.calls", "count", "lower"),
    m("plan.ops", "count", "higher"),
    m("plan.s", "s", "lower"),
    m("deploy.calls", "count", "lower"),
    m("deploy.s", "s", "lower"),
    m("converge.calls", "count", "lower"),
    m("converge.s", "s", "lower"),
    m("converge.p50_us", "us", "lower"),
    m("converge.p99_us", "us", "lower"),
    m("converge.sim_s", "sim_s", "lower"),
    m("checkpoint.forks", "count", "lower"),
    m("checkpoint.restore.s", "s", "lower"),
    m("oracles.calls", "count", "lower"),
    m("oracles.snapshot.s", "s", "lower"),
    m("oracles.check.s", "s", "lower"),
    m("refcache.hits", "count", "higher"),
    m("refcache.misses", "count", "lower"),
    m("refcache.hit_ratio", "ratio", "higher"),
    m("crash.points_swept", "count", "higher"),
    m("exec.segments", "count", "higher"),
    m("exec.steals", "count", "lower"),
    m("exec.depot_hits", "count", "higher"),
    m("exec.busy_ratio", "ratio", "higher"),
    m("exec.tail_s", "s", "lower"),
    m("fuzz.execs", "count", "higher"),
    m("fuzz.rounds", "count", "higher"),
    m("fuzz.trials_per_exec", "ratio", "higher"),
    m("fuzz.corpus", "count", "higher"),
    m("fuzz.coverage_merge.s", "s", "lower"),
    m("persist.appends", "count", "lower"),
    m("persist.atomic_writes", "count", "lower"),
    m("persist.retries", "count", "lower"),
    m("persist.journal_bytes", "bytes", "lower"),
    m("persist.create.s", "s", "lower"),
    m("host.steal_s", "s", "lower"),
    m("host.runqueue_wait_s", "s", "lower"),
    m("host.nproc", "count", "higher"),
    m("walk.wall_s", "s", "lower"),
    m("walk.untraced_wall_s", "s", "lower"),
    m("walk.uncovered_s", "s", "lower"),
    m("walk.trials", "count", "higher"),
    m("run.trials", "count", "higher"),
    m("run.convergence_waits", "count", "lower"),
    m("walk.convergence_waits", "count", "lower"),
    m("run.sim_s", "sim_s", "lower"),
    m("walk.forks", "count", "lower"),
    m("walk.crash_points", "count", "higher"),
    m("walk.coverage_features", "count", "higher"),
];

/// Walk span names and the self-time metric each one reports.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("plan", "plan.s"),
    ("deploy", "deploy.s"),
    ("converge", "converge.s"),
    ("checkpoint", "checkpoint.restore.s"),
    ("oracles.snapshot", "oracles.snapshot.s"),
    ("oracles.check", "oracles.check.s"),
    ("fuzz.coverage_merge", "fuzz.coverage_merge.s"),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// End-to-end values of a timed run: throughput and CPU cost are medians
/// over the run's jobs.
pub fn end_to_end(run: &TimedRun) -> Vec<(&'static str, f64)> {
    let per_job = |f: &dyn Fn(&crate::Job) -> f64| -> Vec<f64> { run.jobs.iter().map(f).collect() };
    let first = |f: &dyn Fn(&crate::Job) -> usize| run.jobs.first().map_or(0.0, |j| f(j) as f64);
    vec![
        (
            "trials_per_s",
            median(&per_job(&|j| j.trials as f64 / j.wall_s)),
        ),
        (
            "cpu_ms_per_trial",
            median(&per_job(&|j| 1e3 * j.host.cpu_s / j.trials.max(1) as f64)),
        ),
        ("setup_s", run.setups.setup_s()),
        ("peak_heap_mb", run.peak_heap_mb),
        ("bugs_detected", first(&|j| j.bugs_detected)),
        ("coverage_features", first(&|j| j.coverage_features)),
    ]
}

/// Per-layer values of a traced run.
pub fn per_layer(run: &TracedRun) -> Vec<(&'static str, f64)> {
    let job = &run.job;
    let layer = |name: &str| job.layers.get(name).copied().unwrap_or(0.0);
    let self_times = run.tracer.self_times();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(span, metric) in LAYER_SPANS {
        out.insert(metric, self_times.get(span).copied().unwrap_or(0.0));
    }
    let converge_us = run.tracer.durations_us("converge");
    let (hits, misses) = (layer("refcache.hits"), layer("refcache.misses"));
    let execs = layer("fuzz.execs");
    let capacity = layer("exec.capacity_s");
    let c = &run.counts;
    for (name, v) in [
        ("plan.calls", run.tracer.count("plan") as f64),
        ("plan.ops", c.plan_ops as f64),
        ("deploy.calls", run.tracer.count("deploy") as f64),
        ("converge.calls", converge_us.len() as f64),
        ("converge.p50_us", percentile(&converge_us, 0.5)),
        ("converge.p99_us", percentile(&converge_us, 0.99)),
        ("converge.sim_s", c.sim_s as f64),
        ("checkpoint.forks", layer("checkpoint.forks")),
        ("oracles.calls", c.oracle_calls as f64),
        ("refcache.hits", hits),
        ("refcache.misses", misses),
        (
            "refcache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        ("crash.points_swept", layer("crash.points_swept")),
        ("exec.segments", layer("exec.segments")),
        ("exec.steals", layer("exec.steals")),
        ("exec.depot_hits", layer("exec.depot_hits")),
        (
            "exec.busy_ratio",
            if capacity > 0.0 {
                layer("exec.busy_s") / capacity
            } else {
                0.0
            },
        ),
        ("exec.tail_s", layer("exec.tail_s")),
        ("fuzz.execs", execs),
        ("fuzz.rounds", layer("fuzz.rounds")),
        (
            "fuzz.trials_per_exec",
            if execs > 0.0 {
                job.trials as f64 / execs
            } else {
                0.0
            },
        ),
        ("fuzz.corpus", layer("fuzz.corpus")),
        ("persist.appends", layer("persist.appends")),
        ("persist.atomic_writes", layer("persist.atomic_writes")),
        ("persist.retries", layer("persist.retries")),
        ("persist.journal_bytes", layer("persist.journal_bytes")),
        (
            "persist.create.s",
            run.setup_layers
                .iter()
                .find(|(n, _)| *n == "persist.create.s")
                .map_or(0.0, |(_, v)| *v),
        ),
        ("host.steal_s", job.host.steal_s),
        ("host.runqueue_wait_s", job.host.runqueue_wait_s),
        ("host.nproc", crate::host::nproc() as f64),
        ("walk.wall_s", run.walk_wall_s),
        ("walk.untraced_wall_s", job.wall_s),
        ("walk.uncovered_s", run.walk_wall_s - run.tracer.covered_s()),
        ("walk.trials", c.trials as f64),
        ("run.trials", job.trials as f64),
        ("run.convergence_waits", layer("run.convergence_waits")),
        (
            "walk.convergence_waits",
            (c.converge_calls + c.reused_waits) as f64,
        ),
        ("run.sim_s", layer("run.sim_s")),
        ("walk.forks", c.forks as f64),
        ("walk.crash_points", c.crash_points as f64),
        ("walk.coverage_features", c.coverage_features as f64),
    ] {
        out.insert(name, v);
    }
    PER_LAYER.iter().map(|d| (d.name, out[d.name])).collect()
}

/// The unit of a listed metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(*value),
            unit(name)
        );
    }
    out.push_str("}}");
    out
}

/// A finite JSON number with all its digits (non-finite values print 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
