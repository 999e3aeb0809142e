//! `campaign`: the paper's headline job. A whitebox evaluation campaign
//! (all injected bugs, buggy platform, differential oracle, full strategy)
//! for each of the eleven operators in turn, each on the work-stealing
//! runner at two workers.

use std::collections::BTreeSet;
use std::path::Path;

use acto::{run_work_stealing, CampaignConfig, Mode, ParallelResult};
use crdspec::Schema;
use operators::registry::all_operators;
use operators::{bugs_of, operator_by_name};

use crate::trace::Tracer;
use crate::walk::{self, WalkCounts};
use crate::{digest, timed, workers, Job, Workload};

/// Bugs the work-stealing runner misses today that the sequential runner
/// finds: a known gap of the runner, recorded so a fix shows as a gain.
pub const RUNNER_GAP: &[&str] = &["MG-OFC-3", "MG-OFC-5", "MG-OFC-6"];

/// The `campaign` workload over `operators` (all eleven by default).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Registry names, run one after another.
    pub operators: Vec<&'static str>,
}

impl Default for Campaign {
    fn default() -> Campaign {
        Campaign {
            operators: all_operators().iter().map(|o| o.name).collect(),
        }
    }
}

/// The evaluation configuration the workload runs.
pub fn config(operator: &str) -> CampaignConfig {
    CampaignConfig::evaluation(operator, Mode::Whitebox)
}

/// Properties of `schema` covered by the trials' properties, where
/// covering a container covers its subtree.
pub fn covered_properties(schema: &Schema, covered: &BTreeSet<crdspec::Path>) -> usize {
    schema
        .property_paths()
        .iter()
        .filter(|p| covered.iter().any(|c| p.starts_with(c) || c.starts_with(p)))
        .count()
}

/// Checks one operator's run: no false positive, every property covered,
/// and every ground-truth bug found except the known runner gap.
/// Returns the covered-property count.
pub fn check_operator(result: &ParallelResult, failures: &mut Vec<String>) -> usize {
    let name = &result.operator;
    let schema = operator_by_name(name).schema();
    let touched: BTreeSet<crdspec::Path> = result
        .trials
        .iter()
        .map(|t| t.op.property.clone())
        .collect();
    let covered = covered_properties(&schema, &touched);
    if covered != schema.property_count() {
        failures.push(format!(
            "{name}: property coverage {covered}/{}",
            schema.property_count()
        ));
    }
    if !result.summary.false_positives.is_empty() {
        failures.push(format!(
            "{name}: {} false positives",
            result.summary.false_positives.len()
        ));
    }
    for bug in bugs_of(name) {
        if !RUNNER_GAP.contains(&bug.id) && !result.summary.detected_bugs.contains_key(bug.id) {
            failures.push(format!("{name}: missed {}", bug.id));
        }
    }
    covered
}

/// Trials in quarantined segments of `result`.
pub fn quarantined_ops(result: &ParallelResult) -> usize {
    result
        .failed_segments
        .iter()
        .filter(|f| f.quarantined)
        .map(|f| f.take)
        .sum()
}

/// Adds `result`'s scheduler and cache counters to `job.layers`.
pub fn add_exec_layers(job: &mut Job, result: &ParallelResult) {
    let stats = &result.worker_stats;
    let mut add = |name: &'static str, v: f64| *job.layers.entry(name).or_insert(0.0) += v;
    add(
        "exec.segments",
        stats.iter().map(|s| s.segments_executed).sum::<usize>() as f64,
    );
    add(
        "exec.steals",
        stats.iter().map(|s| s.steals).sum::<usize>() as f64,
    );
    add(
        "exec.depot_hits",
        stats.iter().map(|s| s.depot_hits).sum::<usize>() as f64,
    );
    add(
        "exec.busy_s",
        stats.iter().map(|s| s.wall.as_secs_f64()).sum(),
    );
    add(
        "exec.capacity_s",
        result.workers as f64 * result.wall.as_secs_f64(),
    );
    let walls = stats.iter().map(|s| s.wall.as_secs_f64());
    let tail = walls.clone().fold(0.0, f64::max) - walls.fold(f64::INFINITY, f64::min);
    add("exec.tail_s", if tail.is_finite() { tail } else { 0.0 });
    add(
        "refcache.hits",
        stats.iter().map(|s| s.ref_cache_hits).sum::<usize>() as f64,
    );
    add(
        "refcache.misses",
        stats.iter().map(|s| s.ref_cache_misses).sum::<usize>() as f64,
    );
    add(
        "crash.points_swept",
        stats.iter().map(|s| s.crash_points_swept).sum::<u64>() as f64,
    );
    add(
        "run.convergence_waits",
        stats.iter().map(|s| s.convergence_waits).sum::<usize>() as f64,
    );
    add("run.sim_s", result.total_sim_seconds as f64);
}

impl Workload for Campaign {
    type Setup = ();
    type Output = Vec<ParallelResult>;

    fn name(&self) -> &'static str {
        "campaign"
    }

    fn why(&self) -> &'static str {
        "converge, oracles, differential-reference cache and 2-worker scheduling; \
         no coverage merge, mutator, journal or crash sweep; the runner plans and deploys \
         each operator inside the job"
    }

    fn setup_reps(&self) -> usize {
        5
    }

    /// Plans, deploys and checkpoints every operator, as the runner does
    /// inside each job; the job does not reuse them.
    fn setup(&self, _scratch: &Path) {
        let mut t = Tracer::new();
        let mut c = WalkCounts::default();
        for name in &self.operators {
            let cfg = config(name);
            walk::plan(&mut t, &mut c, &cfg);
            walk::deploy(&mut t, &cfg);
        }
    }

    fn run(&self, _setup: &(), _scratch: &Path, _rep: usize) -> (Vec<ParallelResult>, Job) {
        let forks_before = simkube::checkpoint_forks();
        let (results, mut job) = timed(|| {
            let results: Vec<ParallelResult> = self
                .operators
                .iter()
                .map(|name| run_work_stealing(&config(name), workers()))
                .collect();
            (results, Job::default())
        });
        job.layers.insert(
            "checkpoint.forks",
            (simkube::checkpoint_forks() - forks_before) as f64,
        );
        let mut transcripts = Vec::new();
        for result in &results {
            job.trials += result.trials.len();
            job.ops_failed += quarantined_ops(result);
            job.coverage_features += check_operator(result, &mut job.failures);
            let bugs = result.summary.detected_bugs.len();
            job.bugs_detected += bugs;
            job.bugs_by_operator.push((result.operator.clone(), bugs));
            transcripts.push(result.transcript());
            add_exec_layers(&mut job, result);
        }
        job.ops = job.trials;
        job.digest = digest(transcripts.iter().map(String::as_str));
        (results, job)
    }

    fn walk(&self, _setup: &(), out: &Vec<ParallelResult>, t: &mut Tracer) -> WalkCounts {
        let mut c = WalkCounts::default();
        for result in out {
            let cfg = config(&result.operator);
            walk::plan(t, &mut c, &cfg);
            let base = walk::deploy(t, &cfg);
            walk::campaign_trials(t, &mut c, &cfg, &base, &result.trials);
        }
        c
    }
}
