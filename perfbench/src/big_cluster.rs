//! `big-cluster`: a ZooKeeperOp whitebox evaluation campaign with the
//! differential oracle and the crash-point sweep, on a 1,000-node /
//! 20,000-background-pod cluster, on the sequential runner.
//!
//! Set-up is simkube's bulk-write path (20k pod creates and their
//! scheduling); the job is its read-mostly path (O(changed) steps and O(1)
//! restores of a huge copy-on-write checkpoint, once per crash boundary).

use std::path::Path;
use std::time::Duration;

use acto::{run_campaign_with, CampaignConfig, CampaignResult, FreshRefCache, Mode, PlannedOp};
use operators::{bugs_of, InstanceCheckpoint};
use simkube::NodeTopology;

use crate::trace::Tracer;
use crate::walk::{self, WalkCounts};
use crate::{digest, timed, Job, Workload};

/// The `big-cluster` workload on a `nodes` / `background_pods` topology.
#[derive(Debug, Clone)]
pub struct BigCluster {
    /// Generated nodes.
    pub nodes: usize,
    /// Background pods spread over them.
    pub background_pods: usize,
}

impl Default for BigCluster {
    fn default() -> BigCluster {
        BigCluster {
            nodes: 1_000,
            background_pods: 20_000,
        }
    }
}

impl BigCluster {
    /// The campaign configuration the workload runs.
    pub fn config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::evaluation("ZooKeeperOp", Mode::Whitebox);
        cfg.crash_sweep = true;
        let mut topology = NodeTopology::new(self.nodes);
        topology.background_pods = self.background_pods;
        cfg.topology = Some(topology);
        cfg
    }
}

/// The plan and deploy-converged base the job restores from.
pub struct ClusterSetup {
    /// The campaign plan.
    pub plan: Vec<PlannedOp>,
    /// The deploy-converged base checkpoint.
    pub base: InstanceCheckpoint,
}

/// Checks a run: every ZooKeeperOp ground-truth bug, no false positive,
/// every property covered. Returns the covered-property count.
pub fn check(result: &CampaignResult, failures: &mut Vec<String>) -> usize {
    if !result.summary.false_positives.is_empty() {
        failures.push(format!(
            "{} false positives",
            result.summary.false_positives.len()
        ));
    }
    for bug in bugs_of(&result.operator) {
        if !result.summary.detected_bugs.contains_key(bug.id) {
            failures.push(format!("missed {}", bug.id));
        }
    }
    if result.properties_covered != result.properties_total {
        failures.push(format!(
            "property coverage {}/{}",
            result.properties_covered, result.properties_total
        ));
    }
    result.properties_covered
}

impl Workload for BigCluster {
    type Setup = ClusterSetup;
    type Output = CampaignResult;

    fn name(&self) -> &'static str {
        "big-cluster"
    }

    fn why(&self) -> &'static str {
        "simkube store: bulk writes in set-up, read-mostly steps and O(1) CoW restores per \
         crash boundary in the job; sequential, 1 worker"
    }

    fn setup_reps(&self) -> usize {
        1
    }

    fn setup(&self, _scratch: &Path) -> ClusterSetup {
        let cfg = self.config();
        let mut t = Tracer::new();
        let mut c = WalkCounts::default();
        ClusterSetup {
            plan: walk::plan(&mut t, &mut c, &cfg),
            base: walk::deploy(&mut t, &cfg),
        }
    }

    fn run(&self, setup: &ClusterSetup, _scratch: &Path, _rep: usize) -> (CampaignResult, Job) {
        let cfg = self.config();
        let forks_before = simkube::checkpoint_forks();
        let (result, mut job) = timed(|| {
            let cache = FreshRefCache::new();
            let result = run_campaign_with(
                &cfg,
                &setup.plan,
                Duration::ZERO,
                Some(&setup.base),
                None,
                Some(&cache),
            );
            (result, Job::default())
        });
        job.layers.insert(
            "checkpoint.forks",
            (simkube::checkpoint_forks() - forks_before) as f64,
        );
        job.trials = result.trials.len();
        job.ops = job.trials;
        job.coverage_features = check(&result, &mut job.failures);
        job.bugs_detected = result.summary.detected_bugs.len();
        job.bugs_by_operator = vec![(result.operator.clone(), job.bugs_detected)];
        job.digest = digest([result.transcript().as_str()]);
        for (name, v) in [
            ("refcache.hits", result.ref_cache_hits as f64),
            ("refcache.misses", result.ref_cache_misses as f64),
            ("crash.points_swept", result.crash_points_swept as f64),
            ("run.convergence_waits", result.convergence_waits as f64),
            ("run.sim_s", result.sim_seconds as f64),
            ("exec.segments", 1.0),
            ("exec.busy_s", job.wall_s),
            ("exec.capacity_s", job.wall_s),
        ] {
            job.layers.insert(name, v);
        }
        (result, job)
    }

    /// The walk plans and deploys its own base: the same deploy-converged
    /// state the timed job restored from the set-up.
    fn walk(&self, _setup: &ClusterSetup, out: &CampaignResult, t: &mut Tracer) -> WalkCounts {
        let cfg = self.config();
        let mut c = WalkCounts::default();
        walk::plan(t, &mut c, &cfg);
        let base = walk::deploy(t, &cfg);
        walk::campaign_trials(t, &mut c, &cfg, &base, &out.trials);
        c
    }
}
