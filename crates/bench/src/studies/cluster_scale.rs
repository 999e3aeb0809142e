//! Production-scale cluster study: per-step cost must stay flat as the
//! background pod population grows 100 → 100k (the maintained indexes make
//! steady-state work O(changed), not O(total)), and a campaign over a
//! 1k-node / 20k-pod cluster must beat the pre-index ticked path by a wide
//! wall-clock margin while producing a byte-identical transcript.
//!
//! Fails when the per-step flatness bound or the campaign speedup floor
//! is violated, or on big-cluster transcript drift.

use std::time::{Duration, Instant};

use acto::{run_campaign, CampaignConfig, Mode};
use crdspec::Value;
use simkube::{set_ticked_engine, ClusterConfig, NodeTopology, SimCluster, BACKGROUND_NAMESPACE};

use super::{int, ms, round, timed};
use crate::harness::Outcome;

/// Largest-vs-smallest per-step cost ratio allowed across the population
/// sweep ("flat within 2x").
const STEP_FLATNESS_BOUND: f64 = 2.0;
/// Campaign speedup floors: event engine vs the ticked (pre-index) path on
/// the big cluster.
const CAMPAIGN_SPEEDUP_FULL: f64 = 10.0;
const CAMPAIGN_SPEEDUP_QUICK: f64 = 5.0;

/// Background-pod populations for the step-cost sweep.
const SIZES_FULL: [usize; 4] = [100, 1_000, 10_000, 100_000];
const SIZES_QUICK: [usize; 3] = [100, 1_000, 10_000];
/// Steps per measured window.
const STEPS: u64 = 16_384;

/// Nodes for a population: ~100 pods per node keeps every topology
/// comfortably schedulable.
fn nodes_for(background_pods: usize) -> usize {
    (background_pods / 100).max(4)
}

/// Steady-state per-step cost on a settled cluster of `background_pods`
/// pods, with a small constant churn (one crash-loop toggle every few
/// steps) so each step has O(1) real work to do. Returns the mean
/// per-step cost.
fn measure_step_cost(background_pods: usize, steps: u64) -> Duration {
    let mut topology = NodeTopology::new(nodes_for(background_pods));
    topology.background_pods = background_pods;
    let mut cluster = SimCluster::new(ClusterConfig {
        topology: Some(topology),
        ..ClusterConfig::default()
    });
    let settled = cluster.run_until_converged(5, 120);
    assert!(
        settled,
        "{background_pods}-pod cluster failed to settle before measurement"
    );
    // Warm-up: run the exact churn loop once so one-time costs (index
    // builds, first crash transitions) land outside the measured window.
    churn_steps(&mut cluster, steps.min(32));
    // Best of five windows: the steady-state cost is the floor; scheduler
    // preemption and allocator noise only ever push a window up.
    (0..5)
        .map(|_| {
            let start = Instant::now();
            churn_steps(&mut cluster, steps);
            start.elapsed() / u32::try_from(steps).expect("step count fits u32")
        })
        .min()
        .expect("five windows")
}

fn churn_steps(cluster: &mut SimCluster, steps: u64) {
    for i in 0..steps {
        match i % 8 {
            0 => cluster.set_crashing(BACKGROUND_NAMESPACE, "bg-000000", "CrashLoopBackOff"),
            4 => cluster.clear_crash(BACKGROUND_NAMESPACE, "bg-000000"),
            _ => {}
        }
        cluster.step();
    }
}

pub(super) fn run(quick: bool) -> Outcome {
    let sizes: &[usize] = if quick { &SIZES_QUICK } else { &SIZES_FULL };
    let speedup_floor = if quick {
        CAMPAIGN_SPEEDUP_QUICK
    } else {
        CAMPAIGN_SPEEDUP_FULL
    };
    let mut failures = Vec::new();

    // Part 1: per-step cost across background populations.
    let costs: Vec<(usize, Duration)> = sizes
        .iter()
        .map(|&size| (size, measure_step_cost(size, STEPS)))
        .collect();
    let (min_size, min_cost) = *costs.iter().min_by_key(|(_, c)| *c).expect("a size");
    let (max_size, max_cost) = *costs.iter().max_by_key(|(_, c)| *c).expect("a size");
    let flatness = max_cost.as_secs_f64() / min_cost.as_secs_f64().max(1e-12);
    if flatness > STEP_FLATNESS_BOUND {
        failures.push(format!(
            "per-step cost not flat: {max_cost:.2?} at {max_size} pods is {flatness:.2}x \
             the {min_cost:.2?} at {min_size} pods (bound {STEP_FLATNESS_BOUND}x)"
        ));
    }

    // Part 2: campaign wall-clock on a 1k-node / 20k-pod cluster, event
    // engine vs the pre-index ticked path, with byte-identical transcripts.
    let mut config = CampaignConfig::evaluation("ZooKeeperOp", Mode::Whitebox);
    // Event-engine wall-clock is flat in the op count (the deploy dominates
    // and resets restore the base checkpoint), while the ticked path pays
    // per-op; quick mode keeps the op budget small for CI, full mode runs
    // enough ops for the steady-state ratio to show.
    config.max_ops = Some(if quick { 2 } else { 32 });
    config.differential = false;
    let mut topology = NodeTopology::new(1_000);
    topology.background_pods = 20_000;
    config.topology = Some(topology);

    set_ticked_engine(true);
    let (ticked, ticked_wall) = timed(|| run_campaign(&config));
    set_ticked_engine(false);
    let (event, event_wall) = timed(|| run_campaign(&config));

    let identical = ticked.transcript() == event.transcript();
    if !identical {
        failures.push(
            "transcript drift between ticked and event engines on the big cluster".to_string(),
        );
    }
    let speedup = ticked_wall.as_secs_f64() / event_wall.as_secs_f64().max(1e-9);
    if speedup < speedup_floor {
        failures.push(format!(
            "campaign speedup {speedup:.2}x below the {speedup_floor}x floor \
             (ticked {ticked_wall:.2?}, event {event_wall:.2?})"
        ));
    }

    let step_costs = costs.iter().map(|&(size, cost)| {
        Value::object([
            ("background_pods", Value::from(size)),
            ("nodes", nodes_for(size).into()),
            ("step_ns", int(cost.as_nanos())),
        ])
    });
    Outcome {
        artifact: Value::object([
            ("step_flatness_bound", Value::from(STEP_FLATNESS_BOUND)),
            ("step_flatness", round(flatness, 4)),
            ("step_costs", Value::array(step_costs)),
            (
                "campaign",
                Value::object([
                    ("nodes", Value::from(1000)),
                    ("background_pods", 20000.into()),
                    ("trials", event.trials.len().into()),
                    ("ticked_ms", ms(ticked_wall)),
                    ("event_ms", ms(event_wall)),
                    ("speedup", round(speedup, 4)),
                    ("speedup_floor", speedup_floor.into()),
                    ("transcripts_identical", identical.into()),
                ]),
            ),
        ]),
        failures,
    }
}
