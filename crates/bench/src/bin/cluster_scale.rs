//! Production-scale cluster study: per-step cost must stay flat as the
//! background pod population grows 100 → 100k (the maintained indexes make
//! steady-state work O(changed), not O(total)), and a campaign over a
//! 1k-node / 20k-pod cluster must beat the pre-index ticked path by a wide
//! wall-clock margin while producing a byte-identical transcript.
//!
//! Usage: `cluster_scale [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_cluster_scale.json` into the working directory and exits nonzero
//! when the per-step flatness bound or the campaign speedup floor is
//! violated.

use std::time::{Duration, Instant};

use acto::{run_campaign, CampaignConfig, Mode};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use simkube::{set_ticked_engine, ClusterConfig, NodeTopology, SimCluster, BACKGROUND_NAMESPACE};

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

fn big_cluster(background_pods: usize) -> ClusterConfig {
    // ~100 pods per node keeps every topology comfortably schedulable.
    let mut topology = NodeTopology::new((background_pods / 100).max(4));
    topology.background_pods = background_pods;
    ClusterConfig {
        topology: Some(topology),
        ..ClusterConfig::default()
    }
}

/// Steady-state per-step cost on a settled cluster of `background_pods`
/// pods, with a small constant churn (one crash-loop toggle every few
/// steps) so each step has O(1) real work to do. Returns the mean
/// per-step cost.
fn measure_step_cost(background_pods: usize, steps: u64) -> Duration {
    let mut cluster = SimCluster::new(big_cluster(background_pods));
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

fn main() {
    let quick = quick();
    let sizes: &[usize] = if quick { &SIZES_QUICK } else { &SIZES_FULL };
    let steps: u64 = 16_384;
    let speedup_floor = if quick {
        CAMPAIGN_SPEEDUP_QUICK
    } else {
        CAMPAIGN_SPEEDUP_FULL
    };
    let mut failures: Vec<String> = Vec::new();

    // Part 1: per-step cost across background populations.
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut step_entries: Vec<String> = Vec::new();
    let mut costs: Vec<(usize, Duration)> = Vec::new();
    for &size in sizes {
        let cost = measure_step_cost(size, steps);
        println!("step cost at {size} background pods: {cost:.2?}");
        rows.push(vec![
            size.to_string(),
            ((size / 100).max(4)).to_string(),
            format!("{cost:.2?}"),
        ]);
        step_entries.push(format!(
            "    {{\"background_pods\": {}, \"nodes\": {}, \"step_ns\": {}}}",
            size,
            (size / 100).max(4),
            cost.as_nanos()
        ));
        costs.push((size, cost));
    }
    let (min_size, min_cost) = costs
        .iter()
        .min_by_key(|(_, c)| *c)
        .copied()
        .expect("at least one size");
    let (max_size, max_cost) = costs
        .iter()
        .max_by_key(|(_, c)| *c)
        .copied()
        .expect("at least one size");
    let flatness = max_cost.as_secs_f64() / min_cost.as_secs_f64().max(1e-12);
    if flatness > STEP_FLATNESS_BOUND {
        failures.push(format!(
            "per-step cost not flat: {max_cost:.2?} at {max_size} pods is {flatness:.2}x \
             the {min_cost:.2?} at {min_size} pods (bound {STEP_FLATNESS_BOUND}x)"
        ));
    }
    println!(
        "{}",
        render_table(
            "steady-state step cost vs background population",
            &["background pods", "nodes", "per-step"],
            &rows,
        )
    );
    println!("flatness: {flatness:.2}x across {min_size} -> {max_size} pods (bound {STEP_FLATNESS_BOUND}x)");

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
    let start = Instant::now();
    let ticked = run_campaign(&config);
    let ticked_wall = start.elapsed();
    set_ticked_engine(false);
    let start = Instant::now();
    let event = run_campaign(&config);
    let event_wall = start.elapsed();

    if ticked.transcript() != event.transcript() {
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
    println!(
        "campaign at 1k nodes / 20k pods: ticked {ticked_wall:.2?} -> event {event_wall:.2?} \
         ({speedup:.2}x, floor {speedup_floor}x), {} trials, transcripts identical: {}",
        event.trials.len(),
        ticked.transcript() == event.transcript(),
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"cluster_scale\",\n  \"schema_version\": {},\n  \"nproc\": {},\n  \"git_rev\": \"{}\",\n  \"quick\": {},\n",
            "  \"step_flatness_bound\": {:.1},\n  \"step_flatness\": {:.4},\n",
            "  \"step_costs\": [\n{}\n  ],\n",
            "  \"campaign\": {{\"nodes\": 1000, \"background_pods\": 20000, ",
            "\"ticked_ms\": {}, \"event_ms\": {}, \"speedup\": {:.4}, ",
            "\"speedup_floor\": {:.1}, \"transcripts_identical\": {}}}\n}}\n"
        ),
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        STEP_FLATNESS_BOUND,
        flatness,
        step_entries.join(",\n"),
        ticked_wall.as_millis(),
        event_wall.as_millis(),
        speedup,
        speedup_floor,
        ticked.transcript() == event.transcript(),
    );
    let path = "BENCH_cluster_scale.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("cluster scale: per-step cost flat, campaign speedup above floor");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
