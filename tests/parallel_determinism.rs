//! Determinism of the work-stealing parallel runner (paper §5.5).
//!
//! Segmentation is fixed-size and segment start states are canonical
//! (restore the deploy-converged base, converge the jump declaration), so
//! the trials, alarms, and transcripts of a campaign must be
//! byte-identical for *any* worker count — stealing may only change who
//! runs a segment, never what the segment observes.

mod common;

use std::collections::BTreeSet;

use acto_repro::acto::compose::{
    run_composed_campaign, run_composed_work_stealing_with, ComposedParallelResult,
};
use acto_repro::acto::parallel::{run_work_stealing, run_work_stealing_with};
use acto_repro::acto::{run_campaign, CampaignConfig, Mode, Strategy, Trial};
use acto_repro::operators::BugToggles;
use acto_repro::simkube::{Fault, FaultPlan, PlatformBugs};
use proptest::prelude::*;

fn config(operator: &str, max_ops: usize) -> CampaignConfig {
    CampaignConfig {
        operators: vec![operator.to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(max_ops),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: false,
        topology: None,
    }
}

#[test]
fn transcripts_identical_across_worker_counts() {
    for operator in ["RabbitMQOp", "ZooKeeperOp"] {
        let config = config(operator, 20);
        let reference = run_work_stealing(&config, 1);
        assert!(!reference.trials.is_empty());
        assert!(reference.failed_segments.is_empty());
        for workers in [2, 4, 7] {
            let run = run_work_stealing(&config, workers);
            assert!(run.failed_segments.is_empty());
            assert_eq!(
                reference.transcript(),
                run.transcript(),
                "{operator}: {workers} workers diverged from sequential"
            );
        }
    }
}

/// The makespan is replayed from per-segment sim costs through the claim
/// rule, so which thread wins a claim race on this host cannot move it:
/// two 4-worker runs, each building its own prefixes, report the same
/// number.
#[test]
fn makespan_is_identical_across_repeats() {
    let config = config("ZooKeeperOp", 24);
    let runs: Vec<_> = (0..2)
        .map(|_| run_work_stealing_with(&config, 4, 2))
        .collect();
    for run in &runs {
        assert!(run.failed_segments.is_empty());
        assert_eq!((run.workers, run.segments), (4, 12));
        assert!(run.total_sim_seconds >= run.makespan_sim_seconds);
        assert!(run.makespan_sim_seconds > 0);
    }
    assert_eq!(runs[0].makespan_sim_seconds, runs[1].makespan_sim_seconds);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn transcripts_survive_arbitrary_segmentation(segment_ops in 2usize..12, workers in 1usize..7) {
        // Worker count must never matter; segment size is part of the
        // campaign's identity, so compare equal segment sizes only.
        let config = config("ZooKeeperOp", 14);
        // Each run builds every prefix itself, so `b` cannot replay `a`'s.
        let a = run_work_stealing_with(&config, 1, segment_ops);
        let b = run_work_stealing_with(&config, workers, segment_ops);
        prop_assert!(a.failed_segments.is_empty());
        prop_assert!(b.failed_segments.is_empty());
        prop_assert_eq!(a.transcript(), b.transcript());
    }
}

/// `max_ops` has one meaning in every runner: it caps the *planned* ops
/// before any of them executes. The sequential campaign and the one-worker
/// work-stealing campaign run the same planned ops, all inside the cap,
/// and the fault burst rides on top of the cap instead of counting against
/// it. A composed run cuts its interleaved plan the same way at one worker
/// and at two.
#[test]
fn max_ops_caps_planned_ops_in_every_runner() {
    let mut config = config("ZooKeeperOp", 8);
    let mut faults = FaultPlan::new();
    faults.push(2, Fault::WatchBlackout { duration: 5 });
    config.faults = faults;
    let planned = |trials: &[Trial]| -> BTreeSet<usize> {
        let planned = trials.iter().filter(|t| t.op.scenario != "fault-burst");
        planned.map(|t| t.op.index).collect()
    };
    let sequential = run_campaign(&config);
    let stolen = run_work_stealing(&config, 1);
    common::assert_not_quarantined("sequential", &sequential);
    assert!(stolen.failed_segments.is_empty());
    for trials in [&sequential.trials, &stolen.trials] {
        assert_eq!(trials[0].op.scenario, "fault-burst");
    }
    let ops = planned(&sequential.trials);
    assert_eq!(ops, planned(&stolen.trials));
    assert!(ops.iter().all(|&i| i < 8), "ops past the cap: {ops:?}");
    assert_eq!(sequential.trials.len(), ops.len() + 1, "the burst is extra");

    let mut composed = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
    composed.max_ops = Some(8);
    let composed_ops = |run: &ComposedParallelResult| -> BTreeSet<usize> {
        let planned = run
            .trials
            .iter()
            .filter(|t| t.trial.op.scenario != "composed-deploy");
        planned.map(|t| t.trial.op.index).collect()
    };
    let one = run_composed_campaign(&composed).expect("composed campaign runs");
    let two = run_composed_work_stealing_with(&composed, 2, 4).expect("composed campaign runs");
    assert_eq!((one.workers, one.segments, two.workers), (1, 1, 2));
    let ops = composed_ops(&one);
    assert!(ops.iter().all(|&i| i < 8), "ops past the cap: {ops:?}");
    assert_eq!(ops, composed_ops(&two));
}
