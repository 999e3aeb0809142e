//! Determinism of the work-stealing parallel runner (paper §5.5).
//!
//! Segmentation is fixed-size and segment start states are canonical
//! (restore the deploy-converged base, converge the jump declaration), so
//! the trials, alarms, and transcripts of a campaign must be
//! byte-identical for *any* worker count — stealing may only change who
//! runs a segment, never what the segment observes.

use acto_repro::acto::parallel::{run_work_stealing, run_work_stealing_with, SnapshotDepot};
use acto_repro::acto::{CampaignConfig, Mode, Strategy};
use acto_repro::operators::BugToggles;
use acto_repro::simkube::PlatformBugs;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn transcripts_survive_arbitrary_segmentation(segment_ops in 2usize..12, workers in 1usize..7) {
        // Worker count must never matter; segment size is part of the
        // campaign's identity, so compare equal segment sizes only.
        let config = config("ZooKeeperOp", 14);
        let depot = SnapshotDepot::new();
        let a = run_work_stealing_with(&config, 1, segment_ops, &depot);
        let b = run_work_stealing_with(&config, workers, segment_ops, &depot);
        prop_assert!(a.failed_segments.is_empty());
        prop_assert!(b.failed_segments.is_empty());
        prop_assert_eq!(a.transcript(), b.transcript());
    }
}
