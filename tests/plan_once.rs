//! The shared-plan contract of the parallel runner.
//!
//! Planning a campaign is deterministic but costly; the old partitioned
//! runner re-planned once per worker plus once per jump computation. The
//! work-stealing runner must plan exactly once per run regardless of
//! worker count. This lives in its own integration-test binary so the
//! process-wide [`PLAN_COMPUTATIONS`] counter is not perturbed by
//! unrelated tests running in parallel.

use std::sync::atomic::Ordering;

use acto_repro::acto::parallel::run_work_stealing;
use acto_repro::acto::{CampaignConfig, Mode, Strategy, PLAN_COMPUTATIONS};
use acto_repro::operators::BugToggles;
use acto_repro::simkube::PlatformBugs;

#[test]
fn multi_worker_run_plans_exactly_once() {
    let config = CampaignConfig {
        operators: vec!["ZooKeeperOp".to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(16),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: false,
        topology: None,
    };
    let before = PLAN_COMPUTATIONS.load(Ordering::SeqCst);
    let result = run_work_stealing(&config, 4);
    let after = PLAN_COMPUTATIONS.load(Ordering::SeqCst);
    assert!(!result.trials.is_empty());
    assert!(result.segments >= 2, "need multiple segments to steal");
    assert_eq!(
        after - before,
        1,
        "a {}-worker run over {} segments must plan once, not per worker",
        result.workers,
        result.segments
    );
}
