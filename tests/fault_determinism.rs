//! Determinism properties of the fault-injection subsystem.
//!
//! Every trial must replay bit-for-bit from `(seed, plan)`: identical
//! seeds yield identical fault schedules, identical schedules yield
//! byte-identical campaign transcripts and oracle verdicts, and differing
//! seeds diverge.

mod common;

use acto_repro::acto::parallel::run_work_stealing_with;
use acto_repro::acto::{run_campaign, CampaignConfig, Mode, Strategy};
use acto_repro::operators::BugToggles;
use acto_repro::simkube::{FaultPlan, FaultProfile, PlatformBugs};
use proptest::prelude::*;

fn faulted_config(plan: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        operators: vec!["ZooKeeperOp".to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(2),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: plan,
        crash_sweep: false,
        topology: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn identical_seeds_yield_identical_fault_plans(seed in 0u64..1_000_000_000) {
        let profile = FaultProfile::default();
        prop_assert_eq!(
            FaultPlan::generate(seed, &profile),
            FaultPlan::generate(seed, &profile)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn differing_seeds_diverge(seed in 0u64..1_000_000_000) {
        // Pairwise inequality of two arbitrary seeds can collide; over
        // eight consecutive seeds at least two schedules must differ.
        let profile = FaultProfile::default();
        let plans: Vec<FaultPlan> = (seed..seed + 8)
            .map(|s| FaultPlan::generate(s, &profile))
            .collect();
        prop_assert!(
            plans.iter().any(|p| *p != plans[0]),
            "eight consecutive seeds from {} all collide",
            seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn same_seed_campaigns_produce_byte_identical_transcripts(seed in 0u64..1_000) {
        let plan = FaultPlan::generate(seed, &FaultProfile::default());
        let first = run_campaign(&faulted_config(plan.clone()));
        let second = run_campaign(&faulted_config(plan));
        common::assert_not_quarantined("first", &first);
        common::assert_not_quarantined("second", &second);
        let (a, b) = (first.transcript(), second.transcript());
        prop_assert!(
            a == b,
            "same (seed, plan) diverged:\n--- first ---\n{}\n--- second ---\n{}",
            a,
            b
        );
        prop_assert!(!first.trials.is_empty());
        prop_assert_eq!(first.trials[0].op.scenario, "fault-burst");
        prop_assert!(!first.trials[0].fault_events.is_empty());
    }
}

/// The work-stealing runner fires the fault burst in the segment that
/// starts the plan; its transcript carries the burst's fault events, the
/// same at one worker and at two.
#[test]
fn work_stealing_transcripts_carry_the_fault_burst() {
    let mut config = faulted_config(FaultPlan::generate(7, &FaultProfile::default()));
    config.max_ops = Some(8);
    let run = |workers| run_work_stealing_with(&config, workers, 4);
    let reference = run(1);
    assert_eq!(reference.segments, 2);
    let burst = &reference.trials[0];
    assert_eq!(burst.op.scenario, "fault-burst");
    assert!(!burst.fault_events.is_empty());
    let transcript = reference.transcript();
    for event in &burst.fault_events {
        assert!(
            transcript.contains(&format!("\n  {event}\n")),
            "fault event missing from the transcript: {event}"
        );
    }
    assert_eq!(transcript, run(2).transcript());
}
