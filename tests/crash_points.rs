//! Crash-point sweep: determinism, the seeded non-idempotent-create bug,
//! and sweep cleanliness for every registered operator.
//!
//! The sweep replays each converged transition once per write boundary
//! `k ∈ 1..=W`, crashing the operator at write `k` and requiring
//! reconvergence to the uninterrupted end state. A replay forks the live
//! trial's convergence wait: it restores, in O(1), the checkpoint taken
//! at the start of the tick that makes write `k`, arms the crash for the
//! writes still to go in that tick, and continues the same converge loop
//! from there. That is exact, not an approximation of a replay from the
//! pre-submit state: operators and system models keep no state of their
//! own, the memos a restore clears are derived state, and an armed crash
//! point changes the cluster fingerprint only on ticks that write — so up
//! to write `k` the two runs execute the same ticks. The crash schedule is
//! derived from the engine-invariant write counter, so the whole sweep is
//! deterministic: transcripts are byte-identical across repeat runs and
//! across any worker count.

mod common;

use acto_repro::acto::parallel::run_work_stealing;
use acto_repro::acto::{run_campaign, AlarmKind, CampaignConfig, Mode, Strategy};
use acto_repro::operators::bugs::SEEDED_NONIDEMPOTENT_CREATE;
use acto_repro::operators::{operator_names, BugToggles};
use acto_repro::simkube::PlatformBugs;
use proptest::prelude::*;

fn sweep_config(operator: &str, max_ops: usize, bugs: BugToggles) -> CampaignConfig {
    CampaignConfig {
        operators: vec![operator.to_string()],
        mode: Mode::Whitebox,
        bugs,
        platform: PlatformBugs::none(),
        max_ops: Some(max_ops),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: true,
        topology: None,
    }
}

#[test]
fn sweep_actually_replays_crash_boundaries() {
    let config = sweep_config("ZooKeeperOp", 6, BugToggles::all_fixed());
    let result = run_campaign(&config);
    assert!(
        result.crash_points_swept > 0,
        "a converged campaign must sweep at least one write boundary"
    );
    assert_eq!(
        result.crash_points_swept,
        result
            .trials
            .iter()
            .map(|t| u64::from(t.crash_points_swept))
            .sum::<u64>(),
        "campaign total must equal the per-trial sum"
    );
    assert!(
        result.transcript().contains("crash-sweep:"),
        "swept trials must be visible in the transcript"
    );
}

#[test]
fn seeded_nonidempotent_create_is_caught_by_the_sweep() {
    let mut bugs = BugToggles::all_fixed();
    bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    let config = sweep_config("ZooKeeperOp", 8, bugs);
    let result = run_campaign(&config);
    let crash_alarms: Vec<&str> = result
        .trials
        .iter()
        .flat_map(|t| &t.alarms)
        .filter(|a| a.kind == AlarmKind::CrashConsistency)
        .map(|a| a.detail.as_str())
        .collect();
    assert!(
        !crash_alarms.is_empty(),
        "the seeded bug must trip the crash-consistency oracle at some write boundary"
    );
    assert!(
        result
            .summary
            .detected_bugs
            .contains_key(SEEDED_NONIDEMPOTENT_CREATE),
        "the alarm must attribute to the seeded bug; detected: {:?}",
        result.summary.detected_bugs
    );

    // The same campaign without the crash sweep is silent: the bug only
    // manifests when a crash lands between the create and its
    // completion stamp.
    let mut bugs = BugToggles::all_fixed();
    bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    let mut quiet = sweep_config("ZooKeeperOp", 8, bugs);
    quiet.crash_sweep = false;
    let quiet_result = run_campaign(&quiet);
    assert!(
        quiet_result.trials.iter().all(|t| t.alarms.is_empty()),
        "without crashes the seeded bug is invisible"
    );
}

#[test]
fn all_operators_sweep_clean_with_bugs_off() {
    for operator in operator_names() {
        let config = sweep_config(operator, 4, BugToggles::all_fixed());
        let result = run_campaign(&config);
        let crash_alarms: Vec<String> = result
            .trials
            .iter()
            .flat_map(|t| &t.alarms)
            .filter(|a| a.kind == AlarmKind::CrashConsistency)
            .map(|a| a.detail.clone())
            .collect();
        assert!(
            crash_alarms.is_empty(),
            "{operator}: correct operators must survive crashes at every write \
             boundary; alarms: {crash_alarms:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn sweep_transcripts_are_deterministic(max_ops in 4usize..9) {
        let config = sweep_config("ZooKeeperOp", max_ops, BugToggles::all_fixed());
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        common::assert_not_quarantined("a", &a);
        common::assert_not_quarantined("b", &b);
        prop_assert_eq!(a.transcript(), b.transcript());
        prop_assert_eq!(a.crash_points_swept, b.crash_points_swept);
    }
}

#[test]
fn sweep_transcripts_are_worker_count_invariant() {
    let config = sweep_config("ZooKeeperOp", 10, BugToggles::all_fixed());
    let reference = run_work_stealing(&config, 1);
    assert!(reference.failed_segments.is_empty());
    assert!(
        reference.transcript().contains("crash-sweep:"),
        "the parallel transcript must show each trial's sweep"
    );
    let swept: u64 = reference
        .worker_stats
        .iter()
        .map(|s| s.crash_points_swept)
        .sum();
    assert!(swept > 0, "parallel sweep must replay boundaries too");
    for workers in [2, 4] {
        let run = run_work_stealing(&config, workers);
        assert!(run.failed_segments.is_empty());
        assert_eq!(
            reference.transcript(),
            run.transcript(),
            "{workers} workers diverged from the sequential sweep"
        );
        assert_eq!(
            swept,
            run.worker_stats
                .iter()
                .map(|s| s.crash_points_swept)
                .sum::<u64>(),
            "total swept boundaries must be scheduling-invariant"
        );
    }
}
