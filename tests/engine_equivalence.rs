//! Equivalence of the event-driven step engine and the legacy ticked loop.
//!
//! The engine's contract is exactness, not approximation: controllers run
//! only when their inputs changed, and the clock jumps over spans where
//! every tick is a provable no-op, but sim timestamps, logs, watch events,
//! alarms, and therefore campaign transcripts must be byte-identical to
//! ticking one second at a time. This harness runs every registered
//! operator's campaign under both engines — with and without a fault plan,
//! with crash-point sweeps, and as a composed pair sharing one cluster —
//! and compares transcripts (which embed per-trial `sim=` timestamps,
//! alarms, outcomes, and total sim-seconds).

mod common;

use acto_repro::acto::compose::run_composed_campaign;
use acto_repro::acto::{run_campaign, CampaignConfig, CampaignResult, Mode, Strategy};
use acto_repro::operators::registry::all_operators;
use acto_repro::operators::BugToggles;
use acto_repro::simkube::{set_ticked_engine, FaultPlan, FaultProfile, PlatformBugs};

/// Restores the thread's engine selection even if an assertion panics.
struct EngineGuard;

impl Drop for EngineGuard {
    fn drop(&mut self) {
        set_ticked_engine(false);
    }
}

fn run_both(config: &CampaignConfig) -> (CampaignResult, CampaignResult) {
    let _guard = EngineGuard;
    set_ticked_engine(true);
    let ticked = run_campaign(config);
    set_ticked_engine(false);
    let event = run_campaign(config);
    (ticked, event)
}

fn config(operator: &str, max_ops: usize, faults: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        operators: vec![operator.to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(max_ops),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults,
        crash_sweep: false,
        topology: None,
    }
}

fn assert_equivalent(label: &str, ticked: &CampaignResult, event: &CampaignResult) {
    common::assert_not_quarantined(label, ticked);
    common::assert_not_quarantined(label, event);
    assert_eq!(
        ticked.sim_seconds, event.sim_seconds,
        "{label}: sim-seconds diverged"
    );
    assert_eq!(
        ticked.transcript(),
        event.transcript(),
        "{label}: transcripts diverged"
    );
}

#[test]
fn every_operator_is_engine_equivalent() {
    for info in all_operators() {
        let config = config(info.name, 10, FaultPlan::default());
        let (ticked, event) = run_both(&config);
        assert_equivalent(info.name, &ticked, &event);
    }
}

#[test]
fn every_operator_is_engine_equivalent_under_fault_plans() {
    for (i, info) in all_operators().iter().enumerate() {
        let plan = FaultPlan::generate(0xACE0 + i as u64, &FaultProfile::default());
        assert!(!plan.is_empty());
        let config = config(info.name, 6, plan);
        let (ticked, event) = run_both(&config);
        assert_equivalent(info.name, &ticked, &event);
    }
}

#[test]
fn differential_campaigns_are_engine_equivalent() {
    // The differential oracle adds fresh-reference side clusters (and the
    // fresh-reference cache); transcripts must stay identical.
    for operator in ["RabbitMQOp", "ZooKeeperOp"] {
        let mut config = config(operator, 12, FaultPlan::default());
        config.differential = true;
        let (ticked, event) = run_both(&config);
        assert_equivalent(operator, &ticked, &event);
    }
}

#[test]
fn crash_sweeps_are_engine_equivalent() {
    // A sweep crashes the operator at every write boundary, so the
    // operator-down, restart and armed-crash gates of a reconcile pass meet
    // the event engine's skipping of repeated passes. TiDBOp and CassOp
    // manage several StatefulSets, so one reconcile pass makes several
    // writes and several boundaries fork from the same tick of the live
    // wait.
    for operator in ["ZooKeeperOp", "RabbitMQOp", "TiDBOp", "CassOp"] {
        let mut config = config(operator, 8, FaultPlan::default());
        config.crash_sweep = true;
        let (ticked, event) = run_both(&config);
        assert!(
            event.crash_points_swept > 0,
            "{operator}: the sweep must replay at least one crash boundary"
        );
        assert_eq!(ticked.crash_points_swept, event.crash_points_swept);
        assert_equivalent(operator, &ticked, &event);
    }
}

#[test]
fn composed_pairs_are_engine_equivalent() {
    // Members share one cluster, so each member's pass skipping has to see
    // the writes of the other.
    let mut config = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
    config.bugs = BugToggles::all_injected();
    config.max_ops = Some(12);
    let _guard = EngineGuard;
    set_ticked_engine(true);
    let ticked = run_composed_campaign(&config).expect("composed campaign runs");
    set_ticked_engine(false);
    let event = run_composed_campaign(&config).expect("composed campaign runs");
    assert!(!event.trials.is_empty());
    assert!(ticked.failed_segments.is_empty() && event.failed_segments.is_empty());
    assert_eq!(
        ticked.transcript(),
        event.transcript(),
        "ZooKeeperOp+RabbitMQOp: transcripts diverged"
    );
}
