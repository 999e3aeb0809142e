//! Recovery-oracle integration tests: error-state campaign starts.
//!
//! A campaign configured with a fault plan opens with a burst — node
//! crashes, pod churn, corrupted configuration — and the recovery oracle
//! requires the operator to restore the pre-fault state once the faults
//! clear. Healthy operators must ride out platform-level churn silently;
//! the planted ZK-6 stability-gate bug (the operator refuses to act while
//! any member is failed) must wedge and alarm.

use acto_repro::acto::{run_campaign, CampaignConfig, Mode, Strategy, TrialOutcome};
use acto_repro::operators::bugs::{bugs_of, BugToggles};
use acto_repro::operators::{INSTANCE, NAMESPACE};
use acto_repro::simkube::{Fault, FaultPlan, PlatformBugs};

fn config(operator: &str, bugs: BugToggles, faults: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        operators: vec![operator.to_string()],
        mode: Mode::Whitebox,
        bugs,
        platform: PlatformBugs::none(),
        // Only the fault burst runs; the operation plan is skipped.
        max_ops: Some(0),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults,
        crash_sweep: false,
        topology: None,
    }
}

/// Node crash plus pod churn: the platform-failure burst every correct
/// operator must absorb.
fn churn_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(
        3,
        Fault::NodeCrash {
            node: "node-0".to_string(),
            down_for: 10,
        },
    );
    plan.push(
        6,
        Fault::PodEvict {
            namespace: NAMESPACE.to_string(),
            pod: format!("{INSTANCE}-1"),
        },
    );
    plan.push(
        9,
        Fault::PodKill {
            namespace: NAMESPACE.to_string(),
            pod: format!("{INSTANCE}-2"),
        },
    );
    plan
}

#[test]
fn healthy_operators_recover_from_node_and_pod_churn() {
    for operator in ["ZooKeeperOp", "RabbitMQOp"] {
        let result = run_campaign(&config(operator, BugToggles::all_fixed(), churn_plan()));
        let burst = &result.trials[0];
        assert_eq!(burst.op.scenario, "fault-burst");
        assert!(
            !burst.fault_events.is_empty(),
            "{operator}: burst trial must record fault events"
        );
        assert!(
            burst.alarms.is_empty(),
            "{operator}: healthy operator alarmed on recovery: {:?}",
            burst.alarms
        );
        assert_eq!(burst.outcome, TrialOutcome::Converged);
        assert_eq!(burst.rollback_recovered, Some(true));
        assert!(
            result.summary.detected_bugs.is_empty(),
            "{operator}: fault-free bug set expected, got {:?}",
            result.summary.detected_bugs
        );
    }
}

/// Corrupts the ensemble ConfigMap behind the operator's back while a
/// watch blackout holds the operator off: members crash on the invalid
/// value before the operator can repair it, so recovery requires a
/// reconcile while pods are failed — exactly what ZK-6 refuses.
fn corrupt_config_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(
        2,
        Fault::ConfigCorrupt {
            namespace: NAMESPACE.to_string(),
            configmap: format!("{INSTANCE}-config"),
            key: "snapCount".to_string(),
            value: "garbage".to_string(),
        },
    );
    plan.push(2, Fault::WatchBlackout { duration: 5 });
    plan
}

/// ZK-6 injected, every other ZooKeeper bug fixed.
fn only_zk6() -> BugToggles {
    let mut bugs = BugToggles::all_injected();
    for bug in bugs_of("ZooKeeperOp") {
        if bug.id != "ZK-6" {
            bugs.fix(bug.id);
        }
    }
    bugs
}

#[test]
fn recovery_oracle_detects_planted_non_recovery_bug() {
    let result = run_campaign(&config("ZooKeeperOp", only_zk6(), corrupt_config_plan()));
    let burst = &result.trials[0];
    assert_eq!(burst.op.scenario, "fault-burst");
    assert!(
        matches!(burst.outcome, TrialOutcome::ErrorState(_)),
        "ZK-6 must wedge on corrupted config, got {:?}",
        burst.outcome
    );
    assert!(
        burst
            .alarms
            .iter()
            .any(|a| a.kind == acto_repro::acto::AlarmKind::Recovery),
        "expected a recovery alarm, got {:?}",
        burst.alarms
    );
    assert_eq!(burst.rollback_recovered, Some(false));
    assert!(
        result.summary.detected_bugs.contains_key("ZK-6"),
        "recovery alarm must attribute to ZK-6, got {:?}",
        result.summary.detected_bugs
    );
}

#[test]
fn fixed_operator_repairs_corrupted_config_quietly() {
    let result = run_campaign(&config(
        "ZooKeeperOp",
        BugToggles::all_fixed(),
        corrupt_config_plan(),
    ));
    let burst = &result.trials[0];
    assert_eq!(burst.outcome, TrialOutcome::Converged);
    assert!(
        burst.alarms.is_empty(),
        "fixed operator alarmed: {:?}",
        burst.alarms
    );
    assert!(result.summary.detected_bugs.is_empty());
}
