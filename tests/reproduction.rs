//! Minimized reproduction (paper §5.4): delta debugging failing sequences
//! and emitting regression-test code.

use acto_repro::acto::minimize::{emit_test_code, minimize, replays_alarm};
use acto_repro::acto::AlarmKind;
use acto_repro::crdspec::Value;
use acto_repro::operators::bugs::SEEDED_NONIDEMPOTENT_CREATE;
use acto_repro::operators::{operator_by_name, BugToggles};
use acto_repro::simkube::PlatformBugs;

#[test]
fn crash_sequences_minimize_to_the_crashing_declaration() {
    let base = operator_by_name("CockroachOp").initial_cr();
    let mut noise1 = base.clone();
    noise1.set_path(&"nodes".parse().unwrap(), Value::from(4));
    let mut noise2 = base.clone();
    noise2.set_path(&"nodes".parse().unwrap(), Value::from(2));
    let mut crash = base.clone();
    crash.set_path(&"image".parse().unwrap(), Value::from("cockroach"));
    let seq = vec![noise1, noise2, crash.clone()];
    let bugs = BugToggles::all_injected();
    assert!(replays_alarm(
        "CockroachOp",
        &bugs,
        PlatformBugs::none(),
        &seq,
        AlarmKind::ErrorCheck
    ));
    let minimized = minimize(
        "CockroachOp",
        &bugs,
        PlatformBugs::none(),
        &seq,
        AlarmKind::ErrorCheck,
    );
    assert_eq!(minimized, vec![crash]);
}

#[test]
fn crash_consistency_alarms_minimize_through_the_resweep() {
    // SEED-CRASH-1 wedges ZooKeeperOp when a crash lands between the init
    // marker's create and its completion stamp, which every new
    // declaration writes. The final declaration's re-sweep alone
    // reproduces the alarm, so the padding before it must all go.
    let base = operator_by_name("ZooKeeperOp").initial_cr();
    let mut noise1 = base.clone();
    noise1.set_path(&"replicas".parse().unwrap(), Value::from(5));
    let mut noise2 = noise1.clone();
    noise2.set_path(
        &"pod.labels".parse().unwrap(),
        Value::object([("team", Value::from("infra"))]),
    );
    let mut trigger = base.clone();
    trigger.set_path(&"replicas".parse().unwrap(), Value::from(4));
    let seq = vec![noise1, noise2, trigger.clone()];
    let mut bugs = BugToggles::all_fixed();
    bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    let kind = AlarmKind::CrashConsistency;
    assert!(replays_alarm(
        "ZooKeeperOp",
        &bugs,
        PlatformBugs::none(),
        &seq,
        kind
    ));
    assert!(
        !replays_alarm(
            "ZooKeeperOp",
            &BugToggles::all_fixed(),
            PlatformBugs::none(),
            &seq,
            kind
        ),
        "without the seeded bug every crashed replay reconverges"
    );
    let minimized = minimize("ZooKeeperOp", &bugs, PlatformBugs::none(), &seq, kind);
    assert_eq!(minimized, vec![trigger]);
}

#[test]
fn stateful_reproductions_keep_the_setup_operation() {
    // ZK-1 (label deletion ignored) needs the add before the delete: the
    // minimizer must keep both declarations.
    let base = operator_by_name("ZooKeeperOp").initial_cr();
    let mut with_label = base.clone();
    with_label.set_path(
        &"pod.labels".parse().unwrap(),
        Value::object([("team", Value::from("infra"))]),
    );
    let mut unrelated = base.clone();
    unrelated.set_path(&"replicas".parse().unwrap(), Value::from(4));
    // Keep the label when scaling so the final step's only change is the
    // label removal.
    unrelated.set_path(
        &"pod.labels".parse().unwrap(),
        Value::object([("team", Value::from("infra"))]),
    );
    let mut without_label = base.clone();
    without_label.set_path(&"replicas".parse().unwrap(), Value::from(4));
    let seq = vec![with_label.clone(), unrelated, without_label.clone()];
    let bugs = BugToggles::all_injected();
    assert!(replays_alarm(
        "ZooKeeperOp",
        &bugs,
        PlatformBugs::none(),
        &seq,
        AlarmKind::Consistency
    ));
    let minimized = minimize(
        "ZooKeeperOp",
        &bugs,
        PlatformBugs::none(),
        &seq,
        AlarmKind::Consistency,
    );
    assert_eq!(minimized.len(), 2, "setup + delete must both survive");
    assert_eq!(minimized[1], without_label);
    assert!(
        minimized[0]
            .get_path(&"pod.labels.team".parse().unwrap())
            .is_some(),
        "the surviving setup operation must introduce the label"
    );
}

#[test]
fn emitted_test_code_is_self_contained() {
    let d = Value::object([("replicas", Value::from(5))]);
    let code = emit_test_code("ZooKeeperOp", "repro_scale", &[d]);
    assert!(code.contains("#[test]"));
    assert!(code.contains("fn repro_scale()"));
    assert!(code.contains("operators::Instance::deploy"));
    assert!(code.contains("instance.submit"));
}
