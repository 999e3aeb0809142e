//! Alarm reproduction: minimizing a failing operation sequence and
//! emitting e2e test code (paper §5.4).
//!
//! For every alarm, Acto generates a minimized end-to-end test that
//! reproduces it without rerunning the campaign: only the operations
//! needed to set up the revealing state transition are kept. The
//! minimizer is a delta-debugging loop over the declaration sequence
//! (always keeping the final, alarm-triggering declaration) with an
//! oracle-replay check.

use crdspec::Value;
use operators::bugs::BugToggles;
use operators::{operator_by_name, Instance, CONVERGE_MAX, CONVERGE_RESET};
use simkube::PlatformBugs;

use crate::oracles::AlarmKind;
use crate::step;

/// Replays a declaration sequence on a fresh deployment and reports
/// whether an alarm of `kind` fires on the final declaration.
///
/// The replay uses the same per-trial oracle pipeline as campaigns but in
/// a reduced form sufficient for reproduction: error checks plus the
/// no-transition consistency check.
pub fn replays_alarm(
    operator: &str,
    bugs: &BugToggles,
    platform: PlatformBugs,
    declarations: &[Value],
    kind: AlarmKind,
) -> bool {
    let Ok(mut instance) = Instance::deploy(operator_by_name(operator), bugs.clone(), platform)
    else {
        return false;
    };
    let Some((last, prefix)) = declarations.split_last() else {
        return false;
    };
    for d in prefix {
        if instance.submit(d.clone()).is_err() {
            return false;
        }
        let _ = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        if instance.operator_crashed() {
            return false;
        }
    }
    let cr_id = step::cr_id(&instance);
    let pre = crate::oracles::masked_snapshot(&instance);
    let prev_spec = instance.cr_spec();
    let sweep_cp = (kind == AlarmKind::CrashConsistency).then(|| instance.checkpoint());
    let writes_before = instance.operator_writes();
    if instance.submit(last.clone()).is_err() {
        return false;
    }
    let converged = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
    let post = crate::oracles::masked_snapshot(&instance);
    match kind {
        AlarmKind::ErrorCheck => !converged || step::error_state(&instance),
        AlarmKind::Consistency | AlarmKind::DifferentialNormal => {
            // Reproduction signal: the final declaration leaves the system
            // state untouched or the declaration round-trip mismatches.
            !crate::oracles::changed_outside(&pre, &post, &cr_id) && prev_spec != *last
        }
        AlarmKind::CrashConsistency => {
            // Reproduction signal: re-sweep the final transition's write
            // boundaries; the alarm reproduces when any crashed replay
            // fails to reconverge to the uninterrupted end state.
            let Some(cp) = sweep_cp else { return false };
            if !converged {
                return false;
            }
            let writes_after = instance.operator_writes();
            (1..=(writes_after - writes_before) as u32).any(|k| {
                step::crash_replay(operator, bugs, &cp, k, last).is_some_and(|replay| {
                    !replay.converged
                        || crate::oracles::changed_outside(&replay.state, &post, &cr_id)
                })
            })
        }
        // Composition alarms need the whole multi-operator harness to
        // reproduce; single-instance minimization cannot re-run them, so
        // the sequence is left unminimized.
        AlarmKind::Composition => false,
        // Recovery alarms (fault bursts) share the rollback signal: an
        // error state the prior declaration fails to clear.
        AlarmKind::DifferentialRollback | AlarmKind::Recovery => {
            // Error state, then a failed rollback.
            if !step::error_state(&instance) {
                return false;
            }
            let _ = instance.submit(prev_spec);
            let _ = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
            !instance.last_health.is_healthy() || !instance.pod_failures().is_empty()
        }
    }
}

/// Minimizes a failing declaration sequence, keeping the final
/// (alarm-triggering) declaration and removing as many earlier
/// declarations as possible while the alarm still reproduces.
pub fn minimize(
    operator: &str,
    bugs: &BugToggles,
    platform: PlatformBugs,
    declarations: &[Value],
    kind: AlarmKind,
) -> Vec<Value> {
    let Some((last, prefix)) = declarations.split_last() else {
        return declarations.to_vec();
    };
    let mut kept: Vec<Value> = prefix.to_vec();
    // One-minimal greedy pass: try removing each prefix element (ddmin
    // with chunk size 1 suffices for the short prefixes campaigns yield).
    let mut i = 0;
    while i < kept.len() {
        let mut candidate = kept.clone();
        candidate.remove(i);
        let mut seq = candidate.clone();
        seq.push(last.clone());
        if replays_alarm(operator, bugs, platform, &seq, kind) {
            kept = candidate;
        } else {
            i += 1;
        }
    }
    let mut out = kept;
    out.push(last.clone());
    out
}

/// Emits a self-contained Rust e2e test reproducing the alarm from a
/// minimized declaration sequence (suitable for a regression suite).
pub fn emit_test_code(operator: &str, test_name: &str, declarations: &[Value]) -> String {
    let mut out = String::new();
    out.push_str("// Generated by Acto: minimized end-to-end reproduction.\n");
    out.push_str("#[test]\n");
    out.push_str(&format!("fn {test_name}() {{\n"));
    out.push_str(&format!(
        "    let mut instance = operators::Instance::deploy(\n        operators::operator_by_name({operator:?}),\n        operators::BugToggles::all_injected(),\n        simkube::PlatformBugs::all(),\n    )\n    .expect(\"deploy\");\n"
    ));
    for (i, d) in declarations.iter().enumerate() {
        let json = crdspec::json::to_string(d);
        out.push_str(&format!(
            "    let step_{i} = crdspec::json::from_str({json:?}).expect(\"declaration\");\n"
        ));
        out.push_str(&format!(
            "    instance.submit(step_{i}).expect(\"submit\");\n"
        ));
        out.push_str(
            "    instance.converge(operators::CONVERGE_RESET, operators::CONVERGE_MAX);\n",
        );
    }
    out.push_str("    // Assert the reproduced symptom here (see the alarm detail).\n");
    out.push_str("    assert!(instance.operator_crashed() || !instance.last_health.is_healthy() || !instance.pod_failures().is_empty());\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdspec::Path;

    #[test]
    fn minimizes_crash_reproduction_to_single_step() {
        // Build a three-step sequence where only the last step matters:
        // two innocuous scale changes, then the tagless image that crashes
        // CockroachOp.
        let op = operator_by_name("CockroachOp");
        let base = op.initial_cr();
        let mut s1 = base.clone();
        s1.set_path(&"nodes".parse::<Path>().unwrap(), Value::from(4));
        let mut s2 = base.clone();
        s2.set_path(&"nodes".parse::<Path>().unwrap(), Value::from(5));
        let mut bad = base.clone();
        bad.set_path(&"image".parse::<Path>().unwrap(), Value::from("cockroach"));
        let seq = vec![s1, s2, bad.clone()];
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
        assert_eq!(minimized.len(), 1, "only the crashing step should remain");
        assert_eq!(minimized[0], bad);
    }

    #[test]
    fn emitted_code_contains_all_steps() {
        let d1 = Value::object([("replicas", Value::from(3))]);
        let d2 = Value::object([("replicas", Value::from(5))]);
        let code = emit_test_code("ZooKeeperOp", "repro_zk", &[d1, d2]);
        assert!(code.contains("fn repro_zk()"));
        assert!(code.contains("step_0"));
        assert!(code.contains("step_1"));
        assert!(code.contains("ZooKeeperOp"));
        // The emitted declarations parse back.
        assert!(code.contains("replicas"));
    }
}
