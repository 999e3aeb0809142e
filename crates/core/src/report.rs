//! Alarms, ground-truth attribution, and campaign summaries.
//!
//! Acto outputs *alarms*; the evaluation needs to know which injected bug
//! (or misoperation vulnerability, or platform bug) each alarm points to,
//! and whether any alarm is a false positive (paper §6.1, §6.3). The
//! attribution here uses the ground-truth registry: an alarm maps to a bug
//! when its trial changed the bug's trigger property and the oracle kind
//! is compatible with the bug's category.

use std::collections::{BTreeMap, BTreeSet};

use crdspec::Path;
use operators::bugs::{self, BugCategory, BugSpec};

use crate::exec::TrialRecord;
use crate::fuzz::FuzzResult;
use crate::model::{Expectation, Trial};
use crate::oracles::AlarmKind;
use crate::parallel::ParallelResult;

/// One oracle alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// Which oracle raised it.
    pub kind: AlarmKind,
    /// Human-readable detail.
    pub detail: String,
}

impl Alarm {
    /// Creates an alarm.
    pub fn new(kind: AlarmKind, detail: String) -> Alarm {
        Alarm { kind, detail }
    }
}

/// What an alarm points at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Attribution {
    /// An injected operator bug.
    OperatorBug(String),
    /// A simulated platform bug.
    PlatformBug(String),
    /// A misoperation vulnerability on the given property.
    MisoperationVulnerability(String),
    /// No ground truth matches: a false positive.
    FalsePositive,
}

/// Returns `true` when `oracle` can, per the paper's breakdown, reveal a
/// bug of `category` (one bug may be caught by several oracles).
fn oracle_compatible(category: BugCategory, oracle: AlarmKind) -> bool {
    match category {
        BugCategory::UndesiredState => matches!(
            oracle,
            AlarmKind::Consistency | AlarmKind::DifferentialNormal
        ),
        BugCategory::ErrorStateSystem => matches!(
            oracle,
            AlarmKind::ErrorCheck | AlarmKind::DifferentialNormal
        ),
        BugCategory::ErrorStateOperator => oracle == AlarmKind::ErrorCheck,
        BugCategory::RecoveryFailure => matches!(
            oracle,
            AlarmKind::DifferentialRollback | AlarmKind::ErrorCheck | AlarmKind::Recovery
        ),
    }
}

/// Whether a trial's property matches a bug's trigger property: exact
/// schema-path equality, prefix containment in either direction (a
/// composite scenario covers its leaves and vice versa).
fn property_matches(trial_property: &Path, trigger: &str) -> bool {
    let Ok(trigger_path) = trigger.parse::<Path>() else {
        return false;
    };
    let t = trial_property.to_schema_path();
    t == trigger_path || t.starts_with(&trigger_path) || trigger_path.starts_with(&t)
}

/// Attributes one alarm of one trial.
pub fn attribute(operator: &str, trial: &Trial, alarm: &Alarm) -> Attribution {
    // Platform-bug signatures take precedence when present in the detail.
    for plat in ["PLAT-1", "PLAT-2", "PLAT-3", "PLAT-4", "PLAT-5", "PLAT-6"] {
        if alarm.detail.contains(plat) {
            return Attribution::PlatformBug(plat.to_string());
        }
    }
    // Scenario-signature attribution for platform bugs that manifest as
    // state mismatches rather than crashes: oversized annotations that the
    // platform silently truncates (PLAT-4), and malformed quantities that
    // the loose declaration validation admitted (PLAT-2).
    if trial.op.scenario == "oversized-annotation"
        && matches!(
            alarm.kind,
            AlarmKind::Consistency | AlarmKind::DifferentialNormal
        )
    {
        return Attribution::PlatformBug("PLAT-4".to_string());
    }
    // Crash-consistency alarms come only from the crash-point sweep, and
    // the only ground-truth source of crash divergence is the seeded
    // non-idempotent-create bug (its on-by-request marker objects carry
    // the `zk-init-` prefix; a wedged retry loop also shows up as a
    // reconvergence failure). Anything else is unattributed.
    // Composition alarms come only from multi-operator campaigns, and the
    // only ground-truth source of cross-namespace reach is the seeded
    // cross-operator GC in TiDBOp (its footprint is a raw deletion in a
    // sibling's namespace; the livelock it induces also surfaces as
    // collateral churn). Anything else is unattributed.
    if alarm.kind == AlarmKind::Composition {
        if alarm.detail.contains("cross-operator GC: TiDBOp") {
            return Attribution::OperatorBug(bugs::SEEDED_CROSS_OPERATOR_GC.to_string());
        }
        return Attribution::FalsePositive;
    }
    if alarm.kind == AlarmKind::CrashConsistency {
        if operator == "ZooKeeperOp"
            && (alarm.detail.contains("zk-init-")
                || alarm.detail.contains("did not reconverge")
                || alarm.detail.contains("still unhealthy"))
        {
            return Attribution::OperatorBug(bugs::SEEDED_NONIDEMPOTENT_CREATE.to_string());
        }
        return Attribution::FalsePositive;
    }
    // Injected operator bugs. Operator-crash categories additionally
    // require a panic signature so that e.g. an unpullable image (a
    // misoperation) is not confused with a parser crash on the same
    // property.
    let is_panic = alarm.detail.contains("operator panic");
    for bug in bugs::bugs_of(operator) {
        if !property_matches(&trial.op.property, bug.trigger_property)
            || !oracle_compatible(bug.category, alarm.kind)
        {
            continue;
        }
        let category_ok = match bug.category {
            bugs::BugCategory::ErrorStateOperator => is_panic,
            bugs::BugCategory::ErrorStateSystem => !is_panic,
            // A wedged operator (never acknowledging declarations) is the
            // error-check face of a recovery-failure bug.
            bugs::BugCategory::RecoveryFailure if alarm.kind == AlarmKind::ErrorCheck => {
                alarm.detail.contains("stalled")
            }
            _ => true,
        };
        if category_ok {
            return Attribution::OperatorBug(bug.id.to_string());
        }
    }
    // Symptom signatures: degradations whose wording identifies the bug
    // regardless of which trial's transition surfaced them (one bug causes
    // many test failures; paper §6.3).
    const SIGNATURES: &[(&str, &str, &str)] = &[
        ("CockroachOp", "outdated TLS secrets", "CRDB-3"),
        ("KnativeOp", "contour pod still running", "KN-1"),
        // Stale seed-selection labels are CASS-2's footprint wherever a
        // later transition surfaces them.
        ("CassOp", "labels.seed/", "CASS-2"),
    ];
    for (op, needle, bug_id) in SIGNATURES {
        if *op == operator && alarm.detail.contains(needle) {
            return Attribution::OperatorBug((*bug_id).to_string());
        }
    }
    // A stale-configuration degradation is the signature of the
    // config-without-restart bugs, whichever property's trial surfaced it.
    if alarm.detail.contains("stale configuration") {
        if let Some(bug) = bugs::bugs_of(operator).into_iter().find(|b| {
            b.category == BugCategory::UndesiredState
                && b.trigger_property.to_ascii_lowercase().contains("config")
        }) {
            return Attribution::OperatorBug(bug.id.to_string());
        }
    }
    // Rollback and fault-recovery failures are global operator behaviour
    // (stability gates): a recovery-failure bug manifests for whichever
    // property produced the error state. Fall back to the operator's
    // recovery-failure bug.
    if matches!(
        alarm.kind,
        AlarmKind::DifferentialRollback | AlarmKind::Recovery
    ) {
        if let Some(bug) = bugs::bugs_of(operator)
            .into_iter()
            .find(|b| b.category == BugCategory::RecoveryFailure)
        {
            return Attribution::OperatorBug(bug.id.to_string());
        }
    }
    if matches!(trial.op.scenario, "invalid-quantity" | "malformed-quantity")
        && matches!(
            alarm.kind,
            AlarmKind::Consistency | AlarmKind::DifferentialNormal | AlarmKind::ErrorCheck
        )
    {
        return Attribution::PlatformBug("PLAT-2".to_string());
    }
    // Operations that drive the system into explicit error or degraded
    // states without matching an injected bug reveal misoperation
    // vulnerabilities: semantic errors in the declaration that escaped
    // syntactic validation (the campaign's misoperation probes, or a
    // mutation that happened to be semantically harmful).
    if matches!(alarm.kind, AlarmKind::ErrorCheck) {
        return Attribution::MisoperationVulnerability(trial.op.property.to_string());
    }
    let _ = Expectation::Misoperation;
    Attribution::FalsePositive
}

/// Summary of one campaign's findings.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Distinct injected bugs detected, with the oracle kinds that caught
    /// each.
    pub detected_bugs: BTreeMap<String, BTreeSet<AlarmKind>>,
    /// Distinct platform bugs detected.
    pub detected_platform_bugs: BTreeSet<String>,
    /// Properties with misoperation vulnerabilities.
    pub vulnerabilities: BTreeSet<String>,
    /// False-positive alarms (trial index, detail).
    pub false_positives: Vec<(usize, String)>,
    /// Total alarms raised.
    pub total_alarms: usize,
    /// Total test failures (trials with at least one alarm).
    pub failed_trials: usize,
}

/// Builds the summary for a finished campaign.
pub fn summarize<'a>(
    operator: &str,
    trials: impl IntoIterator<Item = &'a Trial>,
) -> CampaignSummary {
    let mut summary = CampaignSummary::default();
    for trial in trials {
        if !trial.alarms.is_empty() {
            summary.failed_trials += 1;
        }
        for alarm in &trial.alarms {
            summary.total_alarms += 1;
            match attribute(operator, trial, alarm) {
                Attribution::OperatorBug(id) => {
                    summary
                        .detected_bugs
                        .entry(id)
                        .or_default()
                        .insert(alarm.kind);
                }
                Attribution::PlatformBug(id) => {
                    summary.detected_platform_bugs.insert(id);
                }
                Attribution::MisoperationVulnerability(prop) => {
                    summary.vulnerabilities.insert(prop);
                }
                Attribution::FalsePositive => {
                    summary
                        .false_positives
                        .push((trial.op.index, alarm.detail.clone()));
                }
            }
        }
    }
    summary
}

/// Merges per-member summaries into one composed summary, field-wise:
/// detected-bug oracle sets union per bug id, platform bugs and
/// vulnerabilities union, false positives and counters accumulate.
pub fn merge_summaries<I: IntoIterator<Item = CampaignSummary>>(parts: I) -> CampaignSummary {
    let mut merged = CampaignSummary::default();
    for part in parts {
        for (bug, kinds) in part.detected_bugs {
            merged.detected_bugs.entry(bug).or_default().extend(kinds);
        }
        merged
            .detected_platform_bugs
            .extend(part.detected_platform_bugs);
        merged.vulnerabilities.extend(part.vulnerabilities);
        merged.false_positives.extend(part.false_positives);
        merged.total_alarms += part.total_alarms;
        merged.failed_trials += part.failed_trials;
    }
    merged
}

/// Ground-truth bugs of an operator that a mode can detect at all.
pub fn detectable_bugs(operator: &str, blackbox: bool) -> Vec<&'static BugSpec> {
    bugs::bugs_of(operator)
        .into_iter()
        .filter(|b| !blackbox || b.blackbox_detectable)
        .collect()
}

/// Appends one `detected:` transcript line per attributed bug, with the
/// oracle kinds that caught it.
pub(crate) fn render_detected(out: &mut String, summary: &CampaignSummary) {
    use std::fmt::Write;
    for (bug, kinds) in &summary.detected_bugs {
        let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        let _ = writeln!(out, "detected: {bug} via {}", names.join(","));
    }
}

/// Renders a summary as human-readable lines.
pub fn render_summary(operator: &str, summary: &CampaignSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {operator} ==\n"));
    out.push_str(&format!(
        "bugs detected: {} ({})\n",
        summary.detected_bugs.len(),
        summary
            .detected_bugs
            .keys()
            .cloned()
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "platform bugs: {}\n",
        summary
            .detected_platform_bugs
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "misoperation vulnerabilities: {}\n",
        summary.vulnerabilities.len()
    ));
    out.push_str(&format!(
        "alarms: {} over {} failed trials; false positives: {}\n",
        summary.total_alarms,
        summary.failed_trials,
        summary.false_positives.len()
    ));
    out
}

/// Renders the per-worker scheduling table shared by the parallel and
/// fuzzing reports: one line per worker with its segment, steal, cache,
/// and time accounting.
fn render_worker_stats(stats: &[crate::parallel::WorkerStats]) -> String {
    let mut out = String::new();
    out.push_str(
        "worker  segments  steals  depot-hits  ref-hits  ref-misses  sim-seconds  conv-waits  objs-shared  objs-owned  crash-swept  wall\n",
    );
    for s in stats {
        out.push_str(&format!(
            "{:>6}  {:>8}  {:>6}  {:>10}  {:>8}  {:>10}  {:>11}  {:>10}  {:>11}  {:>10}  {:>11}  {:.2?}\n",
            s.worker,
            s.segments_executed,
            s.steals,
            s.depot_hits,
            s.ref_cache_hits,
            s.ref_cache_misses,
            s.sim_seconds,
            s.convergence_waits,
            s.restored_objects_shared,
            s.restored_objects_owned,
            s.crash_points_swept,
            s.wall
        ));
    }
    out
}

/// Renders a fuzzing campaign: budget and corpus headline, coverage
/// breakdown by feature class, the findings summary, and the same
/// per-worker scheduling table as [`render_parallel`] — with the fuzzer's
/// checkpoint-fork and reference-cache counters threaded through, so cache
/// activity under fuzz never prints as zeros.
pub fn render_fuzz<T: TrialRecord>(result: &FuzzResult<T>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} ({}; fuzz seed {:#x}) ==\n",
        result.operator,
        result.mode.name(),
        result.seed
    ));
    out.push_str(&format!(
        "execs: {} in {} rounds; corpus: {} entries; coverage: {} features\n",
        result.execs,
        result.rounds,
        result.corpus.entries.len(),
        result.coverage.len()
    ));
    let counts = result.coverage.counts();
    let breakdown: Vec<String> = counts.iter().map(|(k, v)| format!("{k} {v}")).collect();
    out.push_str(&format!("coverage by class: {}\n", breakdown.join(", ")));
    out.push_str(&format!(
        "sim-seconds: total {} (base {}); wall: {:.2?}\n",
        result.total_sim_seconds, result.base_sim_seconds, result.wall
    ));
    out.push_str(&render_summary(&result.operator, &result.summary));
    out.push_str(&render_worker_stats(&result.worker_stats));
    out
}

/// Renders a parallel run: headline speedup numbers plus one line per
/// worker with its scheduling statistics. The makespan is the claim-rule
/// replay of [`ParallelResult::makespan_sim_seconds`]; each worker line
/// carries the sim-seconds that worker measured.
pub fn render_parallel<T: TrialRecord>(result: &ParallelResult<T>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} ({}; {} workers, {} segments x {} ops) ==\n",
        result.operator,
        result.mode.name(),
        result.workers,
        result.segments,
        result.segment_ops
    ));
    out.push_str(&format!(
        "sim-seconds: total {} (base {}), makespan {}\n",
        result.total_sim_seconds, result.base_sim_seconds, result.makespan_sim_seconds
    ));
    out.push_str(&format!(
        "trials: {}; failed segments: {}; wall: {:.2?} (planning {:.2?})\n",
        result.trials.len(),
        result.failed_segments.len(),
        result.wall,
        result.gen_duration
    ));
    out.push_str(&render_worker_stats(&result.worker_stats));
    for f in &result.failed_segments {
        if f.quarantined {
            out.push_str(&format!(
                "quarantined segment {} (skip {}, take {}): failed twice, last panic: {}\n",
                f.segment, f.skip, f.take, f.panic
            ));
        } else {
            out.push_str(&format!(
                "failed segment {} (skip {}, take {}): recovered on retry, first panic: {}\n",
                f.segment, f.skip, f.take, f.panic
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PlannedOp;
    use crate::model::TrialOutcome;
    use crdspec::Value;

    fn trial(property: &str, expectation: Expectation) -> Trial {
        Trial {
            op: PlannedOp {
                index: 0,
                property: property.parse().unwrap(),
                scenario: "t",
                value: Value::Null,
                dependency_assignments: Vec::new(),
                expectation,
            },
            declaration: Value::Null,
            outcome: TrialOutcome::Converged,
            alarms: Vec::new(),
            rollback_recovered: None,
            sim_seconds: 0,
            fault_events: Vec::new(),
            crash_points_swept: 0,
        }
    }

    #[test]
    fn attribution_maps_alarm_to_bug_by_property_and_oracle() {
        let t = trial("pod.labels", Expectation::NormalTransition);
        let alarm = Alarm::new(AlarmKind::Consistency, "stale label".to_string());
        assert_eq!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::OperatorBug("ZK-1".to_string())
        );
        // Wrong oracle kind for the category is not attributed to the bug.
        let alarm = Alarm::new(AlarmKind::DifferentialRollback, "x".to_string());
        assert_ne!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::OperatorBug("ZK-1".to_string())
        );
    }

    #[test]
    fn misop_error_states_are_vulnerabilities_not_fps() {
        let t = trial("pod.affinity", Expectation::Misoperation);
        let alarm = Alarm::new(AlarmKind::ErrorCheck, "pod stuck".to_string());
        assert_eq!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::MisoperationVulnerability("pod.affinity".to_string())
        );
    }

    #[test]
    fn unmatched_normal_alarms_are_false_positives() {
        let t = trial("ephemeral.emptyDirSize", Expectation::NormalTransition);
        let alarm = Alarm::new(AlarmKind::Consistency, "no transition".to_string());
        assert_eq!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::FalsePositive
        );
    }

    #[test]
    fn platform_signatures_take_precedence() {
        let t = trial("pod.labels", Expectation::NormalTransition);
        let alarm = Alarm::new(
            AlarmKind::ErrorCheck,
            "panic: PLAT-3: declaration payload exceeds shared-object limit".to_string(),
        );
        assert_eq!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::PlatformBug("PLAT-3".to_string())
        );
    }

    #[test]
    fn property_matching_covers_composites_and_leaves() {
        assert!(!property_matches(
            &"follower.pdb.minAvailable".parse().unwrap(),
            "follower.pdb.enabled"
        ));
        assert!(property_matches(
            &"follower.pdb".parse().unwrap(),
            "follower.pdb.enabled"
        ));
        // Map trials are planned at the container level.
        assert!(property_matches(
            &"config".parse().unwrap(),
            "config.@values"
        ));
    }

    #[test]
    fn summarize_counts_by_attribution() {
        let mut t1 = trial("pod.labels", Expectation::NormalTransition);
        t1.alarms
            .push(Alarm::new(AlarmKind::Consistency, "stale".to_string()));
        let mut t2 = trial("pod.affinity", Expectation::Misoperation);
        t2.alarms
            .push(Alarm::new(AlarmKind::ErrorCheck, "stuck".to_string()));
        let summary = summarize("ZooKeeperOp", &[t1, t2]);
        assert_eq!(summary.detected_bugs.len(), 1);
        assert!(summary.detected_bugs.contains_key("ZK-1"));
        assert_eq!(summary.vulnerabilities.len(), 1);
        assert_eq!(summary.failed_trials, 2);
        assert!(summary.false_positives.is_empty());
        let text = render_summary("ZooKeeperOp", &summary);
        assert!(text.contains("ZK-1"));
    }

    #[test]
    fn crash_consistency_attributes_seeded_bug_by_signature() {
        let t = trial("replicas", Expectation::NormalTransition);
        let alarm = Alarm::new(
            AlarmKind::CrashConsistency,
            "crash at write 2: ConfigMap/acto/zk-init-0011223344556677 lost across crash/restart"
                .to_string(),
        );
        assert_eq!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::OperatorBug(bugs::SEEDED_NONIDEMPOTENT_CREATE.to_string())
        );
        let alarm = Alarm::new(
            AlarmKind::CrashConsistency,
            "crash at write 1: system did not reconverge after restart".to_string(),
        );
        assert_eq!(
            attribute("ZooKeeperOp", &t, &alarm),
            Attribution::OperatorBug(bugs::SEEDED_NONIDEMPOTENT_CREATE.to_string())
        );
        // Other operators have no seeded crash bug: unattributed.
        let alarm = Alarm::new(
            AlarmKind::CrashConsistency,
            "crash at write 1: Pod/acto/x lost across crash/restart".to_string(),
        );
        assert_eq!(
            attribute("RabbitMQOp", &t, &alarm),
            Attribution::FalsePositive
        );
    }

    #[test]
    fn detectable_bugs_excludes_blackbox_miss() {
        let all = detectable_bugs("ZooKeeperOp", false);
        let black = detectable_bugs("ZooKeeperOp", true);
        assert_eq!(all.len(), 6);
        assert_eq!(black.len(), 5);
    }
}
