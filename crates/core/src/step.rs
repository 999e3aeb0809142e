//! One trial step (paper §4, Figure 4c), written once for every executor.
//!
//! An operation submits a declaration, waits for convergence, and is
//! judged. The sequential campaign, the fuzzer and both composed runners
//! share the pieces of that step defined here — the [`settled`] health
//! predicate, the [`classify`] outcome ladder, the [`fault_burst`], the
//! converged-trial [`oracle_pass`], the [`crash_replay`] and the [`Ledger`]
//! they bill to — so one module decides what counts as a failed
//! operation. What an executor does with a verdict (reset, roll back, or
//! keep going) stays at its call site.

use crdspec::{Path, Value};
use managed::Health;
use operators::bugs::BugToggles;
use operators::{
    operator_by_name, BoundaryLog, Instance, InstanceCheckpoint, WriteBoundary, CONVERGE_MAX,
    CONVERGE_RESET,
};
use simkube::{ApiError, FaultPlan};

use crate::campaign::{collapse, fresh_reference, value_path, CampaignConfig, FreshRefCache};
use crate::model::{Expectation, PlannedOp, Trial, TrialOutcome};
use crate::oracles::{self, masked_snapshot, AlarmKind, OracleContext, StateSnapshot};
use crate::report::Alarm;

/// Downtime of a crash armed at a write boundary, in simulated seconds.
/// Kept strictly below [`CONVERGE_RESET`] so the process restarts before
/// the reset timer could declare convergence with the operator dead.
pub(crate) const CRASH_DOWN_FOR: u64 = 5;

/// Returns `true` when the operator has acknowledged the current
/// generation in the CR status.
fn acknowledged(instance: &Instance) -> bool {
    let Some(obj) = instance.cluster.api().get(&instance.cr_key()) else {
        return true;
    };
    let generation = obj.meta.generation as i64;
    obj.data
        .status_value()
        .get("observedGeneration")
        .and_then(Value::as_i64)
        .is_some_and(|og| og >= generation)
}

/// The CR object id prefix `kind/namespace/name` that oracles exclude
/// from state comparisons.
pub(crate) fn cr_id(instance: &Instance) -> String {
    let kind = instance.operator().kind();
    format!("{kind}/{}/{}", instance.namespace, instance.name)
}

/// An explicit error state: the operator crashed, the managed system is
/// down, or pods failed.
pub(crate) fn error_state(instance: &Instance) -> bool {
    instance.operator_crashed()
        || matches!(instance.last_health, Health::Down(_))
        || !instance.pod_failures().is_empty()
}

/// Settled health: no error state and the declaration acknowledged. A
/// degraded system counts as settled; a state comparison judges it.
pub(crate) fn settled(instance: &Instance) -> bool {
    !error_state(instance) && acknowledged(instance)
}

/// Classifies a submitted trial after its convergence wait, in order:
/// operator crash → exhausted budget (livelock while the operator still
/// wrote, stuck when it wrote nothing) → system down or pod errors →
/// declaration never acknowledged (stalled) → graceful refusal logged
/// since `t_start` → converged, with an alarm when the converged system
/// is degraded.
pub(crate) fn classify(
    instance: &Instance,
    converged: bool,
    writes: u64,
    t_start: u64,
) -> (TrialOutcome, Vec<Alarm>) {
    let error_check = |detail: String| vec![Alarm::new(AlarmKind::ErrorCheck, detail)];
    if instance.operator_crashed() {
        let alarms = oracles::error_checks(instance, t_start);
        let detail = alarms
            .first()
            .map_or_else(|| "panic".to_string(), |a| a.detail.clone());
        (TrialOutcome::OperatorCrash(detail), alarms)
    } else if !converged && writes > 0 {
        let detail = format!(
            "livelock: convergence budget exhausted with the operator still writing ({writes} writes)"
        );
        (TrialOutcome::Livelock, error_check(detail))
    } else if !converged {
        let detail = "stuck: convergence budget exhausted with no operator writes at all";
        (TrialOutcome::Stuck, error_check(detail.to_string()))
    } else if error_state(instance) {
        let reason = instance
            .last_health
            .reason()
            .unwrap_or("pods in error state");
        (
            TrialOutcome::ErrorState(reason.to_string()),
            oracles::error_checks(instance, t_start),
        )
    } else if !acknowledged(instance) {
        let detail = "operator stalled: declaration never acknowledged";
        (
            TrialOutcome::ErrorState("operator stalled".to_string()),
            error_check(detail.to_string()),
        )
    } else if oracles::operator_rejected(instance, t_start) {
        (TrialOutcome::RejectedByOperator, Vec::new())
    } else if let Health::Degraded(reason) = &instance.last_health {
        let detail = format!("managed system degraded: {reason}");
        (TrialOutcome::Converged, error_check(detail))
    } else {
        (TrialOutcome::Converged, Vec::new())
    }
}

/// A submitted, converged and classified single-instance trial.
pub(crate) struct Judged {
    pub(crate) outcome: TrialOutcome,
    pub(crate) alarms: Vec<Alarm>,
    /// Masked state before the submission.
    pub(crate) pre_state: StateSnapshot,
    /// Masked state after the convergence wait.
    pub(crate) post_state: StateSnapshot,
    /// State-changing operator writes during the convergence wait.
    pub(crate) writes: u64,
}

/// Submits `spec`, waits for convergence and classifies the result. `Err`
/// is the API server's rejection; nothing was submitted. With
/// `boundaries`, the wait records its write-boundary log there for a
/// crash-point sweep to fork from ([`crash_replay`]).
pub(crate) fn submit_and_judge(
    instance: &mut Instance,
    spec: &Value,
    ledger: &mut Ledger,
    boundaries: Option<&mut BoundaryLog>,
) -> Result<Judged, ApiError> {
    let pre_state = masked_snapshot(instance);
    let writes_before = instance.operator_writes();
    let t_start = instance.cluster.now();
    instance.submit(spec.clone())?;
    let converged = instance.converge_logged(CONVERGE_RESET, CONVERGE_MAX, boundaries);
    ledger.convergence_waits += 1;
    let post_state = masked_snapshot(instance);
    let writes = instance.operator_writes() - writes_before;
    let (outcome, alarms) = classify(instance, converged, writes, t_start);
    Ok(Judged {
        outcome,
        alarms,
        pre_state,
        post_state,
        writes,
    })
}

/// A synthetic operation a runner records for something other than a
/// planned step (a fault burst, a crash boundary, a worker panic).
pub(crate) fn synthetic_op(index: usize, scenario: &'static str, value: Value) -> PlannedOp {
    PlannedOp {
        index,
        property: Path::root(),
        scenario,
        value,
        dependency_assignments: Vec::new(),
        expectation: Expectation::NormalTransition,
    }
}

/// A trial record with no rollback, fault events or crash replays.
pub(crate) fn trial(
    op: PlannedOp,
    declaration: Value,
    outcome: TrialOutcome,
    alarms: Vec<Alarm>,
    sim_seconds: u64,
) -> Trial {
    Trial {
        op,
        declaration,
        outcome,
        alarms,
        rollback_recovered: None,
        sim_seconds,
        fault_events: Vec::new(),
        crash_points_swept: 0,
    }
}

/// The error-state start (Figure 4c taken down to the platform layer):
/// fires `faults` against the running system, converges once they clear,
/// and requires the operator to restore the pre-fault state. Returns the
/// `fault-burst` trial, whose alarms are empty exactly when the system
/// recovered; its sim seconds are left for the caller to bill.
pub(crate) fn fault_burst(
    instance: &mut Instance,
    faults: &FaultPlan,
    ledger: &mut Ledger,
) -> Trial {
    let pre_fault = masked_snapshot(instance);
    instance.cluster.install_fault_plan(faults.clone());
    instance.advance(faults.horizon());
    let converged = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
    ledger.convergence_waits += 1;
    let healthy = settled(instance);
    let after = masked_snapshot(instance);
    let alarms = collapse(oracles::recovery_check(
        &pre_fault, &after, healthy, converged,
    ));
    let recovered = alarms.is_empty();
    let outcome = if recovered {
        TrialOutcome::Converged
    } else {
        TrialOutcome::ErrorState("failed to recover from injected faults".to_string())
    };
    let op = synthetic_op(0, "fault-burst", Value::Null);
    Trial {
        rollback_recovered: Some(recovered),
        fault_events: instance.cluster.fault_events(),
        ..trial(op, instance.cr_spec(), outcome, alarms, 0)
    }
}

/// The oracles of a converged transition, in report order: the
/// consistency oracle against the property's value in `last_good`, every
/// custom oracle (details prefixed with the oracle's name), and — with
/// `config.differential` — the differential oracle against a fresh
/// reference run from `base`, served from `ref_cache` when possible. The
/// reference's sim seconds and convergence waits are billed on a hit and
/// a miss alike, so results never depend on cache state.
pub(crate) fn oracle_pass(
    config: &CampaignConfig,
    ctx: &OracleContext<'_>,
    last_good: &Value,
    instance: &Instance,
    base: Option<&InstanceCheckpoint>,
    ref_cache: Option<&FreshRefCache>,
    ledger: &mut Ledger,
) -> Vec<Alarm> {
    let previous = last_good.get_path(&value_path(ctx.property));
    let mut alarms = oracles::consistency_check(ctx, previous);
    for oracle in &config.custom_oracles {
        for mut alarm in oracle.check(ctx, instance) {
            alarm.detail = format!("[{}] {}", oracle.name(), alarm.detail);
            alarms.push(alarm);
        }
    }
    if config.differential {
        let (reference, hit) = fresh_reference(config, ctx.declaration, base, ref_cache);
        if hit {
            ledger.ref_cache_hits += 1;
        } else {
            ledger.ref_cache_misses += 1;
        }
        ledger.bank(reference.sim_seconds);
        ledger.convergence_waits += reference.convergence_waits;
        if let Some(fresh_state) = &reference.state {
            alarms.extend(collapse(oracles::differential_normal(
                ctx.post_state,
                fresh_state,
            )));
        }
    }
    alarms
}

/// The end of one replayed crash boundary.
pub(crate) struct CrashReplay {
    /// The replayed instance after the restarted operator's convergence
    /// wait.
    pub(crate) instance: Instance,
    pub(crate) converged: bool,
    /// Simulated seconds the replay took, counted from the wait's start.
    pub(crate) sim_seconds: u64,
}

/// Replays crash boundary `k` of a recorded convergence wait by forking
/// it: restores `from` (an O(1) copy-on-write restore), arms the operator
/// to crash after the `k`-th state-changing write of the wait and stay
/// down for [`CRASH_DOWN_FOR`], and resumes the wait's own converge loop
/// at `from`'s tick. `from` is the wait's [`BoundaryLog::at_write`]`(k)`
/// entry, so only the tick that makes write `k` and the post-crash tail
/// run; the forked state already holds the submitted declaration.
///
/// The fork is exact, not an approximation of a replay from the wait's
/// start ([`BoundaryLog::start`], which this function also accepts):
/// operators and system models keep no state of their own, the memos a
/// restore clears are derived state whose absence changes nothing, and an
/// armed crash point changes the cluster fingerprint only on ticks that
/// write — so up to write `k` the crashed run and the live one execute the
/// same ticks, and the live wait already ran them.
pub(crate) fn crash_replay(
    operator: &str,
    bugs: &BugToggles,
    from: &WriteBoundary,
    k: u32,
) -> CrashReplay {
    let mut replay =
        Instance::from_checkpoint(operator_by_name(operator), bugs.clone(), from.checkpoint());
    let to_go = u64::from(k) - from.writes_before();
    replay
        .cluster
        .api_mut()
        .arm_operator_crash(to_go as u32, CRASH_DOWN_FOR);
    let converged = replay.resume_converge(from, CONVERGE_RESET, CONVERGE_MAX);
    CrashReplay {
        sim_seconds: replay.cluster.now() - from.wait_start(),
        instance: replay,
        converged,
    }
}

/// Per-run accounting: a delta-based simulated-time meter across cluster
/// replacements, plus convergence waits and differential-reference cache
/// counters.
///
/// Only the simulated seconds elapsed while the run *owned* a cluster
/// count: a fresh deployment is adopted at clock zero (its deployment
/// convergence is billed), a checkpoint-restored cluster at its restore
/// time (the checkpoint's already-billed history is not). Retiring a
/// cluster banks its span, and side clusters (differential references,
/// crash replays) bank theirs. The total is therefore a sum of disjoint
/// deltas — never the absolute clock — which is what keeps resets,
/// rollbacks, and references from double-counting. Spans cut the total
/// into per-trial shares.
#[derive(Default)]
pub(crate) struct Ledger {
    banked: u64,
    adopted_at: u64,
    span_start: u64,
    pub(crate) convergence_waits: usize,
    pub(crate) ref_cache_hits: usize,
    pub(crate) ref_cache_misses: usize,
}

impl Ledger {
    /// Starts metering `instance`; everything it already cost (all of it
    /// when `fresh`) falls before the first span.
    pub(crate) fn new(instance: &Instance, fresh: bool) -> Ledger {
        let mut ledger = Ledger::default();
        ledger.adopt(instance, fresh);
        ledger.span_start = ledger.total(instance);
        ledger
    }

    /// Starts metering a replacement cluster. `fresh` means it was
    /// deployed from nothing, so its whole history is billed to this run.
    pub(crate) fn adopt(&mut self, instance: &Instance, fresh: bool) {
        self.adopted_at = if fresh { 0 } else { instance.cluster.now() };
    }

    /// Banks the span of a cluster about to be replaced.
    pub(crate) fn retire(&mut self, instance: &Instance) {
        self.banked += instance.cluster.now() - self.adopted_at;
    }

    /// Credits simulated seconds spent on a side cluster.
    pub(crate) fn bank(&mut self, sim: u64) {
        self.banked += sim;
    }

    /// Total simulated seconds consumed so far, including the live span
    /// of the current cluster.
    pub(crate) fn total(&self, instance: &Instance) -> u64 {
        self.banked + (instance.cluster.now() - self.adopted_at)
    }

    /// Closes the current span and returns its simulated seconds.
    pub(crate) fn take_span(&mut self, instance: &Instance) -> u64 {
        let total = self.total(instance);
        let sim = total - self.span_start;
        self.span_start = total;
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{apply_op, normalized, plan_campaign};
    use crate::model::Mode;
    use simkube::PlatformBugs;

    /// Replays every boundary `1..=writes` of `log` twice, forked and from
    /// the wait's start, and asserts both end alike: state, health,
    /// convergence, sim seconds and crash transcript. Returns how many
    /// boundaries forked past the start.
    fn assert_forks_match(
        operator: &str,
        bugs: &BugToggles,
        log: &BoundaryLog,
        writes: u64,
        at: &str,
    ) -> usize {
        let mut forked_past_start = 0;
        for k in 1..=writes as u32 {
            let from = log.at_write(k.into());
            forked_past_start += usize::from(!std::ptr::eq(from, log.start()));
            let forked = crash_replay(operator, bugs, from, k);
            let whole = crash_replay(operator, bugs, log.start(), k);
            let at = format!("{at}, write {k}");
            assert_eq!(
                forked.instance.state_snapshot(),
                whole.instance.state_snapshot(),
                "{at}: state"
            );
            assert_eq!(settled(&forked.instance), settled(&whole.instance), "{at}");
            assert_eq!(forked.converged, whole.converged, "{at}: converged");
            assert_eq!(forked.sim_seconds, whole.sim_seconds, "{at}: sim seconds");
            assert_eq!(
                forked.instance.crash_transcript(),
                whole.instance.crash_transcript(),
                "{at}: crash transcript"
            );
        }
        forked_past_start
    }

    /// Forking a boundary at the tick that makes its write is exact: for
    /// every operator, with bugs off and all injected, every boundary of
    /// the first four converged transitions of a chained run ends exactly
    /// where a replay from the wait's start (the one-entry log) ends —
    /// state, health, convergence, sim seconds and crash transcript.
    #[test]
    fn forked_boundary_replays_match_replays_from_the_wait_start() {
        let mut forked_ticks = 0;
        for operator in operators::operator_names() {
            let op = operator_by_name(operator);
            let plan = plan_campaign(
                &op.schema(),
                Some(&op.ir()),
                Mode::Whitebox,
                &op.initial_cr(),
                &op.images(),
                operators::INSTANCE,
            );
            for bugs in [BugToggles::all_fixed(), BugToggles::all_injected()] {
                let mut instance =
                    Instance::deploy(operator_by_name(operator), bugs.clone(), PlatformBugs::none())
                        .expect("deploy");
                let mut ledger = Ledger::new(&instance, true);
                let mut ops = 0;
                for planned in &plan {
                    let mut spec = instance.cr_spec();
                    apply_op(&mut spec, planned);
                    if normalized(&spec) == normalized(&instance.cr_spec()) {
                        continue;
                    }
                    let mut log = BoundaryLog::default();
                    let Ok(judged) =
                        submit_and_judge(&mut instance, &spec, &mut ledger, Some(&mut log))
                    else {
                        continue;
                    };
                    if judged.outcome != TrialOutcome::Converged {
                        continue;
                    }
                    let at = format!("{operator} {}", planned.property);
                    forked_ticks += assert_forks_match(operator, &bugs, &log, judged.writes, &at);
                    ops += 1;
                    if ops == 4 {
                        break;
                    }
                }
            }
        }
        assert!(forked_ticks > 0, "no boundary forked past the wait's start");
    }

    /// A crash point already armed when the wait starts (a fault plan's,
    /// with writes still to go) would be replaced by a replay's own, so
    /// the live wait records nothing past its start and every boundary
    /// replays from there.
    #[test]
    fn a_crash_point_armed_before_the_wait_keeps_every_replay_at_the_start() {
        let bugs = BugToggles::all_fixed();
        let mut instance =
            Instance::deploy(operator_by_name("ZooKeeperOp"), bugs.clone(), PlatformBugs::none())
                .expect("deploy");
        let mut ledger = Ledger::new(&instance, true);
        instance
            .cluster
            .api_mut()
            .arm_operator_crash(2, CRASH_DOWN_FOR);
        let mut spec = instance.cr_spec();
        spec.set_path(&"replicas".parse().expect("path"), Value::from(5));
        let mut log = BoundaryLog::default();
        let judged = submit_and_judge(&mut instance, &spec, &mut ledger, Some(&mut log))
            .expect("accepted");
        assert_eq!(judged.outcome, TrialOutcome::Converged);
        assert_eq!(instance.crash_transcript().len(), 1, "the armed crash fired");
        assert!(judged.writes > 2, "writes after the crash: {}", judged.writes);
        let forked = assert_forks_match("ZooKeeperOp", &bugs, &log, judged.writes, "armed");
        assert_eq!(forked, 0);
    }

    /// The crash detail is the classifier's own `error_checks` finding, so
    /// an alarm a caller raised before classifying (a composition alarm,
    /// say) can never stand in for it.
    #[test]
    fn crash_detail_comes_from_the_classifiers_own_error_checks() {
        let mut instance = Instance::deploy(
            operator_by_name("CockroachOp"),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .expect("deploy");
        let mut ledger = Ledger::new(&instance, true);
        let mut tagless = instance.cr_spec();
        tagless.set_path(&"image".parse().expect("path"), Value::from("cockroach"));
        let judged =
            submit_and_judge(&mut instance, &tagless, &mut ledger, None).expect("accepted");
        let TrialOutcome::OperatorCrash(detail) = &judged.outcome else {
            panic!(
                "a tagless image crashes CockroachOp, got {:?}",
                judged.outcome
            );
        };
        assert!(detail.starts_with("operator panic: "), "{detail}");
        assert_eq!(detail, &judged.alarms[0].detail);
        assert!(error_state(&instance) && !settled(&instance));
        assert_eq!(ledger.convergence_waits, 1);
    }
}
