//! Multi-operator composition campaigns: an ordered set of operators
//! deployed onto one shared simulated cluster, driven by one interleaved
//! plan, and judged by cross-operator oracles.
//!
//! Acto (§3) tests one operator at a time; real clusters run many side by
//! side, and a whole class of bugs — overly broad garbage collection,
//! shared-node starvation, recovery-ordering collateral — only exists in
//! that setting. A composed campaign takes [`CampaignConfig::operators`]
//! with two or more registry names, deploys them into one
//! [`operators::Composition`], and interleaves each member's planned
//! operations round-robin so every trial executes against whatever state
//! the *other* members have accumulated. After every transition the
//! [`crate::oracles::composition_check`] oracle inspects the interference
//! log and every bystander member.
//!
//! The composed runners mirror the single-operator family:
//! [`run_composed_campaign`] is the sequential executor,
//! [`run_composed_work_stealing`] cuts the interleaved plan into fixed
//! segments claimed through [`crate::exec::run_segmented`] with
//! whole-composition checkpoints in a [`SnapshotDepot`], and
//! [`run_composed_fuzz`] explores op-sequence interleavings
//! coverage-guided over snapshot forking. Each runner resolves its member
//! operators once, at run start; past that point building a composition
//! cannot fail.
//! Every composed trial — campaign or fuzz — is judged by the composition
//! oracle over the interference drained from its convergence wait, then by
//! the single-operator outcome classifier (`crate::step`) on the acting
//! member, so a crash, an error state, a stall or a refusal reads the same
//! here as in a single-operator run. Composed runners do not run the
//! consistency, custom, differential or crash-sweep oracles (all are
//! defined against a single instance's masked state); fault plans and
//! crash arming are likewise stripped from composed fuzz inputs — the
//! input space here is the interleaving itself.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crdspec::Value;
use operators::{
    operator_by_name, try_operator_by_name, Composition, CompositionCheckpoint, InterferenceEvent,
    Operator, CONVERGE_MAX, CONVERGE_RESET,
};
use simkube::{ApiError, FaultPlan};

use crate::campaign::{apply_op, collapse, normalized, plan_campaign, CampaignConfig};
use crate::exec::{drive, fold_batch_stats, run_segmented, Driver, Segment, TrialSource};
use crate::fuzz::{
    Candidate, Corpus, CorpusEntry, CoverageFeature, CoverageMap, FuzzConfig, FuzzInput, Guidance,
    GuidedGen,
};
use crate::model::{Mode, PlannedOp, Trial, TrialOutcome};
use crate::oracles;
use crate::parallel::{SnapshotDepot, WorkerStats, DEFAULT_SEGMENT_OPS};
use crate::report::{merge_summaries, summarize, Alarm, CampaignSummary};
use crate::step;

/// One entry of an interleaved composed plan: a planned operation plus the
/// member it targets. `op.index` is the *global* interleaved index.
#[derive(Debug, Clone)]
pub struct ComposedOp {
    /// Member the operation targets (index into
    /// [`CampaignConfig::operators`]).
    pub member: usize,
    /// Registry name of the member's operator.
    pub operator: String,
    /// The planned operation, with its global interleaved index.
    pub op: PlannedOp,
}

/// Builds the interleaved composed plan: each member's campaign is planned
/// independently (exactly as a single-operator run would), then the
/// per-member plans are merged round-robin — member 0's first op, member
/// 1's first op, …, member 0's second op — so consecutive trials alternate
/// actors and every operation lands on state shaped by the others.
///
/// Errors at the configuration boundary: no operators configured, or a
/// name outside the registry (the message lists the valid names).
pub fn plan_composed(config: &CampaignConfig) -> Result<Vec<ComposedOp>, String> {
    if config.operators.is_empty() {
        return Err(format!(
            "composed campaign has no operators; valid operators: {:?}",
            operators::operator_names()
        ));
    }
    let mut per_member: Vec<std::vec::IntoIter<PlannedOp>> = Vec::new();
    for name in &config.operators {
        let op = resolve_operator(name)?;
        per_member.push(
            plan_campaign(
                &op.schema(),
                Some(&op.ir()),
                config.mode,
                &op.initial_cr(),
                &op.images(),
                operators::INSTANCE,
            )
            .into_iter(),
        );
    }
    let mut plan: Vec<ComposedOp> = Vec::new();
    let mut exhausted = false;
    while !exhausted {
        exhausted = true;
        for (member, ops) in per_member.iter_mut().enumerate() {
            if let Some(mut op) = ops.next() {
                exhausted = false;
                op.index = plan.len();
                plan.push(ComposedOp {
                    member,
                    operator: config.operators[member].clone(),
                    op,
                });
            }
        }
    }
    Ok(plan)
}

fn resolve_operator(name: &str) -> Result<Box<dyn Operator>, String> {
    try_operator_by_name(name).ok_or_else(|| {
        format!(
            "unknown operator {name:?}; valid operators: {:?}",
            operators::operator_names()
        )
    })
}

/// Resolves every member against the registry, once per run: a
/// composition built from the returned names cannot fail.
fn resolve_members(names: &[String]) -> Result<Vec<&'static str>, String> {
    names
        .iter()
        .map(|n| resolve_operator(n).map(|op| op.name()))
        .collect()
}

/// Instantiates the members of a resolved composition.
fn members(names: &[&'static str]) -> Vec<Box<dyn Operator>> {
    names.iter().map(|n| operator_by_name(n)).collect()
}

/// Deploys the resolved members onto one fresh shared cluster.
fn deploy_composition(
    config: &CampaignConfig,
    names: &[&'static str],
) -> Result<Composition, String> {
    Composition::deploy_on(
        members(names),
        config.bugs.clone(),
        config.platform,
        config.topology.clone(),
    )
    .map_err(|e| format!("composed deployment failed: {e:?}"))
}

/// One executed composed trial.
#[derive(Debug, Clone)]
pub struct ComposedTrial {
    /// Global interleaved plan index.
    pub index: usize,
    /// Member the trial acted on.
    pub member: usize,
    /// Registry name of the acting member's operator.
    pub operator: String,
    /// The operation, as planned.
    pub op: PlannedOp,
    /// The declaration submitted to the acting member.
    pub declaration: Value,
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Alarms raised (composition oracle plus the shared error ladder).
    pub alarms: Vec<Alarm>,
    /// Whether a rollback after an error state restored health.
    pub rollback_recovered: Option<bool>,
    /// Simulated seconds the trial consumed.
    pub sim_seconds: u64,
    /// Cross-member interference observed during the trial, rendered.
    pub interference: Vec<String>,
}

impl ComposedTrial {
    /// Projects the composed trial onto the single-operator [`Trial`]
    /// shape, for attribution and summary reuse.
    pub fn as_trial(&self) -> Trial {
        Trial {
            op: self.op.clone(),
            declaration: self.declaration.clone(),
            outcome: self.outcome.clone(),
            alarms: self.alarms.clone(),
            rollback_recovered: self.rollback_recovered,
            sim_seconds: self.sim_seconds,
            fault_events: Vec::new(),
            crash_points_swept: 0,
        }
    }
}

/// Attributed findings over composed trials: each member's trials are
/// summarized against *that member's* ground truth, then merged — so a
/// TiDB-seeded alarm raised while RabbitMQ was acting still lands on the
/// TiDB bug.
pub fn summarize_composed(operators: &[String], trials: &[ComposedTrial]) -> CampaignSummary {
    let parts = operators.iter().enumerate().map(|(i, name)| {
        let member_trials: Vec<Trial> = trials
            .iter()
            .filter(|t| t.member == i)
            .map(ComposedTrial::as_trial)
            .collect();
        summarize(name, &member_trials)
    });
    merge_summaries(parts)
}

/// The result of a composed campaign (sequential or one parallel segment).
#[derive(Debug)]
pub struct ComposedResult {
    /// Operators under test, in deployment order.
    pub operators: Vec<String>,
    /// Mode used.
    pub mode: Mode,
    /// Executed trials, in interleaved plan order.
    pub trials: Vec<ComposedTrial>,
    /// Simulated seconds consumed after acquisition (deployment included
    /// only for fresh sequential runs).
    pub sim_seconds: u64,
    /// Convergence waits issued.
    pub convergence_waits: usize,
    /// Total cross-member interference events observed.
    pub interference_events: usize,
    /// Attributed findings over all trials.
    pub summary: CampaignSummary,
    /// Wall-clock time spent planning.
    pub gen_duration: Duration,
}

fn render_composed_trials(out: &mut String, trials: &[ComposedTrial]) {
    use std::fmt::Write;
    for trial in trials {
        let _ = writeln!(
            out,
            "trial #{} member={} operator={} property={} scenario={} outcome={:?} rollback={:?} sim={}",
            trial.index,
            trial.member,
            trial.operator,
            trial.op.property,
            trial.op.scenario,
            trial.outcome,
            trial.rollback_recovered,
            trial.sim_seconds
        );
        let _ = writeln!(
            out,
            "  declaration: {}",
            crdspec::json::to_string(&trial.declaration)
        );
        for line in &trial.interference {
            let _ = writeln!(out, "  interference {line}");
        }
        for alarm in &trial.alarms {
            let _ = writeln!(out, "  alarm {}: {}", alarm.kind.name(), alarm.detail);
        }
    }
}

fn render_detected(out: &mut String, summary: &CampaignSummary) {
    use std::fmt::Write;
    for (bug, kinds) in &summary.detected_bugs {
        let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        let _ = writeln!(out, "detected: {bug} via {}", names.join(","));
    }
}

impl ComposedResult {
    /// Renders everything the run observed, excluding scheduling-dependent
    /// quantities — the determinism check is one string comparison.
    pub fn transcript(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "operators: {}", self.operators.join("+"));
        let _ = writeln!(out, "mode: {}", self.mode.name());
        render_composed_trials(&mut out, &self.trials);
        render_detected(&mut out, &self.summary);
        out
    }
}

/// Runs a full composed campaign sequentially: plans each member once,
/// interleaves, deploys the composition, executes.
pub fn run_composed_campaign(config: &CampaignConfig) -> Result<ComposedResult, String> {
    let gen_start = Instant::now();
    let plan = plan_composed(config)?;
    let gen_duration = gen_start.elapsed();
    let comp = deploy_composition(config, &resolve_members(&config.operators)?)?;
    let window = (0, plan.len());
    Ok(ComposedResult {
        gen_duration,
        ..run_composed_window(config, &plan, comp, window, config.max_ops)
    })
}

/// Reads every member's shadow health (valid while parked: `last_health`
/// is a plain struct field).
fn member_healths(comp: &Composition) -> Vec<managed::Health> {
    comp.members()
        .iter()
        .map(|m| m.last_health.clone())
        .collect()
}

/// A submitted, converged and judged composed trial.
struct ComposedJudged {
    outcome: TrialOutcome,
    /// Composition alarms over the drained interference, then the
    /// classifier's alarms for the acting member.
    alarms: Vec<Alarm>,
    /// Interference recorded while the composition converged.
    drained: Vec<InterferenceEvent>,
    healths_before: Vec<managed::Health>,
    unschedulable_before: BTreeSet<(String, String)>,
}

/// Submits `spec` to member `m`, converges the whole composition and
/// judges the trial: the composition oracle over the interference drained
/// from the wait, then the shared classifier on the acting member. `Err`
/// is the API server's rejection; nothing was submitted.
fn composed_step(
    comp: &mut Composition,
    m: usize,
    spec: &Value,
    convergence_waits: &mut usize,
) -> Result<ComposedJudged, ApiError> {
    let healths_before = member_healths(comp);
    let unschedulable_before = oracles::unschedulable_pods(comp);
    let writes_before = comp.with_member(m, |mm| mm.operator_writes());
    let t_start = comp.now();
    comp.submit(m, spec.clone())?;
    let converged = comp.converge(CONVERGE_RESET, CONVERGE_MAX);
    *convergence_waits += 1;
    let drained = comp.drain_interference();
    let mut alarms = collapse(oracles::composition_check(
        comp,
        &drained,
        m,
        &healths_before,
        &unschedulable_before,
    ));
    let (outcome, verdict) = comp.with_member(m, |mm| {
        step::classify(mm, converged, mm.operator_writes() - writes_before, t_start)
    });
    alarms.extend(verdict);
    Ok(ComposedJudged {
        outcome,
        alarms,
        drained,
        healths_before,
        unschedulable_before,
    })
}

/// The composed campaign body: executes the interleaved plan window
/// `(skip, take)` on `comp`, stopping after `max_trials` trials. A window
/// with `skip > 0` is a work-stealing segment, and `comp` must then hold
/// the canonical prefix state.
fn run_composed_window(
    config: &CampaignConfig,
    plan: &[ComposedOp],
    mut comp: Composition,
    (skip, take): (usize, usize),
    max_trials: Option<usize>,
) -> ComposedResult {
    let n = comp.member_count();
    let t0 = comp.now();
    let mut convergence_waits = 0usize;
    let mut interference_events = 0usize;
    let mut trials: Vec<ComposedTrial> = Vec::new();
    let mut span_start = t0;
    let mut current: Vec<Value> = (0..n)
        .map(|i| comp.with_member(i, |m| m.cr_spec()))
        .collect();
    let mut last_good = current.clone();

    // Deploy-time interference (a seeded GC fires from the very first
    // reconcile) belongs to the campaign as a whole: only the segment that
    // starts at the plan's beginning turns it into a trial; later windows
    // drain and discard so their trials stay window-local and
    // worker-count-agnostic.
    let carried = comp.drain_interference();
    if skip == 0 && !carried.is_empty() {
        let healths = member_healths(&comp);
        let alarms = collapse(oracles::composition_check(
            &comp,
            &carried,
            0,
            &healths,
            &BTreeSet::new(),
        ));
        interference_events += carried.len();
        let unhealthy = comp.members().iter().any(|m| !m.last_health.is_healthy());
        let outcome = if unhealthy {
            TrialOutcome::ErrorState("member unhealthy after composed deploy".to_string())
        } else {
            TrialOutcome::Converged
        };
        let sim = comp.now() - span_start;
        span_start = comp.now();
        trials.push(ComposedTrial {
            index: 0,
            member: 0,
            operator: config.operator().to_string(),
            op: step::synthetic_op(0, "composed-deploy", Value::Null),
            declaration: current[0].clone(),
            outcome,
            alarms,
            rollback_recovered: None,
            sim_seconds: sim,
            interference: carried.iter().map(|e| e.render()).collect(),
        });
    }

    for planned in plan.iter().skip(skip).take(take) {
        if max_trials.is_some_and(|max| trials.len() >= max) {
            break;
        }
        let m = planned.member;
        let mut spec = current[m].clone();
        apply_op(&mut spec, &planned.op);
        if normalized(&spec) == normalized(&current[m]) {
            continue;
        }
        let (outcome, alarms, interference, rollback_recovered) =
            match composed_step(&mut comp, m, &spec, &mut convergence_waits) {
                Err(err) => {
                    let outcome = TrialOutcome::RejectedByApi(err.to_string());
                    (outcome, Vec::new(), comp.drain_interference(), None)
                }
                Ok(judged) if judged.outcome == TrialOutcome::Converged => {
                    current[m] = spec.clone();
                    last_good[m] = spec.clone();
                    (judged.outcome, judged.alarms, judged.drained, None)
                }
                Ok(mut judged) => {
                    // Error or refusal: restore the acting member's last
                    // good declaration so the composition continues from
                    // declared = running. The rollback's own interference
                    // is judged too — a recovery that tramples a sibling is
                    // collateral damage.
                    let rollback_ok = comp.submit(m, last_good[m].clone()).is_ok();
                    let _ = comp.converge(CONVERGE_RESET, CONVERGE_MAX);
                    convergence_waits += 1;
                    current[m] = last_good[m].clone();
                    let rb_drained = comp.drain_interference();
                    judged.alarms.extend(collapse(oracles::composition_check(
                        &comp,
                        &rb_drained,
                        m,
                        &judged.healths_before,
                        &judged.unschedulable_before,
                    )));
                    judged.drained.extend(rb_drained);
                    // Unlike the single-operator rollback, a degraded
                    // member has not recovered: composition judges
                    // `is_healthy()`.
                    let recovered = judged.outcome.is_error().then(|| {
                        rollback_ok
                            && comp.with_member(m, |mm| {
                                mm.last_health.is_healthy() && step::settled(mm)
                            })
                    });
                    (judged.outcome, judged.alarms, judged.drained, recovered)
                }
            };
        interference_events += interference.len();
        let sim = comp.now() - span_start;
        span_start = comp.now();
        trials.push(ComposedTrial {
            index: planned.op.index,
            member: m,
            operator: planned.operator.clone(),
            op: planned.op.clone(),
            declaration: spec,
            outcome,
            alarms,
            rollback_recovered,
            sim_seconds: sim,
            interference: interference.iter().map(|e| e.render()).collect(),
        });
    }

    let summary = summarize_composed(&config.operators, &trials);
    ComposedResult {
        operators: config.operators.clone(),
        mode: config.mode,
        trials,
        sim_seconds: comp.now() - t0,
        convergence_waits,
        interference_events,
        summary,
        gen_duration: Duration::ZERO,
    }
}

/// The result of a parallel composed campaign.
#[derive(Debug)]
pub struct ComposedParallelResult {
    /// Operators under test, in deployment order.
    pub operators: Vec<String>,
    /// Mode used.
    pub mode: Mode,
    /// Worker count used (clamped to the segment count).
    pub workers: usize,
    /// Planned operations per segment.
    pub segment_ops: usize,
    /// Number of segments the interleaved plan was cut into.
    pub segments: usize,
    /// Trials from all segments, in interleaved plan order — identical for
    /// any worker count.
    pub trials: Vec<ComposedTrial>,
    /// Total simulated seconds (base deployment + all segments).
    pub total_sim_seconds: u64,
    /// Simulated seconds spent deploying the shared base composition.
    pub base_sim_seconds: u64,
    /// Wall-clock time spent planning (done once).
    pub gen_duration: Duration,
    /// Real time the run took.
    pub wall: Duration,
    /// Per-worker scheduling statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Prefix snapshots resident in the depot when the run finished.
    pub depot_snapshots: usize,
    /// Objects across resident depot snapshots shared with other snapshots.
    pub depot_shared_objects: usize,
    /// Objects across resident depot snapshots uniquely owned.
    pub depot_owned_objects: usize,
    /// Total cross-member interference events observed.
    pub interference_events: usize,
    /// Attributed findings over all trials.
    pub summary: CampaignSummary,
}

impl ComposedParallelResult {
    /// Renders everything the run observed, excluding scheduling-dependent
    /// quantities; byte-identical for any worker count.
    pub fn transcript(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "operators: {}", self.operators.join("+"));
        let _ = writeln!(out, "mode: {}", self.mode.name());
        let _ = writeln!(
            out,
            "segments: {} x {} ops",
            self.segments, self.segment_ops
        );
        render_composed_trials(&mut out, &self.trials);
        render_detected(&mut out, &self.summary);
        out
    }
}

/// Runs a composed campaign across `workers` threads with work stealing
/// and [`DEFAULT_SEGMENT_OPS`]-operation segments.
pub fn run_composed_work_stealing(
    config: &CampaignConfig,
    workers: usize,
) -> Result<ComposedParallelResult, String> {
    run_composed_work_stealing_with(config, workers, DEFAULT_SEGMENT_OPS, &SnapshotDepot::new())
}

/// Runs a composed campaign across `workers` threads, claiming
/// `segment_ops`-sized slices of the interleaved plan through
/// [`crate::exec::run_segmented`] and reusing whole-composition prefix
/// checkpoints from `depot`.
///
/// Determinism mirrors the single-operator runner: segment `k`'s start
/// state is always the canonical prefix state — restore the
/// deploy-converged base, submit every member's folded jump declaration,
/// converge once — whether served from the depot or rebuilt, so trials and
/// transcripts are byte-identical for every worker count.
pub fn run_composed_work_stealing_with(
    config: &CampaignConfig,
    workers: usize,
    segment_ops: usize,
    depot: &SnapshotDepot<CompositionCheckpoint>,
) -> Result<ComposedParallelResult, String> {
    let start = Instant::now();
    let gen_start = Instant::now();
    let plan = plan_composed(config)?;
    let gen_duration = gen_start.elapsed();
    let names = resolve_members(&config.operators)?;
    let initial_crs: Vec<Value> = members(&names).iter().map(|op| op.initial_cr()).collect();

    let plan_len = config.max_ops.map_or(plan.len(), |max| plan.len().min(max));
    let segment_ops = segment_ops.max(1);

    // Deploy the shared base composition once; every segment start and
    // depot miss restores this snapshot instead of redeploying N systems.
    let mut base_comp = deploy_composition(config, &names)?;
    let base_sim_seconds = base_comp.now();
    let base = Arc::new(base_comp.checkpoint());
    drop(base_comp);

    let driver = ComposedDriver {
        config,
        plan: &plan,
        plan_len,
        names,
        initial_crs,
        base,
        base_sim_seconds,
    };
    let run = run_segmented(&driver, workers, segment_ops, depot, BTreeMap::new(), None);

    let mut trials: Vec<ComposedTrial> = Vec::new();
    let mut interference_events = 0usize;
    for seg in run.outputs {
        interference_events += seg.interference_events;
        trials.extend(seg.trials);
    }
    let summary = summarize_composed(&config.operators, &trials);
    let total_sim_seconds =
        base_sim_seconds + run.worker_stats.iter().map(|s| s.sim_seconds).sum::<u64>();
    Ok(ComposedParallelResult {
        operators: config.operators.clone(),
        mode: config.mode,
        workers: run.workers,
        segment_ops,
        segments: run.segments,
        trials,
        total_sim_seconds,
        base_sim_seconds,
        gen_duration,
        wall: start.elapsed(),
        worker_stats: run.worker_stats,
        depot_snapshots: run.depot_snapshots,
        depot_shared_objects: run.depot_shared_objects,
        depot_owned_objects: run.depot_owned_objects,
        interference_events,
        summary,
    })
}

/// The composed [`Driver`]: whole-composition checkpoints, segments
/// executed as windows of the interleaved plan from canonical prefix
/// states. A panicking composed segment aborts the run instead of being
/// quarantined.
struct ComposedDriver<'a> {
    config: &'a CampaignConfig,
    plan: &'a [ComposedOp],
    plan_len: usize,
    names: Vec<&'static str>,
    initial_crs: Vec<Value>,
    base: Arc<CompositionCheckpoint>,
    base_sim_seconds: u64,
}

impl Driver for ComposedDriver<'_> {
    type Checkpoint = CompositionCheckpoint;
    type SegmentOut = ComposedResult;

    fn plan_len(&self) -> usize {
        self.plan_len
    }

    fn deploy_base(&self) -> (Arc<CompositionCheckpoint>, u64) {
        (Arc::clone(&self.base), self.base_sim_seconds)
    }

    /// Restores the base composition, submits each member's jump
    /// declaration (the fold of that member's operations within
    /// `plan[..skip]` over its initial CR), converges the whole
    /// composition once, and checkpoints.
    fn build_prefix(
        &self,
        base: &CompositionCheckpoint,
        skip: usize,
        my: &mut WorkerStats,
    ) -> CompositionCheckpoint {
        let mut comp = Composition::from_checkpoint(members(&self.names), &self.config.bugs, base);
        let t0 = comp.now();
        let mut changed = false;
        for (member, initial) in self.initial_crs.iter().enumerate() {
            let mut jump = initial.clone();
            for c in self.plan.iter().take(skip).filter(|c| c.member == member) {
                apply_op(&mut jump, &c.op);
            }
            let current = comp.with_member(member, |m| m.cr_spec());
            if normalized(&jump) != normalized(&current) && comp.submit(member, jump).is_ok() {
                changed = true;
            }
        }
        if changed {
            let _ = comp.converge(CONVERGE_RESET, CONVERGE_MAX);
            my.convergence_waits += 1;
        }
        // Prefix-building interference is not window-local: discard it so
        // the checkpoint matches the state a depot hit would serve.
        let _ = comp.drain_interference();
        my.sim_seconds += comp.now() - t0;
        comp.checkpoint()
    }

    fn run_segment(
        &self,
        seg: Segment,
        _base: &CompositionCheckpoint,
        start: &CompositionCheckpoint,
        my: &mut WorkerStats,
    ) -> ComposedResult {
        let comp = Composition::from_checkpoint(members(&self.names), &self.config.bugs, start);
        let result = run_composed_window(self.config, self.plan, comp, (seg.skip, seg.take), None);
        my.sim_seconds += result.sim_seconds;
        my.convergence_waits += result.convergence_waits;
        result
    }

    fn quarantined(&self, _seg: Segment, _panic: &str) -> ComposedResult {
        unreachable!("composed segments are never quarantined")
    }

    fn quarantines(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Composed fuzzing
// ---------------------------------------------------------------------------

/// Hash of the whole composition's structural observable state: every
/// object in the shared store except the members' own CR objects, status
/// sections only, XOR-mixed with the shared cluster's quiescence
/// fingerprint — the composed analogue of the single-instance observable
/// hash, on the same memoized per-object digests
/// ([`crate::fuzz::entry_digest`]), so recomputing it costs O(changed).
fn composed_observable_hash(comp: &mut Composition, cr_ids: &[String]) -> u64 {
    let store_digest = comp.with_member(0, |m| {
        let store = m.cluster.api().store();
        let mut h = store.digest_sum(&crate::fuzz::entry_digest);
        // Each member's CR entry subtracts back out of the commutative sum.
        for cr_id in cr_ids {
            let mut parts = cr_id.splitn(3, '/');
            let (Some(kind), Some(ns), Some(name)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let key = simkube::ObjKey::new(simkube::Kind::Custom(kind.to_string()), ns, name);
            if let Some(obj) = store.get_shared(&key) {
                h = h.wrapping_sub(crate::fuzz::entry_digest(&key, obj));
            }
        }
        h
    });
    store_digest ^ comp.cluster().quiescence_fingerprint().coverage_hash()
}

fn composition_cr_ids(comp: &Composition) -> Vec<String> {
    comp.members().iter().map(step::cr_id).collect()
}

/// One executed composed fuzz input.
#[derive(Debug, Clone)]
pub struct ComposedExecRecord {
    /// Global execution index.
    pub index: usize,
    /// The input that ran (faults and crash always empty — composed fuzz
    /// explores interleavings only).
    pub input: FuzzInput,
    /// How the input was produced.
    pub mutation: String,
    /// Corpus id of the parent, if mutated.
    pub parent: Option<usize>,
    /// Trials the execution produced, in order.
    pub trials: Vec<ComposedTrial>,
    /// Features this execution observed first.
    pub novel: Vec<CoverageFeature>,
    /// Simulated seconds the execution consumed.
    pub sim_seconds: u64,
}

/// The result of a composed fuzzing campaign.
#[derive(Debug)]
pub struct ComposedFuzzResult {
    /// Operators under test, in deployment order.
    pub operators: Vec<String>,
    /// Mode used.
    pub mode: Mode,
    /// Master seed of the run.
    pub seed: u64,
    /// Executions performed.
    pub execs: usize,
    /// Merge rounds performed.
    pub rounds: usize,
    /// Final coverage map.
    pub coverage: CoverageMap,
    /// Final corpus.
    pub corpus: Corpus,
    /// Every execution, in order.
    pub records: Vec<ComposedExecRecord>,
    /// Attributed findings over all trials.
    pub summary: CampaignSummary,
    /// Total simulated seconds (base deployment + all executions).
    pub total_sim_seconds: u64,
    /// Simulated seconds spent deploying the shared base composition.
    pub base_sim_seconds: u64,
    /// Per-worker scheduling statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Real time the run took.
    pub wall: Duration,
}

impl ComposedFuzzResult {
    /// Renders everything the run observed, excluding scheduling-dependent
    /// quantities; byte-identical for any worker count.
    pub fn transcript(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "operators: {}", self.operators.join("+"));
        let _ = writeln!(out, "mode: {}", self.mode.name());
        let _ = writeln!(out, "seed: {:#x}", self.seed);
        let _ = writeln!(out, "execs: {} in {} rounds", self.execs, self.rounds);
        for record in &self.records {
            let _ = writeln!(
                out,
                "exec #{} via {} (parent {:?}) input={}",
                record.index,
                record.mutation,
                record.parent,
                record.input.key()
            );
            render_composed_trials(&mut out, &record.trials);
            for f in &record.novel {
                let _ = writeln!(out, "  novel {}", f.render());
            }
        }
        for entry in &self.corpus.entries {
            let _ = writeln!(
                out,
                "corpus #{} parent={:?} via {} at exec {}: {}",
                entry.id,
                entry.parent,
                entry.mutation,
                entry.exec,
                entry.input.key()
            );
        }
        let _ = writeln!(out, "coverage ({} features):", self.coverage.len());
        out.push_str(&self.coverage.digest());
        render_detected(&mut out, &self.summary);
        out
    }
}

struct ComposedExec {
    trials: Vec<ComposedTrial>,
    features: Vec<CoverageFeature>,
    sim_seconds: u64,
}

/// Executes one composed op-index sequence from the shared base
/// checkpoint. A pure function of its arguments.
fn execute_composed_sequence(
    config: &CampaignConfig,
    names: &[&'static str],
    plan: &[ComposedOp],
    base: &CompositionCheckpoint,
    ops: &[usize],
    my: &mut WorkerStats,
) -> ComposedExec {
    let mut comp = Composition::from_checkpoint(members(names), &config.bugs, base);
    my.depot_hits += 1;
    let (shared, owned) = base.sharing_stats();
    my.restored_objects_shared += shared;
    my.restored_objects_owned += owned;
    let t0 = comp.now();
    // Deploy-time interference is part of the base state, identical for
    // every execution: drain it so per-op scoping starts clean.
    let _ = comp.drain_interference();
    let n = comp.member_count();
    let cr_ids = composition_cr_ids(&comp);
    let mut current: Vec<Value> = (0..n)
        .map(|i| comp.with_member(i, |m| m.cr_spec()))
        .collect();
    let mut trials: Vec<ComposedTrial> = Vec::new();
    let mut features: Vec<CoverageFeature> = Vec::new();
    let mut prev_hash = composed_observable_hash(&mut comp, &cr_ids);
    let mut span_start = t0;

    for &op_index in ops {
        if plan.is_empty() {
            break;
        }
        let planned = &plan[op_index % plan.len()];
        let m = planned.member;
        let mut spec = current[m].clone();
        apply_op(&mut spec, &planned.op);
        if normalized(&spec) == normalized(&current[m]) {
            continue;
        }
        let (outcome, alarms, interference) =
            match composed_step(&mut comp, m, &spec, &mut my.convergence_waits) {
                Err(err) => {
                    let outcome = TrialOutcome::RejectedByApi(err.to_string());
                    features.push(CoverageFeature::Outcome(outcome.class_name()));
                    (outcome, Vec::new(), Vec::new())
                }
                Ok(judged) => {
                    current[m] = spec.clone();
                    features.push(CoverageFeature::Outcome(judged.outcome.class_name()));
                    for alarm in &judged.alarms {
                        features.push(CoverageFeature::Alarm(alarm.kind.name()));
                    }
                    let h = composed_observable_hash(&mut comp, &cr_ids);
                    features.push(CoverageFeature::State(h));
                    features.push(CoverageFeature::Edge(prev_hash, h));
                    prev_hash = h;
                    let rendered = judged.drained.iter().map(|e| e.render()).collect();
                    (judged.outcome, judged.alarms, rendered)
                }
            };
        let sim = comp.now() - span_start;
        span_start = comp.now();
        trials.push(ComposedTrial {
            index: trials.len(),
            member: m,
            operator: planned.operator.clone(),
            op: PlannedOp {
                index: trials.len(),
                ..planned.op.clone()
            },
            declaration: spec,
            outcome,
            alarms,
            rollback_recovered: None,
            sim_seconds: sim,
            interference,
        });
    }

    // Final settle: quiesce once more so the end state is taken at rest.
    let _ = comp.converge(CONVERGE_RESET, CONVERGE_MAX);
    my.convergence_waits += 1;
    let h = composed_observable_hash(&mut comp, &cr_ids);
    if h != prev_hash {
        features.push(CoverageFeature::State(h));
        features.push(CoverageFeature::Edge(prev_hash, h));
    }
    let sim_seconds = comp.now() - t0;
    my.sim_seconds += sim_seconds;
    ComposedExec {
        trials,
        features,
        sim_seconds,
    }
}

/// Runs a coverage-guided fuzzing campaign over a composition: the input
/// space is op-index sequences into the *interleaved* composed plan, so a
/// mutated sequence reorders which member acts when — the territory being
/// explored is the interleaving itself. Fault plans and crash arming are
/// stripped from every generated input (both are single-instance
/// machinery); generation otherwise reuses the single-operator mutators.
pub fn run_composed_fuzz(cfg: &FuzzConfig) -> Result<ComposedFuzzResult, String> {
    let start = Instant::now();
    let config = &cfg.campaign;
    let plan = plan_composed(config)?;
    if plan.is_empty() {
        return Err(
            "composed fuzz operation pool is empty: planning produced no operations".to_string(),
        );
    }
    let names = resolve_members(&config.operators)?;
    let mut base_comp = deploy_composition(config, &names)?;
    let base_sim_seconds = base_comp.now();
    let base = base_comp.checkpoint();
    drop(base_comp);

    let mut source = ComposedFuzzSource {
        cfg,
        gen: GuidedGen::new(cfg.seed, plan.len()),
        coverage: CoverageMap::new(),
        corpus: Corpus {
            operator: config.operators_label(),
            entries: Vec::new(),
        },
        records: Vec::new(),
        worker_stats: (0..cfg.workers.max(1)).map(WorkerStats::new).collect(),
        executed: 0,
        rounds: 0,
    };
    drive(&mut source, cfg.workers.max(1), |_, cand: &Candidate, my| {
        execute_composed_sequence(config, &names, &plan, &base, &cand.input.ops, my)
    });

    let all_trials: Vec<ComposedTrial> = source
        .records
        .iter()
        .flat_map(|r| r.trials.iter().cloned())
        .collect();
    let summary = summarize_composed(&config.operators, &all_trials);
    let total_sim_seconds =
        base_sim_seconds + source.worker_stats.iter().map(|s| s.sim_seconds).sum::<u64>();
    Ok(ComposedFuzzResult {
        operators: config.operators.clone(),
        mode: config.mode,
        seed: cfg.seed,
        execs: source.executed,
        rounds: source.rounds,
        coverage: source.coverage,
        corpus: source.corpus,
        records: source.records,
        summary,
        total_sim_seconds,
        base_sim_seconds,
        worker_stats: source.worker_stats,
        wall: start.elapsed(),
    })
}

/// The composed fuzz loop as a [`TrialSource`]: always coverage-guided,
/// with fault plans and crash arming stripped from every generated input
/// (both are single-instance machinery — the territory being explored is
/// the interleaving itself).
struct ComposedFuzzSource<'a> {
    cfg: &'a FuzzConfig,
    gen: GuidedGen,
    coverage: CoverageMap,
    corpus: Corpus,
    records: Vec<ComposedExecRecord>,
    worker_stats: Vec<WorkerStats>,
    executed: usize,
    rounds: usize,
}

impl TrialSource for ComposedFuzzSource<'_> {
    type Input = Candidate;
    type Output = ComposedExec;

    fn next_batch(&mut self) -> Vec<Candidate> {
        if self.executed >= self.cfg.execs {
            return Vec::new();
        }
        let batch_n = self.cfg.batch.max(1).min(self.cfg.execs - self.executed);
        self.gen.draw_batch(
            self.cfg,
            Guidance::Coverage,
            &self.corpus,
            batch_n,
            &|input: &mut FuzzInput| {
                // Interleaving-only input space: strip single-instance
                // machinery the generators may have attached.
                input.faults = FaultPlan::default();
                input.crash = None;
            },
        )
    }

    fn absorb(
        &mut self,
        batch: Vec<Candidate>,
        outputs: Vec<ComposedExec>,
        stats: Vec<WorkerStats>,
    ) {
        fold_batch_stats(&mut self.worker_stats, stats);
        let n = batch.len();
        for (cand, exec) in batch.into_iter().zip(outputs) {
            let index = self.records.len();
            let novel = self.coverage.observe_all(&exec.features);
            if !novel.is_empty() {
                self.corpus.entries.push(CorpusEntry {
                    id: self.corpus.entries.len(),
                    parent: cand.parent,
                    mutation: cand.mutation.to_string(),
                    exec: index,
                    input: cand.input.clone(),
                    new_features: novel.iter().map(CoverageFeature::render).collect(),
                });
            }
            self.records.push(ComposedExecRecord {
                index,
                input: cand.input,
                mutation: cand.mutation.to_string(),
                parent: cand.parent,
                trials: exec.trials,
                novel,
                sim_seconds: exec.sim_seconds,
            });
        }
        self.executed += n;
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_alternates_members_and_indexes_globally() {
        let config = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
        let plan = plan_composed(&config).expect("plans");
        assert!(!plan.is_empty());
        for (i, c) in plan.iter().enumerate() {
            assert_eq!(c.op.index, i, "global index must be the plan position");
        }
        // Both members appear, and the head alternates strictly while both
        // pools have ops left.
        assert_eq!(plan[0].member, 0);
        assert_eq!(plan[1].member, 1);
        assert_eq!(plan[2].member, 0);
        assert!(plan.iter().any(|c| c.member == 1));
        assert_eq!(plan[0].operator, "ZooKeeperOp");
        assert_eq!(plan[1].operator, "RabbitMQOp");
    }

    #[test]
    fn unknown_member_is_a_config_error() {
        let config = CampaignConfig::composed(&["ZooKeeperOp", "NoSuchOp"], Mode::Whitebox);
        let err = plan_composed(&config).unwrap_err();
        assert!(
            err.contains("NoSuchOp"),
            "error names the bad member: {err}"
        );
        assert!(
            err.contains("ZooKeeperOp"),
            "error lists valid names: {err}"
        );
    }

    #[test]
    fn composed_campaign_runs_clean_with_bugs_off() {
        let mut config = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
        config.max_ops = Some(6);
        let result = run_composed_campaign(&config).expect("runs");
        assert!(!result.trials.is_empty());
        assert_eq!(result.operators, vec!["ZooKeeperOp", "RabbitMQOp"]);
        assert!(
            result.trials.iter().all(|t| t.alarms.is_empty()),
            "bugs-off composed run must stay silent: {:?}",
            result
                .trials
                .iter()
                .flat_map(|t| &t.alarms)
                .collect::<Vec<_>>()
        );
        // Both members acted.
        assert!(result.trials.iter().any(|t| t.member == 0));
        assert!(result.trials.iter().any(|t| t.member == 1));
    }
}
