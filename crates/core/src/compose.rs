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
//! The runners ride the single-operator plumbing and supply only what is
//! composed: [`run_composed_work_stealing_with`] is a [`Driver`] whose
//! segments are windows of the interleaved plan started from
//! whole-composition checkpoints in a [`SnapshotDepot`], and
//! [`run_composed_campaign`] is its one-worker, one-segment case.
//! [`run_composed_fuzz`] is an executor for the one fuzz loop
//! ([`crate::fuzz`]) that explores op-sequence interleavings over snapshot
//! forking. Results, reports, segment quarantine and coverage features are
//! the single-operator ones over [`ComposedTrial`]
//! ([`ComposedParallelResult`] and [`ComposedFuzzResult`] are aliases).
//! Each runner resolves its member operators once, at run start; past that
//! point building a composition cannot fail.
//! Every composed trial — campaign or fuzz — is judged by the composition
//! oracle over the interference drained from its convergence wait, then by
//! the single-operator outcome classifier (`crate::step`) on the acting
//! member, so a crash, an error state, a stall or a refusal reads the same
//! here as in a single-operator run. Composed runners do not run the
//! consistency, custom, differential or crash-sweep oracles (all are
//! defined against a single instance's masked state), so
//! [`plan_composed`] refuses a configuration that asks for them or for a
//! fault plan; fault plans and crash arming are likewise stripped from
//! composed fuzz inputs — the input space here is the interleaving itself.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use crdspec::Value;
use operators::{
    operator_by_name, Composition, CompositionCheckpoint, Instance, InterferenceEvent, Operator,
    CONVERGE_MAX, CONVERGE_RESET,
};
use simkube::{ApiError, FaultPlan, ObjKey};

use crate::campaign::{
    apply_op, capped_len, collapse, normalized, plan_operator, resolve_operator, CampaignConfig,
};
use crate::exec::{run_segmented, Driver, Segment, TrialRecord};
use crate::fuzz::{
    observable_hash, Candidate, ExecRecord, FeatureRecorder, FuzzConfig, FuzzExec, FuzzInput,
    FuzzResult, FuzzSource, Guidance,
};
use crate::model::{PlannedOp, Trial, TrialOutcome};
use crate::oracles;
use crate::parallel::{declaration_after_prefix, ParallelResult, SnapshotDepot, WorkerStats};
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
/// Errors at the configuration boundary: no operators configured, a name
/// outside the registry (the message lists the valid names), or a
/// single-instance setting a composed run cannot honour (`faults`,
/// `custom_oracles`, `crash_sweep`, `differential`; the message names the
/// field). Every composed runner plans here first.
pub fn plan_composed(config: &CampaignConfig) -> Result<Vec<ComposedOp>, String> {
    if config.operators.is_empty() {
        return Err(format!(
            "composed campaign has no operators; valid operators: {:?}",
            operators::operator_names()
        ));
    }
    for (field, set) in [
        ("faults", !config.faults.is_empty()),
        ("custom_oracles", !config.custom_oracles.is_empty()),
        ("crash_sweep", config.crash_sweep),
        ("differential", config.differential),
    ] {
        if set {
            return Err(format!(
                "composed campaigns do not support `{field}`: it is defined against a single \
                 instance's state; leave it unset"
            ));
        }
    }
    let mut per_member: Vec<std::vec::IntoIter<PlannedOp>> = Vec::new();
    for name in &config.operators {
        let op = resolve_operator(name)?;
        per_member.push(plan_operator(&*op, config.mode).into_iter());
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

/// One executed composed trial: the single-operator [`Trial`] the acting
/// member ran, plus who acted and what interference it caused.
#[derive(Debug, Clone)]
pub struct ComposedTrial {
    /// The trial; its `op.index` is the global interleaved plan index.
    /// Composed trials record no fault events or crash replays.
    pub trial: Trial,
    /// Member the trial acted on.
    pub member: usize,
    /// Registry name of the acting member's operator.
    pub operator: String,
    /// Cross-member interference observed during the trial, rendered.
    pub interference: Vec<String>,
}

/// Attributed findings over composed trials: each member's trials are
/// summarized against *that member's* ground truth, then merged — so a
/// TiDB-seeded alarm raised while RabbitMQ was acting still lands on the
/// TiDB bug.
pub fn summarize_composed<'a>(
    operators: &[String],
    trials: impl IntoIterator<Item = &'a ComposedTrial>,
) -> CampaignSummary {
    let trials: Vec<&ComposedTrial> = trials.into_iter().collect();
    let parts = operators.iter().enumerate().map(|(i, name)| {
        let member_trials = trials.iter().filter(|t| t.member == i);
        summarize(name, member_trials.map(|t| &t.trial))
    });
    merge_summaries(parts)
}

impl TrialRecord for ComposedTrial {
    const TARGET_KEY: &'static str = "operators";

    fn target(config: &CampaignConfig) -> String {
        config.operators_label()
    }

    fn summarize<'a>(
        config: &CampaignConfig,
        trials: impl IntoIterator<Item = &'a ComposedTrial>,
    ) -> CampaignSummary {
        summarize_composed(&config.operators, trials)
    }

    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let t = &self.trial;
        let _ = writeln!(
            out,
            "trial #{} member={} operator={} property={} scenario={} outcome={:?} rollback={:?} sim={}",
            t.op.index,
            self.member,
            self.operator,
            t.op.property,
            t.op.scenario,
            t.outcome,
            t.rollback_recovered,
            t.sim_seconds
        );
        let _ = writeln!(
            out,
            "  declaration: {}",
            crdspec::json::to_string(&t.declaration)
        );
        for line in &self.interference {
            let _ = writeln!(out, "  interference {line}");
        }
        for alarm in &t.alarms {
            let _ = writeln!(out, "  alarm {}: {}", alarm.kind.name(), alarm.detail);
        }
    }

    /// The single-operator placeholder, charged to the first member.
    fn worker_panic(config: &CampaignConfig, seg: Segment, panic: &str) -> ComposedTrial {
        ComposedTrial {
            trial: Trial::worker_panic(config, seg, panic),
            member: 0,
            operator: config.operator().to_string(),
            interference: Vec::new(),
        }
    }
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
/// `(skip, take)` on `comp`. A window with `skip > 0` is a work-stealing
/// segment, and `comp` must then hold the canonical prefix state. Returns
/// the trials and the tally of the window's counters, for a worker to fold
/// in.
fn run_composed_window(
    config: &CampaignConfig,
    plan: &[ComposedOp],
    mut comp: Composition,
    (skip, take): (usize, usize),
) -> (Vec<ComposedTrial>, WorkerStats) {
    let n = comp.member_count();
    let t0 = comp.now();
    let mut tally = WorkerStats::new(0);
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
        let unhealthy = comp.members().iter().any(|m| !m.last_health.is_healthy());
        let outcome = if unhealthy {
            TrialOutcome::ErrorState("member unhealthy after composed deploy".to_string())
        } else {
            TrialOutcome::Converged
        };
        let sim = comp.now() - span_start;
        span_start = comp.now();
        let op = step::synthetic_op(0, "composed-deploy", Value::Null);
        trials.push(ComposedTrial {
            trial: step::trial(op, current[0].clone(), outcome, alarms, sim),
            member: 0,
            operator: config.operator().to_string(),
            interference: carried.iter().map(|e| e.render()).collect(),
        });
    }

    for planned in plan.iter().skip(skip).take(take) {
        let m = planned.member;
        let mut spec = current[m].clone();
        apply_op(&mut spec, &planned.op);
        if normalized(&spec) == normalized(&current[m]) {
            continue;
        }
        let (outcome, alarms, interference, rollback_recovered) =
            match composed_step(&mut comp, m, &spec, &mut tally.convergence_waits) {
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
                    tally.convergence_waits += 1;
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
        let sim = comp.now() - span_start;
        span_start = comp.now();
        trials.push(ComposedTrial {
            trial: Trial {
                rollback_recovered,
                ..step::trial(planned.op.clone(), spec, outcome, alarms, sim)
            },
            member: m,
            operator: planned.operator.clone(),
            interference: interference.iter().map(|e| e.render()).collect(),
        });
    }

    tally.sim_seconds = comp.now() - t0;
    (trials, tally)
}

/// The result of a parallel composed campaign: the single-operator
/// [`ParallelResult`] carrying composed trials.
pub type ComposedParallelResult = ParallelResult<ComposedTrial>;

/// Runs a full composed campaign sequentially: the one-worker,
/// one-segment case of [`run_composed_work_stealing_with`], so the segment
/// spans the whole plan (cut to [`CampaignConfig::max_ops`] ops) and
/// starts from the deploy-converged base.
pub fn run_composed_campaign(config: &CampaignConfig) -> Result<ComposedParallelResult, String> {
    run_composed(config, 1, None, &SnapshotDepot::new())
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
    run_composed(config, workers, Some(segment_ops), depot)
}

/// The composed runners' one body; `segment_ops: None` cuts the capped
/// plan into a single segment.
fn run_composed(
    config: &CampaignConfig,
    workers: usize,
    segment_ops: Option<usize>,
    depot: &SnapshotDepot<CompositionCheckpoint>,
) -> Result<ComposedParallelResult, String> {
    let start = Instant::now();
    let plan = plan_composed(config)?;
    let gen_duration = start.elapsed();
    let names = resolve_members(&config.operators)?;
    let initial_crs: Vec<Value> = members(&names).iter().map(|op| op.initial_cr()).collect();

    let plan_len = capped_len(config, plan.len());
    let segment_ops = segment_ops.unwrap_or(plan_len);

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
    Ok(ParallelResult {
        gen_duration,
        wall: start.elapsed(),
        ..run
    })
}

/// The composed [`Driver`]: whole-composition checkpoints, segments
/// executed as windows of the interleaved plan from canonical prefix
/// states.
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
    type Trial = ComposedTrial;

    fn config(&self) -> &CampaignConfig {
        self.config
    }

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
            let ops = self.plan[..skip].iter().filter(|c| c.member == member);
            let jump = declaration_after_prefix(initial, ops.map(|c| &c.op));
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
    ) -> Vec<ComposedTrial> {
        let comp = Composition::from_checkpoint(members(&self.names), &self.config.bugs, start);
        let (trials, tally) =
            run_composed_window(self.config, self.plan, comp, (seg.skip, seg.take));
        *my += &tally;
        trials
    }
}

// ---------------------------------------------------------------------------
// Composed fuzzing
// ---------------------------------------------------------------------------

/// One executed composed fuzz input.
pub type ComposedExecRecord = ExecRecord<ComposedTrial>;

/// The result of a composed fuzzing campaign: the single-operator
/// [`FuzzResult`] carrying composed trials.
pub type ComposedFuzzResult = FuzzResult<ComposedTrial>;

/// Executes one composed op-index sequence from the shared base
/// checkpoint. A pure function of its arguments.
fn execute_composed_sequence(
    config: &CampaignConfig,
    names: &[&'static str],
    plan: &[ComposedOp],
    base: &CompositionCheckpoint,
    ops: &[usize],
    my: &mut WorkerStats,
) -> FuzzExec<ComposedTrial> {
    let mut comp = Composition::from_checkpoint(members(names), &config.bugs, base);
    my.restored(base, true);
    let t0 = comp.now();
    // Deploy-time interference is part of the base state, identical for
    // every execution: drain it so per-op scoping starts clean.
    let _ = comp.drain_interference();
    let n = comp.member_count();
    let crs: Vec<ObjKey> = comp.members().iter().map(Instance::cr_key).collect();
    let mut current: Vec<Value> = (0..n)
        .map(|i| comp.with_member(i, |m| m.cr_spec()))
        .collect();
    let mut trials: Vec<ComposedTrial> = Vec::new();
    let mut features = FeatureRecorder::new(observable_hash(comp.cluster(), &crs));
    let mut span_start = t0;

    // `plan` is never empty: the run refuses an empty interleaved plan.
    for &op_index in ops {
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
                    features.rejected(&outcome);
                    (outcome, Vec::new(), Vec::new())
                }
                Ok(judged) => {
                    current[m] = spec.clone();
                    let h = observable_hash(comp.cluster(), &crs);
                    features.trial(&judged.outcome, &judged.alarms, h);
                    let rendered = judged.drained.iter().map(|e| e.render()).collect();
                    (judged.outcome, judged.alarms, rendered)
                }
            };
        let sim = comp.now() - span_start;
        span_start = comp.now();
        let op = PlannedOp {
            index: trials.len(),
            ..planned.op.clone()
        };
        trials.push(ComposedTrial {
            trial: step::trial(op, spec, outcome, alarms, sim),
            member: m,
            operator: planned.operator.clone(),
            interference,
        });
    }

    // Final settle: quiesce once more so the end state is taken at rest.
    let _ = comp.converge(CONVERGE_RESET, CONVERGE_MAX);
    my.convergence_waits += 1;
    features.settle(observable_hash(comp.cluster(), &crs));
    let sim_seconds = comp.now() - t0;
    my.sim_seconds += sim_seconds;
    FuzzExec {
        trials,
        features: features.features,
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

    let source = FuzzSource::new(cfg, Guidance::Coverage, plan.len(), interleaving_only);
    Ok(source.run(
        |cand: &Candidate, my| {
            execute_composed_sequence(config, &names, &plan, &base, &cand.input.ops, my)
        },
        base_sim_seconds,
        start,
    ))
}

/// The composed fuzzer's input sanitizer: fault plans and crash arming
/// are single-instance machinery, so they are stripped from every drawn
/// input — the territory being explored is the interleaving itself.
fn interleaving_only(input: &mut FuzzInput) {
    input.faults = FaultPlan::default();
    input.crash = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mode;

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
        assert_eq!(result.operator, "ZooKeeperOp+RabbitMQOp");
        assert_eq!((result.workers, result.segments), (1, 1));
        assert!(
            result.trials.iter().all(|t| t.trial.alarms.is_empty()),
            "bugs-off composed run must stay silent: {:?}",
            result
                .trials
                .iter()
                .flat_map(|t| &t.trial.alarms)
                .collect::<Vec<_>>()
        );
        // Both members acted.
        assert!(result.trials.iter().any(|t| t.member == 0));
        assert!(result.trials.iter().any(|t| t.member == 1));
    }
}
