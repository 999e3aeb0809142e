//! Campaign planning and execution (paper §5.1, §5.5, Figure 4).
//!
//! A campaign visits every property of the operation interface at least
//! once (100% property coverage), generating semantics-driven scenarios per
//! property and chaining them: the end state of each operation is the next
//! operation's start state. Operations probing misoperations drive the
//! system into error states, after which the campaign tests rollback — the
//! error-state-recovery strategy of Figure 4c. When a rollback fails (a
//! recovery-failure bug) or the operator crashes, the campaign resets onto
//! a fresh cluster at the last good declaration and continues.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crdspec::{Path, Schema, SchemaKind, Value};
use opdsl::IrModule;
use operators::bugs::BugToggles;
use operators::{
    operator_by_name, BoundaryLog, Instance, InstanceCheckpoint, CONVERGE_MAX, CONVERGE_RESET,
};
use simkube::PlatformBugs;

use crate::deps::{infer_dependencies, satisfy};
use crate::exec::{run_segmented, Driver, Memo, SnapshotDepot, TrialRecord, WorkerStats};
use crate::gen::{mutate, scenarios_for, GenContext};
use crate::model::{Expectation, Mode, PlannedOp, Trial, TrialOutcome};
use crate::oracles::{
    self, differential_rollback, masked_snapshot, transition_occurred, AlarmKind, OracleContext,
};
use crate::parallel::CampaignDriver;
use crate::report::{render_detected, Alarm, CampaignSummary};
use crate::step::{self, Judged, Ledger};

/// Campaign configuration.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Operators under test (registry names), in deployment order. A
    /// single-element vector is the classic single-operator campaign; two
    /// or more compose onto one shared cluster ([`crate::compose`]).
    pub operators: Vec<String>,
    /// Blackbox or whitebox mode.
    pub mode: Mode,
    /// Injected-bug toggles.
    pub bugs: BugToggles,
    /// Platform-bug configuration.
    pub platform: PlatformBugs,
    /// Caps the *planned operations* a campaign runs (`None` = full
    /// coverage): every runner cuts the plan to its first `max_ops` ops
    /// before any of them executes. A planned op that changes nothing
    /// still counts; a trial recorded before the plan (the fault burst, a
    /// composed run's deploy-interference trial) does not.
    pub max_ops: Option<usize>,
    /// Run the (expensive) differential oracle for normal transitions.
    pub differential: bool,
    /// The test-exploration strategy (Figure 4).
    pub strategy: Strategy,
    /// User-provided domain-specific oracles, run on every converged trial
    /// after the built-in ones.
    pub custom_oracles: Vec<std::sync::Arc<dyn crate::oracles::CustomOracle>>,
    /// Faults injected against the freshly deployed system before the plan
    /// runs (an error-state campaign start). Empty = no injection.
    pub faults: simkube::FaultPlan,
    /// Crash-point sweep: after every converged transition, replay it from
    /// an O(1) restored checkpoint crashing the operator at each write
    /// boundary `k ∈ 1..=W` (where `W` is the uninterrupted run's write
    /// count) and require reconvergence to the reference end state.
    pub crash_sweep: bool,
    /// Generated node topology for the campaign cluster (`None` = the
    /// default 4-node cluster). Lets a campaign run against a
    /// production-sized cluster — thousands of nodes, tens of thousands of
    /// background pods — which the indexed engine steps at O(changed) cost.
    pub topology: Option<simkube::NodeTopology>,
}

impl std::fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("operators", &self.operators)
            .field("mode", &self.mode)
            .field("max_ops", &self.max_ops)
            .field("differential", &self.differential)
            .field("strategy", &self.strategy)
            .field("custom_oracles", &self.custom_oracles.len())
            .field("faults", &self.faults.len())
            .field("crash_sweep", &self.crash_sweep)
            .finish()
    }
}

/// Acto's test-exploration strategies (paper §4.2, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Every operation applies to the initial state `S_0` (Figure 4a).
    SingleOperation,
    /// Operations chain: each end state starts the next (Figure 4b),
    /// without error-state recovery testing.
    OperationSequence,
    /// Chained operations plus error-state rollbacks (Figures 4c–d).
    Full,
}

impl CampaignConfig {
    /// The evaluation configuration: all bugs injected, buggy platform,
    /// differential oracle on.
    pub fn evaluation(operator: &str, mode: Mode) -> CampaignConfig {
        CampaignConfig {
            operators: vec![operator.to_string()],
            mode,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::all(),
            max_ops: None,
            differential: true,
            strategy: Strategy::Full,
            custom_oracles: Vec::new(),
            faults: simkube::FaultPlan::default(),
            crash_sweep: false,
            topology: None,
        }
    }

    /// The fuzzing configuration: a base for [`crate::fuzz::run_fuzz`]
    /// executions. Bugs and platform default to fixed/clean so coverage
    /// novelty reflects the *inputs* the fuzzer mutates, not background
    /// noise; the efficacy suite seeds ground-truth bugs explicitly. The
    /// differential oracle stays off by default (the fuzzer's per-input
    /// crash-consistency reference plays the same role); `strategy`,
    /// `max_ops` and `crash_sweep` are ignored by the fuzz executor, while
    /// `custom_oracles` run on its converged transitions.
    pub fn fuzz(operator: &str, mode: Mode) -> CampaignConfig {
        CampaignConfig {
            operators: vec![operator.to_string()],
            mode,
            bugs: BugToggles::all_fixed(),
            platform: PlatformBugs::none(),
            max_ops: None,
            differential: false,
            strategy: Strategy::OperationSequence,
            custom_oracles: Vec::new(),
            faults: simkube::FaultPlan::default(),
            crash_sweep: false,
            topology: None,
        }
    }

    /// A composed-campaign configuration: two or more operators deployed
    /// onto one shared cluster, clean bugs/platform by default so any
    /// composition alarm reflects genuine cross-operator interference.
    pub fn composed<S: AsRef<str>>(operators: &[S], mode: Mode) -> CampaignConfig {
        CampaignConfig {
            operators: operators.iter().map(|s| s.as_ref().to_string()).collect(),
            mode,
            bugs: BugToggles::all_fixed(),
            platform: PlatformBugs::none(),
            max_ops: None,
            differential: false,
            strategy: Strategy::OperationSequence,
            custom_oracles: Vec::new(),
            faults: simkube::FaultPlan::default(),
            crash_sweep: false,
            topology: None,
        }
    }

    /// The primary (first) operator — what the single-operator runners
    /// deploy. Composed runners iterate [`Self::operators`] in order.
    pub fn operator(&self) -> &str {
        self.operators.first().map(String::as_str).unwrap_or("")
    }

    /// Display label for reports: registry names joined with `+`.
    pub fn operators_label(&self) -> String {
        self.operators.join("+")
    }
}

/// The result of a sequential single-operator campaign: the view
/// [`run_campaign_with`] builds from its one-segment
/// [`crate::ParallelResult`].
#[derive(Debug)]
pub struct CampaignResult {
    /// Operator name.
    pub operator: String,
    /// Mode used.
    pub mode: Mode,
    /// Executed trials.
    pub trials: Vec<Trial>,
    /// Properties in the operation interface.
    pub properties_total: usize,
    /// Properties covered by at least one operation.
    pub properties_covered: usize,
    /// Total simulated seconds across all clusters used (execution time).
    /// The accounting is strictly delta-based, so no span is ever billed
    /// twice: the campaign's window checks (in debug builds) that its
    /// tally equals its setup plus the sum of every trial's `sim_seconds`.
    pub sim_seconds: u64,
    /// Simulated seconds not attributable to any single trial — `sim_seconds`
    /// minus every trial's span: the initial deployment (none when the base
    /// is passed in) and any residual overhead after the last trial.
    pub setup_sim_seconds: u64,
    /// Convergence waits issued (trial convergence, rollbacks, resets,
    /// differential references, the fault burst).
    pub convergence_waits: usize,
    /// Wall-clock time spent planning/generating operations.
    pub gen_duration: Duration,
    /// Times the campaign had to reset onto a fresh cluster.
    pub resets: usize,
    /// Attributed findings.
    pub summary: CampaignSummary,
    /// Deterministic vs masked leaf-field counts of the state the campaign
    /// starts from (paper §6.1.3), taken while the campaign restores it;
    /// `(0, 0)` only if the campaign panicked before that restore.
    pub deterministic_fields: (usize, usize),
    /// Differential references served from the [`FreshRefCache`]. Cache
    /// hits replay the stored sim-seconds/waits accounting of the original
    /// run, so these counters never appear in the transcript — transcripts
    /// are invariant to cache state and worker count.
    pub ref_cache_hits: usize,
    /// Differential references computed and inserted into the cache (or
    /// computed uncached when no cache was supplied).
    pub ref_cache_misses: usize,
    /// Crash boundaries replayed across all trials (0 with the sweep off).
    pub crash_points_swept: u64,
}

impl CampaignResult {
    /// Renders everything the campaign observed — trials, outcomes, fault
    /// events, alarms — excluding wall-clock timing. Two runs with the same
    /// configuration (including the fault plan) produce byte-identical
    /// transcripts; a determinism check is one string comparison.
    pub fn transcript(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "operator: {}", self.operator);
        let _ = writeln!(out, "mode: {}", self.mode.name());
        let _ = writeln!(
            out,
            "properties: {}/{}",
            self.properties_covered, self.properties_total
        );
        let _ = writeln!(out, "sim-seconds: {}", self.sim_seconds);
        let _ = writeln!(out, "setup-sim-seconds: {}", self.setup_sim_seconds);
        let _ = writeln!(out, "resets: {}", self.resets);
        for trial in &self.trials {
            trial.render(&mut out);
        }
        render_detected(&mut out, &self.summary);
        out
    }

    /// For each alarmed trial, the declaration sequence reproducing it
    /// (every executed declaration up to and including the trial's own).
    /// Feed a sequence to [`crate::minimize::minimize`] to shrink it and to
    /// [`crate::minimize::emit_test_code`] to obtain regression-test code
    /// (paper §5.4: a minimized e2e test per alarm).
    pub fn reproduction_sequences(&self) -> Vec<(usize, Vec<Value>)> {
        let mut out = Vec::new();
        let mut history: Vec<Value> = Vec::new();
        for trial in &self.trials {
            history.push(trial.declaration.clone());
            if !trial.alarms.is_empty() {
                out.push((trial.op.index, history.clone()));
            }
        }
        out
    }
}

/// Process-wide count of [`plan_campaign`] invocations.
///
/// Planning is deterministic but not free; the parallel runner shares one
/// immutable plan across every worker, so a multi-worker run must add
/// exactly one to this counter regardless of worker count.
/// `tests/plan_once.rs` pins that contract.
pub static PLAN_COMPUTATIONS: AtomicUsize = AtomicUsize::new(0);

/// Plans a registered operator's campaign in `mode` against its own
/// schema, reconcile IR, initial CR and images.
pub(crate) fn plan_operator(operator: &dyn operators::Operator, mode: Mode) -> Vec<PlannedOp> {
    plan_campaign(
        &operator.schema(),
        Some(&operator.ir()),
        mode,
        &operator.initial_cr(),
        &operator.images(),
        operators::INSTANCE,
    )
}

/// Plans a campaign: one scenario list per property, in deterministic
/// order, with dependency assignments resolved against an evolving working
/// declaration.
pub fn plan_campaign(
    schema: &Schema,
    ir: Option<&IrModule>,
    mode: Mode,
    initial_cr: &Value,
    images: &[String],
    instance: &str,
) -> Vec<PlannedOp> {
    PLAN_COMPUTATIONS.fetch_add(1, Ordering::Relaxed);
    let semantics = crate::semantics::infer_semantics(schema, ir, mode);
    let deps = infer_dependencies(schema, ir, mode);
    let mut plan: Vec<PlannedOp> = Vec::new();
    let mut working = initial_cr.clone();
    let mut consumed: Vec<Path> = Vec::new();
    for property in schema.property_paths() {
        if consumed
            .iter()
            .any(|c| property.starts_with(c) && property != *c)
        {
            continue;
        }
        let Some(node) = schema.at(&property) else {
            continue;
        };
        // Maps and arrays are exercised at the container level.
        let is_container = matches!(node.kind, SchemaKind::Map { .. } | SchemaKind::Array { .. });
        let semantic = semantics.get(&property).copied();
        let current = working.get_path(&value_path(&property));
        let ctx = GenContext {
            node,
            current,
            images,
            instance,
        };
        let mut scenarios = match semantic {
            Some(sem) => scenarios_for(sem, &ctx),
            None => Vec::new(),
        };
        // Most composite generators cover their whole subtree; ingress and
        // backup scenarios only exercise the headline knobs, so their
        // children (hosts, schedules, storage destinations) are still
        // planned individually.
        let semantic_composite = !scenarios.is_empty()
            && !node.is_leaf()
            && !matches!(
                semantic,
                Some(crdspec::Semantic::Ingress) | Some(crdspec::Semantic::Backup)
            );
        if scenarios.is_empty() {
            if node.is_leaf() || is_container {
                scenarios = mutate(&ctx);
            } else {
                // Plain object: its children are planned individually.
                continue;
            }
        }
        if semantic_composite || is_container {
            consumed.push(property.clone());
        }
        let assignments = satisfy(&deps, &property);
        // Remember controller values so they can be restored after this
        // property's scenarios (dependency satisfaction must not leak into
        // unrelated later tests).
        let restore: Vec<(Path, Value)> = assignments
            .iter()
            .filter_map(|(p, v)| {
                let cur = working.get_path(&value_path(p)).cloned();
                match cur {
                    Some(cur) if &cur != v => Some((p.clone(), cur)),
                    None => Some((p.clone(), Value::Null)),
                    _ => None,
                }
            })
            .collect();
        for scenario in scenarios {
            // Misoperations that do not surface an error immediately would
            // otherwise linger in the declaration and corrupt later trials
            // (e.g. an unprovisionable storage class only bites at the next
            // scale-up); restore the pre-scenario value afterwards. When
            // the misoperation *did* produce an error, the campaign's
            // rollback already restored it and the extra step no-ops.
            let pre_scenario = working.get_path(&value_path(&property)).cloned();
            let is_misop = scenario.expectation == Expectation::Misoperation;
            for step in scenario.steps {
                let mut dependency_assignments = Vec::new();
                for (p, v) in &assignments {
                    if working.get_path(&value_path(p)) != Some(v) {
                        dependency_assignments.push((p.clone(), v.clone()));
                    }
                }
                // Skip steps that change nothing.
                let target = value_path(&property);
                if dependency_assignments.is_empty() && working.get_path(&target) == Some(&step) {
                    continue;
                }
                for (p, v) in &dependency_assignments {
                    working.set_path(&value_path(p), v.clone());
                }
                working.set_path(&target, step.clone());
                plan.push(PlannedOp {
                    index: plan.len(),
                    property: property.clone(),
                    scenario: scenario.name,
                    value: step,
                    dependency_assignments,
                    expectation: scenario.expectation,
                });
            }
            if is_misop {
                let restore_value = pre_scenario.clone().unwrap_or(Value::Null);
                if working.get_path(&value_path(&property)) != pre_scenario.as_ref() {
                    if restore_value.is_null() {
                        working.remove_path(&value_path(&property));
                    } else {
                        working.set_path(&value_path(&property), restore_value.clone());
                    }
                    plan.push(PlannedOp {
                        index: plan.len(),
                        property: property.clone(),
                        scenario: "restore-after-misoperation",
                        value: restore_value,
                        dependency_assignments: Vec::new(),
                        expectation: Expectation::NormalTransition,
                    });
                }
            }
        }
        // Restore controllers changed for dependency satisfaction.
        for (p, v) in restore {
            if working.get_path(&value_path(&p)) == Some(&v) {
                continue;
            }
            if v.is_null() {
                working.remove_path(&value_path(&p));
            } else {
                working.set_path(&value_path(&p), v.clone());
            }
            plan.push(PlannedOp {
                index: plan.len(),
                property: p.clone(),
                scenario: "restore-dependency",
                value: v,
                dependency_assignments: Vec::new(),
                expectation: Expectation::NormalTransition,
            });
        }
    }
    plan
}

/// Applies one planned operation to a working declaration.
pub fn apply_op(working: &mut Value, op: &PlannedOp) {
    for (p, v) in &op.dependency_assignments {
        working.set_path(&value_path(p), v.clone());
    }
    let target = value_path(&op.property);
    if op.value.is_null() {
        working.remove_path(&target);
    } else {
        working.set_path(&target, op.value.clone());
    }
}

/// Converts a schema path into a concrete value path (`@items` becomes
/// index 0; `@values` is dropped, addressing the map itself).
pub(crate) fn value_path(schema_path: &Path) -> Path {
    let mut steps = Vec::new();
    for step in schema_path.steps() {
        match step {
            crdspec::Step::Key(k) if k == "@items" => steps.push(crdspec::Step::Index(0)),
            crdspec::Step::Key(k) if k == "@values" => {}
            other => steps.push(other.clone()),
        }
    }
    Path::from_steps(steps)
}

/// Looks an operator up in the registry: the one unknown-operator error of
/// every run entry point, listing the valid names.
pub(crate) fn resolve_operator(name: &str) -> Result<Box<dyn operators::Operator>, String> {
    operators::try_operator_by_name(name).ok_or_else(|| {
        format!(
            "unknown operator {name:?}; valid operators: {:?}",
            operators::operator_names()
        )
    })
}

/// Resolves the one operator a single-operator run deploys. Two or more
/// names make a composition, which only the `run_composed_*` runners
/// execute, so such a config is refused rather than silently testing its
/// first member.
pub(crate) fn single_operator(
    config: &CampaignConfig,
) -> Result<Box<dyn operators::Operator>, String> {
    if config.operators.len() > 1 {
        return Err(format!(
            "{} names {} operators, a composition: run it with `run_composed_campaign`, \
             `run_composed_work_stealing_with` or `run_composed_fuzz`",
            config.operators_label(),
            config.operators.len()
        ));
    }
    resolve_operator(config.operator())
}

/// Deploys the campaign's base system from scratch and checkpoints it once
/// it has converged: every run, fuzz execution, reset and differential
/// reference starts from a restore of it. Returns the checkpoint and the
/// simulated seconds the deployment took.
pub(crate) fn deploy_base(config: &CampaignConfig) -> Result<(InstanceCheckpoint, u64), String> {
    let instance = Instance::deploy_on(
        operator_by_name(config.operator()),
        config.bugs.clone(),
        config.platform,
        config.topology.clone(),
    )
    .map_err(|e| format!("initial deployment failed: {e:?}"))?;
    Ok((instance.checkpoint(), instance.cluster.now()))
}

/// Restores a campaign cluster from `checkpoint` (an O(1) copy-on-write
/// restore that costs zero simulated seconds).
pub(crate) fn restore(config: &CampaignConfig, checkpoint: &InstanceCheckpoint) -> Instance {
    Instance::from_checkpoint(
        operator_by_name(config.operator()),
        config.bugs.clone(),
        checkpoint,
    )
}

/// The plan length a campaign executes: the plan cut to
/// [`CampaignConfig::max_ops`] ops.
pub(crate) fn capped_len(config: &CampaignConfig, plan_len: usize) -> usize {
    config.max_ops.map_or(plan_len, |max| plan_len.min(max))
}

/// Runs a full campaign for one operator: plans once, then executes.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    let gen_start = Instant::now();
    let plan = plan_operator(&*operator_by_name(config.operator()), config.mode);
    run_campaign_with(config, &plan, gen_start.elapsed(), None, None, None)
}

/// Executes a campaign over an externally computed `plan`, cut to
/// [`CampaignConfig::max_ops`] ops: the one-worker, one-segment case of
/// [`crate::exec::run_segmented`], viewed as a [`CampaignResult`].
///
/// `base` is a checkpoint of the deploy-converged initial state, restored
/// for the start, every reset and every differential reference; `None`
/// deploys one and bills the deployment to setup. `start` is the state the
/// campaign begins from (the base when `None`). `ref_cache` shares
/// differential-oracle reference runs across trials and runs; `None` uses
/// a cache local to this run. Transcripts depend on neither the cache nor
/// whether the base was passed in. A panic inside the campaign is retried
/// once and, if the retry panics too, recorded as a `worker-panic` trial.
pub fn run_campaign_with(
    config: &CampaignConfig,
    plan: &[PlannedOp],
    gen_duration: Duration,
    base: Option<&InstanceCheckpoint>,
    start: Option<&InstanceCheckpoint>,
    ref_cache: Option<&FreshRefCache>,
) -> CampaignResult {
    let local_cache = FreshRefCache::new();
    let ref_cache = ref_cache.unwrap_or(&local_cache);
    let start_fields = OnceLock::new();
    let driver = CampaignDriver::new(config, plan, base, ref_cache, Some(&start_fields));
    let depot = SnapshotDepot::new();
    if let Some(start) = start {
        // Deposited before `run_segmented` deposits the base at entry 0:
        // the first insert wins, so segment 0 starts from `start`.
        depot.put(0, Arc::new(start.clone()));
    }
    let run = run_segmented(&driver, 1, driver.plan_len(), &depot, BTreeMap::new(), None);

    let mut tally = WorkerStats::new(0);
    for row in &run.worker_stats {
        tally += row;
    }
    let trial_sim_seconds: u64 = run.trials.iter().map(|t| t.sim_seconds).sum();
    // Synthetic trials (the fault burst, a worker-panic placeholder) carry
    // the root path and cover no property.
    let covered: BTreeSet<Path> = run
        .trials
        .iter()
        .map(|t| &t.op.property)
        .filter(|p| !p.is_root())
        .cloned()
        .collect();
    let schema = operator_by_name(config.operator()).schema();
    CampaignResult {
        operator: run.operator,
        mode: run.mode,
        properties_total: schema.property_count(),
        properties_covered: covered_count(&schema, &covered),
        sim_seconds: run.total_sim_seconds,
        setup_sim_seconds: run.total_sim_seconds - trial_sim_seconds,
        convergence_waits: tally.convergence_waits,
        gen_duration,
        resets: tally.resets,
        summary: run.summary,
        deterministic_fields: start_fields.get().copied().unwrap_or_default(),
        ref_cache_hits: tally.ref_cache_hits,
        ref_cache_misses: tally.ref_cache_misses,
        crash_points_swept: tally.crash_points_swept,
        trials: run.trials,
    }
}

/// The campaign body: executes the plan window `(skip, take)` from
/// `start`. A window with `skip > 0` is a work-stealing segment, and
/// `start` must then be the canonical state after the first `skip`
/// operations (the driver's jump `S_0 → S_skip`, paper §5.5). Resets and
/// differential references restore `base`. `start_fields`, when given,
/// receives the §6.1.3 field counts of `start`. Returns the trials and the
/// tally of the window's counters, for a worker to fold in; what the tally
/// bills beyond the trials' spans is setup.
pub(crate) fn run_window(
    config: &CampaignConfig,
    plan: &[PlannedOp],
    (skip, take): (usize, usize),
    base: &InstanceCheckpoint,
    start: &InstanceCheckpoint,
    ref_cache: &FreshRefCache,
    start_fields: Option<&OnceLock<(usize, usize)>>,
) -> (Vec<Trial>, WorkerStats) {
    let mut instance = restore(config, start);
    if let Some(fields) = start_fields {
        fields.get_or_init(|| oracles::field_determinism(&instance.state_snapshot()));
    }
    let mut ledger = Ledger::new(&instance);
    let mut last_good = instance.cr_spec();
    let mut trials: Vec<Trial> = Vec::new();
    let mut no_transition_alarmed: BTreeSet<Path> = BTreeSet::new();
    let cr_id = step::cr_id(&instance);

    // Error-state campaign start: the burst belongs to the campaign as a
    // whole, so a windowed run only executes it for the segment that
    // starts at the plan's beginning.
    if !config.faults.is_empty() && skip == 0 {
        let mut burst = step::fault_burst(&mut instance, &config.faults, &mut ledger);
        if !burst.alarms.is_empty() {
            // The damaged cluster would contaminate the plan: reset.
            reset(&mut instance, &mut ledger, config, base);
            last_good = instance.cr_spec();
            ledger.stats.resets += 1;
        }
        burst.sim_seconds = ledger.take_span(&instance);
        trials.push(burst);
    }
    // Everything billed before the first trial's span is setup.
    let mut setup_sim_seconds = ledger.take_span(&instance);

    for planned in plan.iter().skip(skip).take(take) {
        // The single-operation strategy always starts from the initial
        // state; the others chain.
        if config.strategy == Strategy::SingleOperation {
            reset(&mut instance, &mut ledger, config, base);
            last_good = instance.cr_spec();
        }
        let mut spec = instance.cr_spec();
        apply_op(&mut spec, planned);
        if normalized(&spec) == normalized(&instance.cr_spec()) {
            continue;
        }
        let mut boundaries = config.crash_sweep.then(BoundaryLog::default);
        let Judged {
            outcome,
            mut alarms,
            pre_state,
            post_state,
            writes,
        } = match step::submit_and_judge(&mut instance, &spec, &mut ledger, boundaries.as_mut()) {
            Ok(judged) => judged,
            Err(err) => {
                let outcome = TrialOutcome::RejectedByApi(err.to_string());
                let sim = ledger.take_span(&instance);
                trials.push(step::trial(planned.clone(), spec, outcome, Vec::new(), sim));
                continue;
            }
        };

        if outcome == TrialOutcome::Converged {
            let ctx = OracleContext {
                property: &planned.property,
                declared: &planned.value,
                declaration: &spec,
                pre_state: &pre_state,
                post_state: &post_state,
                cr_id: &cr_id,
            };
            let restoration = planned.scenario == "restore-after-misoperation"
                || planned.scenario == "restore-dependency";
            if planned.expectation == Expectation::NormalTransition
                && !restoration
                && !transition_occurred(&ctx)
            {
                // One alarm per property: repeated steps of the same
                // unsatisfied predicate are the same finding.
                if no_transition_alarmed.insert(planned.property.clone()) {
                    alarms.push(Alarm::new(
                        AlarmKind::Consistency,
                        format!(
                            "operation on {} caused no state transition",
                            planned.property
                        ),
                    ));
                }
            } else {
                alarms.extend(step::oracle_pass(
                    config,
                    &ctx,
                    &last_good,
                    &instance,
                    base,
                    ref_cache,
                    &mut ledger,
                ));
            }
        }

        let mut rollback_recovered = None;
        if outcome == TrialOutcome::RejectedByOperator {
            // The operator refused the declaration: restore the last good
            // one so the declared state matches what the system runs.
            resubmit(&mut instance, &last_good, &mut ledger);
        } else if outcome.is_error() && config.strategy != Strategy::Full {
            // Without the recovery strategy the campaign simply resets.
            reset(&mut instance, &mut ledger, config, base);
            if config.strategy == Strategy::OperationSequence {
                resubmit(&mut instance, &last_good, &mut ledger);
            } else {
                last_good = instance.cr_spec();
            }
            ledger.stats.resets += 1;
        } else if outcome.is_error() {
            // Error-state recovery (Figure 4c): roll back to the previous
            // good declaration and verify restoration. Rollback must clear
            // the *error* state; a pre-existing degradation is judged by
            // the state comparison instead.
            let rb_alarms = if resubmit(&mut instance, &last_good, &mut ledger) {
                let after = masked_snapshot(&instance);
                collapse(differential_rollback(
                    &pre_state,
                    &after,
                    step::settled(&instance),
                ))
            } else {
                vec![Alarm::new(
                    AlarmKind::DifferentialRollback,
                    "rollback declaration rejected".to_string(),
                )]
            };
            rollback_recovered = Some(rb_alarms.is_empty());
            if !rb_alarms.is_empty() {
                // Reset onto a clean cluster at the last good declaration.
                alarms.extend(rb_alarms);
                reset(&mut instance, &mut ledger, config, base);
                resubmit(&mut instance, &last_good, &mut ledger);
                ledger.stats.resets += 1;
            }
        } else if outcome == TrialOutcome::Converged {
            last_good = spec.clone();
            if !alarms.is_empty() {
                // A detected defect may leave residue (stale objects, stale
                // labels) that would contaminate later trials: reset onto a
                // clean cluster at the current declaration.
                reset(&mut instance, &mut ledger, config, base);
                resubmit(&mut instance, &last_good, &mut ledger);
                ledger.stats.resets += 1;
            }
        }

        // Crash-point sweep: the converged live run is the uninterrupted
        // reference — it fixes both the write count `W` and the expected
        // masked end state. Each boundary forks the live wait at the tick
        // that makes its write and must reconverge to the reference.
        let mut crash_points_swept = 0u32;
        if let (TrialOutcome::Converged, Some(log)) = (&outcome, &boundaries) {
            for k in 1..=writes as u32 {
                let from = log.at_write(k.into());
                let replay = step::crash_replay(config.operator(), &config.bugs, from, k);
                ledger.stats.convergence_waits += 1;
                ledger.stats.crash_points_swept += 1;
                ledger.bank(replay.sim_seconds);
                alarms.extend(collapse(oracles::crash_consistency_check(
                    k,
                    &post_state,
                    &masked_snapshot(&replay.instance),
                    step::settled(&replay.instance),
                    replay.converged,
                )));
                crash_points_swept += 1;
            }
        }

        // The trial's span covers everything it caused — convergence,
        // rollback, differential reference, crash-point replays, and any
        // reset — so the campaign total decomposes exactly into setup +
        // trials.
        let sim = ledger.take_span(&instance);
        trials.push(Trial {
            rollback_recovered,
            crash_points_swept,
            ..step::trial(planned.clone(), spec, outcome, alarms, sim)
        });
    }
    // Residual overhead (e.g. a skipped no-op after a single-operation
    // reset) is unattributable to a trial: fold it into setup.
    setup_sim_seconds += ledger.take_span(&instance);
    let tally = ledger.finish(&instance);
    debug_assert_eq!(
        tally.sim_seconds,
        setup_sim_seconds + trials.iter().map(|t| t.sim_seconds).sum::<u64>(),
        "window sim-seconds must decompose into setup + trials"
    );
    (trials, tally)
}

/// Replaces the campaign cluster with a fresh one at the deploy-converged
/// state, banking the retired cluster's span.
fn reset(
    instance: &mut Instance,
    ledger: &mut Ledger,
    config: &CampaignConfig,
    base: &InstanceCheckpoint,
) {
    ledger.retire(instance);
    *instance = restore(config, base);
    ledger.adopt(instance);
}

/// Submits `declaration` and waits for convergence; returns whether the
/// API server accepted the declaration.
fn resubmit(instance: &mut Instance, declaration: &Value, ledger: &mut Ledger) -> bool {
    let accepted = instance.submit(declaration.clone()).is_ok();
    let _ = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
    ledger.stats.convergence_waits += 1;
    accepted
}

/// Counts covered properties, where covering a container covers its
/// subtree (the paper's composite-property coverage, §5.2.2).
fn covered_count(schema: &Schema, covered: &BTreeSet<Path>) -> usize {
    schema
        .property_paths()
        .iter()
        .filter(|p| covered.iter().any(|c| p.starts_with(c) || c.starts_with(p)))
        .count()
}

/// Normalizes a declaration for no-op comparison: empty containers carry
/// no meaning.
pub(crate) fn normalized(v: &Value) -> Value {
    fn strip(v: &Value) -> Option<Value> {
        match v {
            Value::Object(m) => {
                let m: crdspec::Value = Value::Object(
                    m.iter()
                        .filter_map(|(k, val)| strip(val).map(|sv| (k.clone(), sv)))
                        .collect(),
                );
                match &m {
                    Value::Object(inner) if inner.is_empty() => None,
                    _ => Some(m),
                }
            }
            Value::Array(a) if a.is_empty() => None,
            other => Some(other.clone()),
        }
    }
    strip(v).unwrap_or(Value::Null)
}

/// Collapses a burst of same-oracle field-level alarms into one alarm per
/// trial (a test failure, in the paper's counting), keeping sample details.
pub(crate) fn collapse(alarms: Vec<Alarm>) -> Vec<Alarm> {
    if alarms.len() <= 1 {
        return alarms;
    }
    let kind = alarms[0].kind;
    let sample: Vec<String> = alarms.iter().take(3).map(|a| a.detail.clone()).collect();
    vec![Alarm::new(
        kind,
        format!(
            "{} (+{} more findings)",
            sample.join("; "),
            alarms.len() - 1
        ),
    )]
}

/// A fully computed differential reference: the masked reference state
/// (`None` when the reference run rejects the declaration) plus the exact
/// sim-seconds/convergence-waits accounting of the run that produced it.
#[derive(Debug)]
pub struct CachedReference {
    pub(crate) state: Option<oracles::StateSnapshot>,
    pub(crate) sim_seconds: u64,
    pub(crate) convergence_waits: usize,
}

/// Content-addressed cache of the differential oracle's fresh references
/// (paper §5.4): a reference run depends only on the submitted declaration
/// (reference clusters always start from the same deploy-converged state),
/// so it is keyed by the declaration's canonical JSON rendering — shared
/// across trials of one campaign and across parallel workers, alongside
/// [`crate::parallel::SnapshotDepot`].
///
/// A hit replays the stored accounting verbatim, so results — transcripts
/// included — are invariant to cache state, sharing, and worker count.
pub type FreshRefCache = Memo<String, CachedReference>;

/// Builds the fresh-deployment reference state for the differential oracle
/// (`S_0 --D--> S'_i`) on a restore of the deploy-converged `base`,
/// consulting `cache` first. Returns the reference plus whether it was a
/// cache hit.
pub(crate) fn fresh_reference(
    config: &CampaignConfig,
    declaration: &Value,
    base: &InstanceCheckpoint,
    cache: &FreshRefCache,
) -> (Arc<CachedReference>, bool) {
    let key = crdspec::json::to_string(declaration);
    if let Some(hit) = cache.get(key.as_str()) {
        return (hit, true);
    }
    let mut fresh = restore(config, base);
    let t0 = fresh.cluster.now();
    let entry = if fresh.submit(declaration.clone()).is_err() {
        CachedReference {
            state: None,
            sim_seconds: fresh.cluster.now() - t0,
            convergence_waits: 0,
        }
    } else {
        let _ = fresh.converge(CONVERGE_RESET, CONVERGE_MAX);
        CachedReference {
            state: Some(masked_snapshot(&fresh)),
            sim_seconds: fresh.cluster.now() - t0,
            convergence_waits: 1,
        }
    };
    let entry = Arc::new(entry);
    cache.put(key, Arc::clone(&entry));
    (entry, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(operator: &str, mode: Mode) -> Vec<PlannedOp> {
        let op = operator_by_name(operator);
        plan_campaign(
            &op.schema(),
            Some(&op.ir()),
            mode,
            &op.initial_cr(),
            &op.images(),
            operators::INSTANCE,
        )
    }

    #[test]
    fn plan_covers_every_property() {
        let op = operator_by_name("ZooKeeperOp");
        let schema = op.schema();
        let plan = plan_for("ZooKeeperOp", Mode::Whitebox);
        let covered: BTreeSet<Path> = plan.iter().map(|p| p.property.clone()).collect();
        let count = covered_count(&schema, &covered);
        assert_eq!(
            count,
            schema.property_count(),
            "plan must cover 100% of properties"
        );
    }

    #[test]
    fn whitebox_plans_more_ops_than_blackbox() {
        // The blackbox mode cannot infer semantics for obscure properties
        // and falls back to mutation, generating fewer operations
        // (paper §6.2: Acto-blackbox generates ~48 fewer ops).
        let black = plan_for("ZooKeeperOp", Mode::Blackbox).len();
        let white = plan_for("ZooKeeperOp", Mode::Whitebox).len();
        assert!(
            white > black,
            "whitebox {white} ops should exceed blackbox {black}"
        );
    }

    #[test]
    fn whitebox_plan_satisfies_storage_type_dependency() {
        let plan = plan_for("ZooKeeperOp", Mode::Whitebox);
        let eph = plan
            .iter()
            .find(|p| p.property.to_string() == "ephemeral.emptyDirSize")
            .expect("emptyDirSize planned");
        assert!(eph
            .dependency_assignments
            .iter()
            .any(|(p, v)| p.to_string() == "storageType" && *v == Value::from("ephemeral")));
        let plan = plan_for("ZooKeeperOp", Mode::Blackbox);
        let eph = plan
            .iter()
            .find(|p| p.property.to_string() == "ephemeral.emptyDirSize")
            .expect("emptyDirSize planned");
        assert!(eph.dependency_assignments.is_empty());
    }

    #[test]
    fn blackbox_plan_has_no_privileged_port_on_obscure_property() {
        let plan = plan_for("ZooKeeperOp", Mode::Blackbox);
        assert!(!plan
            .iter()
            .any(|p| { p.property.to_string() == "clientAccess" && p.value == Value::from(80) }));
        let plan = plan_for("ZooKeeperOp", Mode::Whitebox);
        assert!(plan
            .iter()
            .any(|p| { p.property.to_string() == "clientAccess" && p.value == Value::from(80) }));
    }

    #[test]
    fn value_path_translation() {
        let p: Path = "users.@items.name".parse().unwrap();
        assert_eq!(value_path(&p).to_string(), "users[0].name");
        let p: Path = "config.@values".parse().unwrap();
        assert_eq!(value_path(&p).to_string(), "config");
    }

    #[test]
    fn normalized_ignores_empty_containers() {
        let a = Value::object([
            ("x", Value::from(1)),
            ("empty", Value::empty_object()),
            ("list", Value::Array(Vec::new())),
        ]);
        let b = Value::object([("x", Value::from(1))]);
        assert_eq!(normalized(&a), normalized(&b));
        let c = Value::object([("x", Value::from(2))]);
        assert_ne!(normalized(&a), normalized(&c));
    }

    #[test]
    fn collapse_merges_alarm_bursts() {
        let burst: Vec<Alarm> = (0..5)
            .map(|i| Alarm::new(AlarmKind::DifferentialNormal, format!("finding {i}")))
            .collect();
        let collapsed = collapse(burst);
        assert_eq!(collapsed.len(), 1);
        assert!(collapsed[0].detail.contains("finding 0"));
        assert!(collapsed[0].detail.contains("+4 more"));
        // Singletons pass through untouched.
        let single = vec![Alarm::new(AlarmKind::ErrorCheck, "one".to_string())];
        assert_eq!(collapse(single.clone()), single);
    }

    #[test]
    fn reproduction_sequences_accumulate_history() {
        let config = CampaignConfig {
            operators: vec!["CockroachOp".to_string()],
            mode: Mode::Whitebox,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::none(),
            max_ops: Some(15),
            differential: false,
            strategy: Strategy::Full,
            custom_oracles: Vec::new(),
            faults: Default::default(),
            crash_sweep: false,
            topology: None,
        };
        let result = run_campaign(&config);
        let seqs = result.reproduction_sequences();
        assert!(!seqs.is_empty(), "the crash bugs alarm within 15 ops");
        for (_, seq) in &seqs {
            assert!(!seq.is_empty());
        }
        // Sequences grow monotonically with trial position.
        for w in seqs.windows(2) {
            assert!(w[0].1.len() < w[1].1.len());
        }
    }

    #[test]
    fn short_campaign_executes_and_reports() {
        let config = CampaignConfig {
            operators: vec!["ZooKeeperOp".to_string()],
            mode: Mode::Whitebox,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::none(),
            max_ops: Some(6),
            differential: false,
            strategy: Strategy::Full,
            custom_oracles: Vec::new(),
            faults: Default::default(),
            crash_sweep: false,
            topology: None,
        };
        let result = run_campaign(&config);
        assert!(!result.trials.is_empty());
        assert!(result.trials.len() <= 6);
        assert!(result.sim_seconds > 0);
    }

    /// The sequential campaign runs under the scheduler's quarantine like
    /// a segment: a panicking oracle fails the retry too and leaves a
    /// worker-panic trial in the transcript instead of unwinding.
    #[test]
    fn panicking_oracle_is_quarantined_not_fatal() {
        #[derive(Debug)]
        struct Bomb;
        impl crate::oracles::CustomOracle for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn check(&self, _ctx: &OracleContext<'_>, _instance: &Instance) -> Vec<Alarm> {
                panic!("oracle exploded");
            }
        }
        let config = CampaignConfig {
            operators: vec!["RabbitMQOp".to_string()],
            mode: Mode::Whitebox,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::none(),
            max_ops: Some(4),
            differential: false,
            strategy: Strategy::Full,
            custom_oracles: vec![Arc::new(Bomb)],
            faults: Default::default(),
            crash_sweep: false,
            topology: None,
        };
        let transcript = run_campaign(&config).transcript();
        assert!(
            transcript.contains("scenario=worker-panic")
                && transcript.contains("worker panic in segment 0: oracle exploded"),
            "{transcript}"
        );
    }

    /// The regression for the double-counting bug: some paths used to add
    /// the absolute cluster clock to the campaign total while others added
    /// deltas, so totals drifted above the sum of their parts. The meter
    /// is strictly delta-based, making the decomposition exact.
    #[test]
    fn sim_seconds_decompose_into_setup_plus_trials() {
        for (operator, faults, strategy) in [
            ("ZooKeeperOp", false, Strategy::Full),
            ("RabbitMQOp", true, Strategy::Full),
            ("ZooKeeperOp", false, Strategy::SingleOperation),
        ] {
            let config = CampaignConfig {
                operators: vec![operator.to_string()],
                mode: Mode::Whitebox,
                bugs: BugToggles::all_injected(),
                platform: PlatformBugs::none(),
                max_ops: Some(8),
                differential: true,
                strategy,
                custom_oracles: Vec::new(),
                faults: if faults {
                    simkube::FaultPlan::generate(7, &simkube::FaultProfile::default())
                } else {
                    Default::default()
                },
                crash_sweep: false,
                topology: None,
            };
            let result = run_campaign(&config);
            // A quarantined segment would hide a failed decomposition
            // check inside `run_window`.
            assert!(
                result
                    .trials
                    .iter()
                    .all(|t| t.op.scenario != "worker-panic"),
                "{operator} {strategy:?}: the campaign panicked"
            );
            let trial_sum: u64 = result.trials.iter().map(|t| t.sim_seconds).sum();
            assert_eq!(
                result.sim_seconds,
                result.setup_sim_seconds + trial_sum,
                "{operator} {strategy:?}: total must equal setup + Σ trials"
            );
            // Setup is the deployment plus the window's residual, which
            // only a skipped no-op after a single-operation reset leaves.
            let (_, deploy_sim_seconds) = deploy_base(&config).expect("deploys");
            assert!(deploy_sim_seconds > 0, "deployment is never free");
            if strategy == Strategy::SingleOperation {
                assert!(result.setup_sim_seconds >= deploy_sim_seconds);
            } else {
                assert_eq!(
                    result.setup_sim_seconds, deploy_sim_seconds,
                    "{operator} {strategy:?}: setup must be the deployment alone"
                );
            }
            assert!(result.convergence_waits >= result.trials.len() - 1);
        }
    }

    /// A windowed run must bill each windowed trial only once (the old
    /// accounting double-counted rollback spans). A window from its prefix
    /// checkpoint under the full strategy has no setup of its own, so its
    /// tally is exactly the sum of its trials' spans. The window starts
    /// from the driver's real prefix checkpoint, exactly as a segment does.
    #[test]
    fn windowed_sim_seconds_decompose_exactly() {
        let config = CampaignConfig {
            operators: vec!["ZooKeeperOp".to_string()],
            mode: Mode::Whitebox,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::none(),
            max_ops: None,
            differential: false,
            strategy: Strategy::Full,
            custom_oracles: Vec::new(),
            faults: Default::default(),
            crash_sweep: false,
            topology: None,
        };
        let plan = plan_for("ZooKeeperOp", Mode::Whitebox);
        let cache = FreshRefCache::new();
        let driver = CampaignDriver::new(&config, &plan, None, &cache, None);
        let (base, _) = driver.deploy_base();
        let mut stats = WorkerStats::new(0);
        let start = driver.build_prefix(&base, 5, &mut stats);
        assert_eq!(stats.convergence_waits, 1, "the jump converges once");
        let (trials, tally) = run_window(&config, &plan, (5, 4), &base, &start, &cache, None);
        assert!(!trials.is_empty());
        assert!(trials.iter().all(|t| (5..9).contains(&t.op.index)));
        let trial_sum: u64 = trials.iter().map(|t| t.sim_seconds).sum();
        assert!(trial_sum > 0);
        assert_eq!(tally.sim_seconds, trial_sum);
    }

    /// A caller's `start` replaces the base as the state segment 0 starts
    /// from: the campaign runs the window the driver would run from that
    /// state, and counts its fields there.
    #[test]
    fn caller_start_state_is_where_the_campaign_begins() {
        let config = CampaignConfig {
            operators: vec!["ZooKeeperOp".to_string()],
            mode: Mode::Whitebox,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::none(),
            max_ops: None,
            differential: false,
            strategy: Strategy::Full,
            custom_oracles: Vec::new(),
            faults: Default::default(),
            crash_sweep: false,
            topology: None,
        };
        let plan = plan_for("ZooKeeperOp", Mode::Whitebox);
        let cache = FreshRefCache::new();
        let driver = CampaignDriver::new(&config, &plan, None, &cache, None);
        let (base, _) = driver.deploy_base();
        let start = driver.build_prefix(&base, 5, &mut WorkerStats::new(0));
        let window = &plan[5..9];
        let from =
            |start| run_campaign_with(&config, window, Duration::ZERO, Some(&base), start, None);
        let (expected, _) = run_window(&config, window, (0, 4), &base, &start, &cache, None);
        let (started, unstarted) = (from(Some(&start)), from(None));
        assert_eq!(format!("{:?}", started.trials), format!("{expected:?}"));
        assert_ne!(started.transcript(), unstarted.transcript());
        let fields = oracles::field_determinism(&restore(&config, &start).state_snapshot());
        assert_eq!(started.deterministic_fields, fields);
        assert_ne!(unstarted.deterministic_fields, (0, 0));
    }
}
