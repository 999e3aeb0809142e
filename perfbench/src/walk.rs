//! The layer walk: a sequential replay of a timed run's recorded inputs
//! through each layer's public calls, one span per call.
//!
//! Spans are taken here, around the calls, so nothing inside the program
//! changes. The walk is a model of the run, not the run: its counts sit
//! beside the timed run's counts so any gap between the two shows.

use std::collections::BTreeMap;

use acto::model::{Expectation, Trial, TrialOutcome};
use acto::oracles::{
    consistency_check, crash_consistency_check, differential_normal, differential_rollback,
    masked_snapshot, transition_occurred, OracleContext, StateSnapshot,
};
use acto::{plan_campaign, CampaignConfig, PlannedOp};
use crdspec::Value;
use operators::{operator_by_name, Instance, InstanceCheckpoint, CONVERGE_MAX, CONVERGE_RESET};

use crate::trace::Tracer;

/// Downtime of a crash armed by a replay, matching the campaign's.
pub const CRASH_DOWN_FOR: u64 = 5;

/// What the walk did, to set beside the timed run's counts.
#[derive(Debug, Clone, Default)]
pub struct WalkCounts {
    /// Trials replayed to the outcome class the run recorded for them.
    pub trials: usize,
    /// `converge` calls issued on an accepted declaration, and settles.
    pub converge_calls: usize,
    /// Convergence waits the run bills again for each reuse of a cached
    /// reference run, which the walk reuses without converging.
    pub reused_waits: usize,
    /// Simulated seconds the converge calls advanced.
    pub sim_s: u64,
    /// Instances restored from a checkpoint.
    pub forks: usize,
    /// Crash boundaries replayed.
    pub crash_points: usize,
    /// Planned operations across `plan` calls.
    pub plan_ops: usize,
    /// Oracle evaluations.
    pub oracle_calls: usize,
    /// Coverage features after merging the recorded novel features.
    pub coverage_features: usize,
}

/// Plans `config`'s operator under a `plan` span.
pub fn plan(t: &mut Tracer, c: &mut WalkCounts, config: &CampaignConfig) -> Vec<PlannedOp> {
    let op = operator_by_name(config.operator());
    let plan = t.span("plan", |_| {
        plan_campaign(
            &op.schema(),
            Some(&op.ir()),
            config.mode,
            &op.initial_cr(),
            &op.images(),
            operators::INSTANCE,
        )
    });
    c.plan_ops += plan.len();
    plan
}

/// Deploys and checkpoints the base instance under `deploy` and
/// `checkpoint` spans.
pub fn deploy(t: &mut Tracer, config: &CampaignConfig) -> InstanceCheckpoint {
    let instance = t.span("deploy", |_| {
        Instance::deploy_on(
            operator_by_name(config.operator()),
            config.bugs.clone(),
            config.platform,
            config.topology.clone(),
        )
        .expect("base deployment")
    });
    t.span("checkpoint", |_| instance.checkpoint())
}

/// Restores an instance from `cp` under a `checkpoint` span.
pub fn restore(
    t: &mut Tracer,
    c: &mut WalkCounts,
    config: &CampaignConfig,
    cp: &InstanceCheckpoint,
) -> Instance {
    c.forks += 1;
    t.span("checkpoint", |_| {
        Instance::from_checkpoint(operator_by_name(config.operator()), config.bugs.clone(), cp)
    })
}

/// Submits `spec` and converges under one `converge` span. `None` when
/// the API rejects the declaration, else whether the system converged.
pub fn converge(
    t: &mut Tracer,
    c: &mut WalkCounts,
    instance: &mut Instance,
    spec: Value,
) -> Option<bool> {
    let t0 = instance.cluster.now();
    let converged = t.span("converge", |_| {
        instance
            .submit(spec)
            .ok()
            .map(|()| instance.converge(CONVERGE_RESET, CONVERGE_MAX))
    });
    if converged.is_some() {
        c.converge_calls += 1;
    }
    c.sim_s += instance.cluster.now() - t0;
    converged
}

/// Converges without a new declaration (after a fault burst or to settle).
pub fn settle(t: &mut Tracer, c: &mut WalkCounts, instance: &mut Instance, advance: u64) -> bool {
    let t0 = instance.cluster.now();
    let converged = t.span("converge", |_| {
        instance.advance(advance);
        instance.converge(CONVERGE_RESET, CONVERGE_MAX)
    });
    c.converge_calls += 1;
    c.sim_s += instance.cluster.now() - t0;
    converged
}

/// Takes the masked state under an `oracles.snapshot` span.
pub fn snapshot(t: &mut Tracer, instance: &Instance) -> StateSnapshot {
    t.span("oracles.snapshot", |_| masked_snapshot(instance))
}

/// Runs one oracle under an `oracles.check` span.
pub fn check<R>(t: &mut Tracer, c: &mut WalkCounts, f: impl FnOnce() -> R) -> R {
    c.oracle_calls += 1;
    t.span("oracles.check", |_| f())
}

/// Whether a replayed submit-and-converge (`None`: the API rejected the
/// declaration) agrees with the class of the recorded `outcome`. The run
/// classifies a crash before an exhausted budget, and every other class
/// only after convergence.
pub fn agrees(outcome: &TrialOutcome, converged: Option<bool>) -> bool {
    match (outcome, converged) {
        (TrialOutcome::RejectedByApi(_), replayed) => replayed.is_none(),
        (_, None) => false,
        (TrialOutcome::OperatorCrash(_), Some(_)) => true,
        (TrialOutcome::Livelock | TrialOutcome::Stuck, Some(converged)) => !converged,
        (_, Some(converged)) => converged,
    }
}

/// The campaign's health predicate, from public state only.
pub fn healthy(instance: &Instance) -> bool {
    let acknowledged = instance
        .cluster
        .api()
        .get(&instance.cr_key())
        .is_none_or(|obj| {
            obj.data
                .status_value()
                .get("observedGeneration")
                .and_then(Value::as_i64)
                .is_some_and(|og| og >= obj.meta.generation as i64)
        });
    !matches!(instance.last_health, managed::Health::Down(_))
        && !instance.operator_crashed()
        && acknowledged
        && instance.pod_failures().is_empty()
}

/// Replays one campaign's recorded trials from the base checkpoint: each
/// declaration is converged, judged by the oracles the trial's outcome
/// called for, rolled back or reset as the campaign did, and crash-swept
/// at as many boundaries as the run swept. A trial counts only when its
/// replay [`agrees`] with its recorded outcome.
pub fn campaign_trials(
    t: &mut Tracer,
    c: &mut WalkCounts,
    config: &CampaignConfig,
    base: &InstanceCheckpoint,
    trials: &[Trial],
) {
    let mut instance = restore(t, c, config, base);
    let cr_id = format!(
        "{}/{}/{}",
        instance.operator().kind(),
        instance.namespace,
        instance.name
    );
    let mut last_good = instance.cr_spec();
    let mut references: BTreeMap<String, Option<StateSnapshot>> = BTreeMap::new();
    for trial in trials {
        if trial.op.scenario == "worker-panic" {
            continue;
        }
        let pre = snapshot(t, &instance);
        let sweep =
            (trial.crash_points_swept > 0).then(|| t.span("checkpoint", |_| instance.checkpoint()));
        let converged = converge(t, c, &mut instance, trial.declaration.clone());
        if agrees(&trial.outcome, converged) {
            c.trials += 1;
        }
        if converged.is_none() {
            continue;
        }
        let post = snapshot(t, &instance);
        let mut reset = false;
        match &trial.outcome {
            TrialOutcome::Converged => {
                let target = value_path(&trial.op.property);
                let previous = last_good.get_path(&target).cloned();
                let ctx = OracleContext {
                    property: &trial.op.property,
                    declared: &trial.op.value,
                    declaration: &trial.declaration,
                    pre_state: &pre,
                    post_state: &post,
                    cr_id: &cr_id,
                };
                let restoration = trial.op.scenario == "restore-after-misoperation"
                    || trial.op.scenario == "restore-dependency";
                let judged = trial.op.expectation != Expectation::NormalTransition
                    || restoration
                    || check(t, c, || transition_occurred(&ctx));
                if judged {
                    check(t, c, || consistency_check(&ctx, previous.as_ref()));
                    if config.differential {
                        let key = crdspec::json::to_string(&trial.declaration);
                        if let Some(state) = references.get(&key) {
                            c.reused_waits += usize::from(state.is_some());
                        } else {
                            let mut fresh = restore(t, c, config, base);
                            let state = converge(t, c, &mut fresh, trial.declaration.clone())
                                .map(|_| snapshot(t, &fresh));
                            references.insert(key.clone(), state);
                        }
                        if let Some(Some(reference)) = references.get(&key) {
                            check(t, c, || differential_normal(&post, reference));
                        }
                    }
                }
                last_good = trial.declaration.clone();
                reset = !trial.alarms.is_empty();
            }
            TrialOutcome::RejectedByOperator => {
                converge(t, c, &mut instance, last_good.clone());
            }
            outcome if outcome.is_error() => {
                converge(t, c, &mut instance, last_good.clone());
                let after = snapshot(t, &instance);
                let ok = healthy(&instance);
                check(t, c, || differential_rollback(&pre, &after, ok));
                reset = trial.rollback_recovered == Some(false);
            }
            _ => {}
        }
        if reset {
            instance = restore(t, c, config, base);
            converge(t, c, &mut instance, last_good.clone());
        }
        if let Some(cp) = &sweep {
            for k in 1..=trial.crash_points_swept {
                let mut replay = restore(t, c, config, cp);
                replay
                    .cluster
                    .api_mut()
                    .arm_operator_crash(k, CRASH_DOWN_FOR);
                let Some(converged) = converge(t, c, &mut replay, trial.declaration.clone()) else {
                    continue;
                };
                let after = snapshot(t, &replay);
                let ok = healthy(&replay);
                check(t, c, || {
                    crash_consistency_check(k, &post, &after, ok, converged)
                });
                c.crash_points += 1;
            }
        }
    }
}

/// A schema path as a value path: `@items` is element 0, `@values` the
/// map itself.
pub fn value_path(schema_path: &crdspec::Path) -> crdspec::Path {
    let steps = schema_path
        .steps()
        .iter()
        .filter_map(|step| match step {
            crdspec::Step::Key(k) if k == "@items" => Some(crdspec::Step::Index(0)),
            crdspec::Step::Key(k) if k == "@values" => None,
            other => Some(other.clone()),
        })
        .collect();
    crdspec::Path::from_steps(steps)
}

/// A declaration with empty containers removed, for no-op comparison.
pub fn normalized(v: &Value) -> Value {
    fn strip(v: &Value) -> Option<Value> {
        match v {
            Value::Object(m) => {
                let kept: Vec<(String, Value)> = m
                    .iter()
                    .filter_map(|(k, val)| strip(val).map(|sv| (k.clone(), sv)))
                    .collect();
                (!kept.is_empty()).then(|| Value::Object(kept.into_iter().collect()))
            }
            Value::Array(a) if a.is_empty() => None,
            other => Some(other.clone()),
        }
    }
    strip(v).unwrap_or(Value::Null)
}
