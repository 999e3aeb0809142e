//! Crash-point sweep study: measures what the checkpoint-restore replay
//! model saves over the naive alternative.
//!
//! The sweep replays every converged transition once per write boundary,
//! each replay forking the live convergence wait: an O(1) restore of the
//! checkpoint taken at the start of the tick that makes the boundary's
//! write, then only that tick and the post-crash tail. The naive design
//! (what a real-cluster harness pays) would re-deploy a fresh system and
//! re-converge it for every boundary. This study pins the per-replay
//! setup cost of both models and derives the *reuse multiplier* — how
//! many times cheaper a swept boundary's setup is thanks to checkpoint
//! reuse — plus end-to-end campaign numbers with the sweep on versus off,
//! so the total sweep overhead (`sweep_boundary_us`, the realized price of
//! one boundary) stays visible.
//!
//! Fails if the reuse multiplier drops below [`MULTIPLIER_FLOOR`], the
//! sweep replays zero boundaries, or a bugs-off sweep raises a
//! crash-consistency alarm.

use std::hint::black_box;

use acto::{run_campaign, AlarmKind, CampaignConfig, CampaignResult, Mode};
use crdspec::Value;
use operators::bugs::BugToggles;
use operators::Instance;
use simkube::PlatformBugs;

use super::{best_wall, ms, round, timed};
use crate::harness::Outcome;

const OPERATORS: [&str; 2] = ["ZooKeeperOp", "RabbitMQOp"];
/// Minimum acceptable (naive re-deploy wall) / (checkpoint-restore wall)
/// per replay setup. A restore is Arc bumps and scalar copies; a deploy
/// simulates the whole bring-up, so even quick budgets clear 5x easily.
const MULTIPLIER_FLOOR: f64 = 5.0;
/// Setup repetitions per measurement.
const ITERS_FULL: usize = 200;
const ITERS_QUICK: usize = 40;

pub(super) fn run(quick: bool) -> Outcome {
    let iters = if quick { ITERS_QUICK } else { ITERS_FULL };
    let max_ops = if quick { 6 } else { 12 };
    let mut failures = Vec::new();
    let mut records = Vec::new();

    for operator in OPERATORS {
        // Per-replay setup cost, both models. The sweep restores a
        // checkpoint; the naive model re-deploys from scratch (which
        // includes converging the bring-up).
        let deploy = || {
            Instance::deploy(
                operators::registry::operator_by_name(operator),
                BugToggles::all_fixed(),
                PlatformBugs::none(),
            )
            .expect("deploy")
        };
        let cp = deploy().checkpoint();
        let restore_wall = best_wall(iters, || {
            let replay = Instance::from_checkpoint(
                operators::registry::operator_by_name(operator),
                BugToggles::all_fixed(),
                &cp,
            );
            black_box(&replay);
        });
        let deploy_wall = best_wall(iters, || {
            black_box(&deploy());
        });
        let multiplier = deploy_wall.as_secs_f64() / restore_wall.as_secs_f64().max(1e-12);
        if multiplier < MULTIPLIER_FLOOR {
            failures.push(format!(
                "{operator}: checkpoint reuse only {multiplier:.1}x cheaper than naive \
                 re-deploy (floor {MULTIPLIER_FLOOR}x; restore {restore_wall:.2?}, \
                 deploy {deploy_wall:.2?})"
            ));
        }

        // End-to-end: the same campaign with the sweep off, then on. The
        // delta is the full sweep cost; dividing by the boundary count
        // gives the realized per-boundary price (setup + replayed
        // convergence).
        let mut base_config = CampaignConfig::evaluation(operator, Mode::Whitebox);
        base_config.bugs = BugToggles::all_fixed();
        base_config.platform = PlatformBugs::none();
        base_config.differential = false;
        base_config.max_ops = Some(max_ops);
        let (off, off_wall) = timed(|| run_campaign(&base_config));
        let mut sweep_config = base_config.clone();
        sweep_config.crash_sweep = true;
        let (on, on_wall) = timed(|| run_campaign(&sweep_config));
        // `max_ops` caps planned ops, and a planned no-op runs no trial:
        // both campaigns must run the same planned ops inside the cap, so
        // the wall delta prices the sweep alone.
        let ops = |r: &CampaignResult| r.trials.iter().map(|t| t.op.index).collect::<Vec<_>>();
        if ops(&off).is_empty() || ops(&off) != ops(&on) || ops(&off).iter().any(|&i| i >= max_ops)
        {
            failures.push(format!(
                "{operator}: sweep-off and sweep-on campaigns ran planned ops {:?} and {:?}; \
                 expected the same ops, all below max_ops {max_ops}",
                ops(&off),
                ops(&on)
            ));
        }

        if on.crash_points_swept == 0 {
            failures.push(format!(
                "{operator}: the sweep replayed zero write boundaries over {} trials",
                on.trials.len()
            ));
        }
        let crash_alarms = on
            .trials
            .iter()
            .flat_map(|t| &t.alarms)
            .filter(|a| a.kind == AlarmKind::CrashConsistency)
            .count();
        if crash_alarms > 0 {
            failures.push(format!(
                "{operator}: bugs-off sweep raised {crash_alarms} crash-consistency alarms"
            ));
        }

        let sweep_extra = on_wall.saturating_sub(off_wall);
        let per_boundary_us = if on.crash_points_swept > 0 {
            sweep_extra.as_micros() as f64 / on.crash_points_swept as f64
        } else {
            0.0
        };
        let per_setup = |wall: std::time::Duration| wall.as_micros() as f64 / iters as f64;
        records.push(Value::object([
            ("operator", Value::from(operator)),
            ("trials", on.trials.len().into()),
            ("boundaries_swept", super::int(on.crash_points_swept)),
            ("restore_setup_us", round(per_setup(restore_wall), 1)),
            ("deploy_setup_us", round(per_setup(deploy_wall), 1)),
            ("reuse_multiplier", round(multiplier, 2)),
            ("sweep_boundary_us", round(per_boundary_us, 1)),
            ("campaign_off_ms", ms(off_wall)),
            ("campaign_on_ms", ms(on_wall)),
            ("crash_alarms", crash_alarms.into()),
        ]));
    }
    Outcome {
        artifact: Value::object([
            ("multiplier_floor", Value::from(MULTIPLIER_FLOOR)),
            ("runs", Value::Array(records)),
        ]),
        failures,
    }
}
