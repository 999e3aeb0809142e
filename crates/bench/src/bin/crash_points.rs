//! Crash-point sweep study: measures what the checkpoint-restore replay
//! model saves over the naive alternative.
//!
//! The sweep replays every converged transition once per write boundary,
//! each replay forking the live convergence wait: an O(1) restore of the
//! checkpoint taken at the start of the tick that makes the boundary's
//! write, then only that tick and the post-crash tail. The naive design
//! (what a real-cluster harness pays) would re-deploy a fresh system and
//! re-converge it for every boundary. This bench pins the per-replay
//! setup cost of both models and derives the *reuse multiplier* — how
//! many times cheaper a swept boundary's setup is thanks to checkpoint
//! reuse — plus end-to-end campaign numbers with the sweep on versus off,
//! so the total sweep overhead (`sweep_boundary_us`, the realized price of
//! one boundary) stays visible.
//!
//! Usage: `crash_points [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_crash_points.json`, stamped with the host's `nproc` and the git
//! revision, into the working directory and exits nonzero if the reuse
//! multiplier drops below [`MULTIPLIER_FLOOR`], the sweep replays zero
//! boundaries, or a bugs-off sweep raises a crash-consistency alarm.

use std::hint::black_box;
use std::time::{Duration, Instant};

use acto::{run_campaign, AlarmKind, CampaignConfig, Mode};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use operators::bugs::BugToggles;
use operators::Instance;
use simkube::PlatformBugs;

const OPERATORS: [&str; 2] = ["ZooKeeperOp", "RabbitMQOp"];
/// Minimum acceptable (naive re-deploy wall) / (checkpoint-restore wall)
/// per replay setup. A restore is Arc bumps and scalar copies; a deploy
/// simulates the whole bring-up, so even quick budgets clear 5x easily.
const MULTIPLIER_FLOOR: f64 = 5.0;
/// Setup repetitions per measurement.
const ITERS_FULL: usize = 200;
const ITERS_QUICK: usize = 40;
/// Best-of-N repeats; the work is deterministic, so the minimum wall
/// discards scheduler noise.
const REPEATS: usize = 3;

/// Best-of-[`REPEATS`] wall clock of `iters` executions of `body`.
fn best_wall(iters: usize, mut body: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let quick = quick();
    let iters = if quick { ITERS_QUICK } else { ITERS_FULL };
    let max_ops = if quick { 6 } else { 12 };
    let mut failures: Vec<String> = Vec::new();
    let mut json_entries: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    for operator in OPERATORS {
        // Per-replay setup cost, both models. The sweep restores a
        // checkpoint; the naive model re-deploys from scratch (which
        // includes converging the bring-up).
        let reference = Instance::deploy(
            operators::registry::operator_by_name(operator),
            BugToggles::all_fixed(),
            PlatformBugs::none(),
        )
        .expect("deploy");
        let cp = reference.checkpoint();
        let restore_wall = best_wall(iters, || {
            let replay = Instance::from_checkpoint(
                operators::registry::operator_by_name(operator),
                BugToggles::all_fixed(),
                &cp,
            );
            black_box(&replay);
        });
        let deploy_wall = best_wall(iters, || {
            let fresh = Instance::deploy(
                operators::registry::operator_by_name(operator),
                BugToggles::all_fixed(),
                PlatformBugs::none(),
            )
            .expect("deploy");
            black_box(&fresh);
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
        let off_start = Instant::now();
        let off = run_campaign(&base_config);
        let off_wall = off_start.elapsed();
        if off.trials.len() != max_ops {
            failures.push(format!(
                "{operator}: sweep-off campaign ran {} trials, expected {max_ops}",
                off.trials.len()
            ));
        }

        let mut sweep_config = base_config.clone();
        sweep_config.crash_sweep = true;
        let on_start = Instant::now();
        let on = run_campaign(&sweep_config);
        let on_wall = on_start.elapsed();

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
        let restore_us = restore_wall.as_micros() as f64 / iters as f64;
        let deploy_us = deploy_wall.as_micros() as f64 / iters as f64;
        rows.push(vec![
            operator.to_string(),
            on.trials.len().to_string(),
            on.crash_points_swept.to_string(),
            format!("{restore_us:.0}"),
            format!("{deploy_us:.0}"),
            format!("{multiplier:.1}"),
            format!("{per_boundary_us:.0}"),
            format!("{on_wall:.2?}"),
        ]);
        json_entries.push(format!(
            concat!(
                "    {{\"operator\": \"{}\", \"trials\": {}, \"boundaries_swept\": {}, ",
                "\"restore_setup_us\": {:.1}, \"deploy_setup_us\": {:.1}, ",
                "\"reuse_multiplier\": {:.2}, \"sweep_boundary_us\": {:.1}, ",
                "\"campaign_off_ms\": {}, \"campaign_on_ms\": {}, \"crash_alarms\": {}}}"
            ),
            operator,
            on.trials.len(),
            on.crash_points_swept,
            restore_us,
            deploy_us,
            multiplier,
            per_boundary_us,
            off_wall.as_millis(),
            on_wall.as_millis(),
            crash_alarms,
        ));
        println!(
            "{operator}: {} boundaries over {} trials; setup {restore_us:.0}us restore vs \
             {deploy_us:.0}us deploy ({multiplier:.1}x); sweep adds {sweep_extra:.2?} \
             ({per_boundary_us:.0}us/boundary)",
            on.crash_points_swept,
            on.trials.len(),
        );
    }

    println!(
        "{}",
        render_table(
            "crash-point sweep: checkpoint reuse vs naive re-deploy",
            &[
                "operator",
                "trials",
                "boundaries",
                "restore us",
                "deploy us",
                "reuse x",
                "us/boundary",
                "sweep wall",
            ],
            &rows,
        )
    );

    let json = format!(
        "{{\n  \"bench\": \"crash_points\",\n  \"schema_version\": {},\n  \"nproc\": {},\n  \"git_rev\": \"{}\",\n  \"quick\": {},\n  \"multiplier_floor\": {:.1},\n  \"runs\": [\n{}\n  ]\n}}\n",
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        MULTIPLIER_FLOOR,
        json_entries.join(",\n")
    );
    let path = "BENCH_crash_points.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!(
            "crash points: checkpoint reuse holds the {MULTIPLIER_FLOOR}x floor, \
             sweeps replay boundaries and stay alarm-free with bugs off"
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
