//! Wall-clock study of the event-driven step engine vs. the legacy ticked
//! loop: the same sequential evaluation campaign (differential oracles on)
//! over RabbitMQOp and ZooKeeperOp under each engine, verifying that the
//! transcripts stay byte-identical while the event engine skips idle ticks
//! and the fresh-reference cache absorbs repeated declarations.
//!
//! Fails on transcript drift, a zero cache-hit count, or an event-engine
//! wall-clock above the budgeted fraction of the ticked baseline.

use std::time::Duration;

use acto::{run_campaign, CampaignConfig, CampaignResult, Mode};
use crdspec::Value;
use simkube::{engine_counters, set_ticked_engine};

use super::{int, ms, round, timed, REPEATS};
use crate::harness::Outcome;

const OPERATORS: [&str; 2] = ["RabbitMQOp", "ZooKeeperOp"];
/// Full runs: the event engine must finish in at most 1/3 of the ticked
/// wall-clock (a >= 3x speedup). Quick runs are tiny and timer-noisy, so
/// they only require the event engine not to be slower than the baseline.
const WALL_BUDGET_FULL: f64 = 1.0 / 3.0;
const WALL_BUDGET_QUICK: f64 = 1.0;

struct EngineRun {
    result: CampaignResult,
    wall: Duration,
    ticks_executed: u64,
    ticks_skipped: u64,
}

/// The best-of-[`REPEATS`] run of `config` under one engine; the
/// transcript must stay constant across repeats.
fn run_engine(config: &CampaignConfig, ticked: bool) -> EngineRun {
    let mut best: Option<EngineRun> = None;
    for _ in 0..REPEATS {
        set_ticked_engine(ticked);
        let before = engine_counters();
        let (result, wall) = timed(|| run_campaign(config));
        let after = engine_counters();
        set_ticked_engine(false);
        let run = EngineRun {
            result,
            wall,
            ticks_executed: after.0 - before.0,
            ticks_skipped: after.1 - before.1,
        };
        if let Some(prev) = &best {
            assert_eq!(
                prev.result.transcript(),
                run.result.transcript(),
                "nondeterministic campaign transcript across repeats"
            );
        }
        if best.as_ref().is_none_or(|b| run.wall < b.wall) {
            best = Some(run);
        }
    }
    best.expect("at least one repeat")
}

pub(super) fn run(quick: bool) -> Outcome {
    let budget = if quick {
        WALL_BUDGET_QUICK
    } else {
        WALL_BUDGET_FULL
    };
    let mut failures = Vec::new();
    let mut records = Vec::new();

    for operator in OPERATORS {
        let mut config = CampaignConfig::evaluation(operator, Mode::Whitebox);
        if quick {
            config.max_ops = Some(16);
        }
        let ticked = run_engine(&config, true);
        let event = run_engine(&config, false);

        if ticked.result.transcript() != event.result.transcript() {
            failures.push(format!(
                "{operator}: transcript drift between ticked and event engines"
            ));
        }
        if ticked.result.sim_seconds != event.result.sim_seconds {
            failures.push(format!(
                "{operator}: sim-seconds diverged (ticked {} vs event {})",
                ticked.result.sim_seconds, event.result.sim_seconds
            ));
        }
        if event.result.ref_cache_hits == 0 {
            failures.push(format!(
                "{operator}: fresh-reference cache never hit ({} misses)",
                event.result.ref_cache_misses
            ));
        }
        let ratio = event.wall.as_secs_f64() / ticked.wall.as_secs_f64().max(1e-9);
        if ratio > budget {
            failures.push(format!(
                "{operator}: event engine wall {:.2?} is {:.2}x the ticked baseline {:.2?} (budget {:.2}x)",
                event.wall, ratio, ticked.wall, budget
            ));
        }

        for (engine, run) in [("ticked", &ticked), ("event", &event)] {
            let speedup = ticked.wall.as_secs_f64() / run.wall.as_secs_f64().max(1e-9);
            records.push(Value::object([
                ("operator", Value::from(operator)),
                ("engine", engine.into()),
                ("trials", run.result.trials.len().into()),
                ("sim_seconds", int(run.result.sim_seconds)),
                ("ticks_executed", int(run.ticks_executed)),
                ("ticks_skipped", int(run.ticks_skipped)),
                ("ref_cache_hits", run.result.ref_cache_hits.into()),
                ("ref_cache_misses", run.result.ref_cache_misses.into()),
                ("wall_ms", ms(run.wall)),
                ("speedup", round(speedup, 2)),
            ]));
        }
    }
    Outcome {
        artifact: Value::object([
            ("wall_budget", round(budget, 4)),
            ("runs", Value::Array(records)),
        ]),
        failures,
    }
}
