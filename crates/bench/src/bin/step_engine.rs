//! Wall-clock study of the event-driven step engine vs. the legacy ticked
//! loop: the same sequential evaluation campaign (differential oracles on)
//! over RabbitMQOp and ZooKeeperOp under each engine, verifying that the
//! transcripts stay byte-identical while the event engine skips idle ticks
//! and the fresh-reference cache absorbs repeated declarations.
//!
//! Usage: `step_engine [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_step_engine.json`, stamped with the host's `nproc` and the git
//! rev, into the working directory and exits nonzero on transcript drift,
//! a zero cache-hit count, or an event-engine wall-clock above the
//! budgeted fraction of the ticked baseline.

use std::time::{Duration, Instant};

use acto::{run_campaign, CampaignConfig, CampaignResult, Mode};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use simkube::{engine_counters, set_ticked_engine};

const OPERATORS: [&str; 2] = ["RabbitMQOp", "ZooKeeperOp"];
/// Full runs: the event engine must finish in at most 1/3 of the ticked
/// wall-clock (a >= 3x speedup). Quick runs are tiny and timer-noisy, so
/// they only require the event engine not to be slower than the baseline.
const WALL_BUDGET_FULL: f64 = 1.0 / 3.0;
const WALL_BUDGET_QUICK: f64 = 1.0;
/// Repeats per (operator, engine) measurement; the campaign is
/// deterministic, so the best-of-N wall time discards scheduler noise
/// while the transcript stays constant across repeats.
const REPEATS: usize = 3;

struct EngineRun {
    result: CampaignResult,
    wall: Duration,
    ticks_executed: u64,
    ticks_skipped: u64,
}

fn run_engine(config: &CampaignConfig, ticked: bool) -> EngineRun {
    let mut best: Option<EngineRun> = None;
    for _ in 0..REPEATS {
        set_ticked_engine(ticked);
        let before = engine_counters();
        let start = Instant::now();
        let result = run_campaign(config);
        let wall = start.elapsed();
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

fn main() {
    let quick = quick();
    let budget = if quick {
        WALL_BUDGET_QUICK
    } else {
        WALL_BUDGET_FULL
    };
    let mut failures: Vec<String> = Vec::new();
    let mut json_entries: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

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
        let hits = event.result.ref_cache_hits;
        let misses = event.result.ref_cache_misses;
        if hits == 0 {
            failures.push(format!(
                "{operator}: fresh-reference cache never hit ({misses} misses)"
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
            let simulated = run.ticks_executed + run.ticks_skipped;
            rows.push(vec![
                operator.to_string(),
                engine.to_string(),
                run.result.trials.len().to_string(),
                run.result.sim_seconds.to_string(),
                run.ticks_executed.to_string(),
                simulated.to_string(),
                format!(
                    "{}/{}",
                    run.result.ref_cache_hits, run.result.ref_cache_misses
                ),
                format!("{:.2?}", run.wall),
                format!(
                    "{:.2}",
                    ticked.wall.as_secs_f64() / run.wall.as_secs_f64().max(1e-9)
                ),
            ]);
            json_entries.push(format!(
                concat!(
                    "    {{\"operator\": \"{}\", \"engine\": \"{}\", \"trials\": {}, ",
                    "\"sim_seconds\": {}, \"ticks_executed\": {}, \"ticks_skipped\": {}, ",
                    "\"ref_cache_hits\": {}, \"ref_cache_misses\": {}, \"wall_ms\": {}}}"
                ),
                operator,
                engine,
                run.result.trials.len(),
                run.result.sim_seconds,
                run.ticks_executed,
                run.ticks_skipped,
                run.result.ref_cache_hits,
                run.result.ref_cache_misses,
                run.wall.as_millis(),
            ));
        }
        println!(
            "{operator}: ticked {:.2?} -> event {:.2?} ({:.2}x), {} of {} simulated seconds executed, cache {hits} hits / {misses} misses",
            ticked.wall,
            event.wall,
            ticked.wall.as_secs_f64() / event.wall.as_secs_f64().max(1e-9),
            event.ticks_executed,
            event.ticks_executed + event.ticks_skipped,
        );
    }

    println!(
        "{}",
        render_table(
            "step engine: ticked loop vs event-driven",
            &[
                "operator",
                "engine",
                "trials",
                "sim sec",
                "ticks run",
                "ticks total",
                "cache h/m",
                "wall",
                "speedup",
            ],
            &rows,
        )
    );

    let json = format!(
        "{{\n  \"bench\": \"step_engine\",\n  \"schema_version\": {},\n  \"nproc\": {},\n  \"git_rev\": \"{}\",\n  \"quick\": {},\n  \"wall_budget\": {:.4},\n  \"runs\": [\n{}\n  ]\n}}\n",
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        budget,
        json_entries.join(",\n")
    );
    let path = "BENCH_step_engine.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("step engine: transcripts identical, wall-clock within budget");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
