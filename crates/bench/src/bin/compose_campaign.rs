//! Composition study: two operators on one shared cluster versus the same
//! two operators tested back-to-back in isolation, plus the efficacy and
//! determinism gates for the composed runners.
//!
//! Usage: `compose_campaign [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_compose.json` into the working directory and exits nonzero when
//! a clean pair raises a composition alarm, the seeded cross-operator GC
//! (SEED-COMPOSE-1) goes undetected, or the composed work-stealing runner
//! drifts across worker counts.

use std::time::Instant;

use acto::compose::{run_composed_campaign, run_composed_work_stealing_with};
use acto::parallel::{SnapshotDepot, DEFAULT_SEGMENT_OPS};
use acto::{run_campaign, CampaignConfig, Mode};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use operators::bugs;

const PAIR: [&str; 2] = ["TiDBOp", "ZooKeeperOp"];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let quick = quick();
    let max_ops = if quick { Some(24) } else { None };
    let mut failures: Vec<String> = Vec::new();

    // Baseline: each member campaigned alone, sequentially — what a
    // single-operator harness would have to run twice.
    let mut sequential_sim = 0u64;
    let mut sequential_trials = 0usize;
    let seq_start = Instant::now();
    for operator in PAIR {
        let mut config = CampaignConfig::evaluation(operator, Mode::Whitebox);
        config.bugs = bugs::BugToggles::all_fixed();
        config.platform = simkube::PlatformBugs::none();
        config.differential = false;
        config.max_ops = max_ops;
        let result = run_campaign(&config);
        sequential_sim += result.sim_seconds;
        sequential_trials += result.trials.len();
    }
    let sequential_wall = seq_start.elapsed();

    // Composed: both members on one shared cluster, one interleaved plan.
    let mut composed_config = CampaignConfig::composed(&PAIR, Mode::Whitebox);
    composed_config.max_ops = max_ops;
    let composed_start = Instant::now();
    let composed = match run_composed_campaign(&composed_config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: composed campaign refused to run: {e}");
            std::process::exit(1);
        }
    };
    let composed_wall = composed_start.elapsed();
    let clean_alarms: usize = composed.trials.iter().map(|t| t.trial.alarms.len()).sum();
    let interference_events: usize = composed.trials.iter().map(|t| t.interference.len()).sum();
    if clean_alarms > 0 {
        failures.push(format!(
            "clean composed pair raised {clean_alarms} alarm(s); composition of correct operators must be silent"
        ));
    }

    // Efficacy gate: the seeded cross-operator GC must be detected and
    // attributed when opted into.
    let mut seeded_config = CampaignConfig::composed(&PAIR, Mode::Whitebox);
    seeded_config.bugs.seed(bugs::SEEDED_CROSS_OPERATOR_GC);
    seeded_config.max_ops = Some(max_ops.unwrap_or(24).min(24));
    let seeded_detected = match run_composed_campaign(&seeded_config) {
        Ok(r) => r
            .summary
            .detected_bugs
            .contains_key(bugs::SEEDED_CROSS_OPERATOR_GC),
        Err(e) => {
            failures.push(format!("seeded composed campaign refused to run: {e}"));
            false
        }
    };
    if !seeded_detected {
        failures.push(format!(
            "{} went undetected in the seeded composed campaign",
            bugs::SEEDED_CROSS_OPERATOR_GC
        ));
    }

    // Determinism gate: the composed work-stealing runner at 1/2/4 workers,
    // sharing one depot so later runs fork checkpoints instead of
    // rebuilding prefixes.
    let depot = SnapshotDepot::new();
    let mut parallel_rows: Vec<Vec<String>> = Vec::new();
    let mut parallel_json: Vec<String> = Vec::new();
    let mut reference_transcript: Option<String> = None;
    for &workers in &WORKER_COUNTS {
        match run_composed_work_stealing_with(
            &composed_config,
            workers,
            DEFAULT_SEGMENT_OPS,
            &depot,
        ) {
            Ok(run) => {
                let transcript = run.transcript();
                match &reference_transcript {
                    None => reference_transcript = Some(transcript),
                    Some(reference) => {
                        if *reference != transcript {
                            failures.push(format!(
                                "determinism drift at {workers} workers (composed transcript differs from 1-worker run)"
                            ));
                        }
                    }
                }
                let depot_hits: usize = run.worker_stats.iter().map(|s| s.depot_hits).sum();
                parallel_rows.push(vec![
                    workers.to_string(),
                    run.segments.to_string(),
                    run.trials.len().to_string(),
                    run.total_sim_seconds.to_string(),
                    depot_hits.to_string(),
                    run.depot_snapshots.to_string(),
                    format!("{:.2?}", run.wall),
                ]);
                parallel_json.push(format!(
                    concat!(
                        "    {{\"workers\": {}, \"segments\": {}, \"trials\": {}, ",
                        "\"total_sim_seconds\": {}, \"depot_hits\": {}, ",
                        "\"depot_snapshots\": {}, \"depot_shared_objects\": {}, ",
                        "\"depot_owned_objects\": {}, \"wall_ms\": {}}}"
                    ),
                    run.workers,
                    run.segments,
                    run.trials.len(),
                    run.total_sim_seconds,
                    depot_hits,
                    run.depot_snapshots,
                    run.depot_shared_objects,
                    run.depot_owned_objects,
                    run.wall.as_millis(),
                ));
            }
            Err(e) => failures.push(format!("composed work stealing at {workers} workers: {e}")),
        }
    }

    println!(
        "{}",
        render_table(
            &format!("composed vs 2x sequential: {}", PAIR.join("+")),
            &["workload", "trials", "sim-seconds", "interference", "wall"],
            &[
                vec![
                    "2x sequential".to_string(),
                    sequential_trials.to_string(),
                    sequential_sim.to_string(),
                    "-".to_string(),
                    format!("{sequential_wall:.2?}"),
                ],
                vec![
                    "composed".to_string(),
                    composed.trials.len().to_string(),
                    composed.total_sim_seconds.to_string(),
                    interference_events.to_string(),
                    format!("{composed_wall:.2?}"),
                ],
            ],
        )
    );
    println!(
        "{}",
        render_table(
            &format!("composed work stealing: {}", PAIR.join("+")),
            &[
                "workers",
                "segments",
                "trials",
                "total sim",
                "depot hits",
                "snapshots",
                "wall"
            ],
            &parallel_rows,
        )
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"compose\",\n  \"schema_version\": {},\n  \"nproc\": {},\n  \"git_rev\": \"{}\",\n  \"quick\": {},\n",
            "  \"pair\": \"{}\",\n",
            "  \"sequential\": {{\"trials\": {}, \"sim_seconds\": {}, \"wall_ms\": {}}},\n",
            "  \"composed\": {{\"trials\": {}, \"sim_seconds\": {}, ",
            "\"interference_events\": {}, \"alarms\": {}, \"wall_ms\": {}}},\n",
            "  \"seeded_bug_detected\": {},\n",
            "  \"parallel\": [\n{}\n  ]\n}}\n"
        ),
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        PAIR.join("+"),
        sequential_trials,
        sequential_sim,
        sequential_wall.as_millis(),
        composed.trials.len(),
        composed.total_sim_seconds,
        interference_events,
        clean_alarms,
        composed_wall.as_millis(),
        seeded_detected,
        parallel_json.join(",\n")
    );
    let path = "BENCH_compose.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!(
            "compose: clean pair silent, {} detected when seeded, all worker counts deterministic",
            bugs::SEEDED_CROSS_OPERATOR_GC
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
