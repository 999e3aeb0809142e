//! Scaling study for the work-stealing parallel runner (paper §5.5): the
//! same campaign at 1/2/4/8 workers over RabbitMQOp and ZooKeeperOp,
//! verifying that worker count never changes what the campaign observes
//! and that stealing actually shortens the makespan.
//!
//! Usage: `parallel_scaling [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_parallel_scaling.json` into the working directory and exits
//! nonzero on determinism drift, worker panics, or a 4-worker makespan
//! above 0.6x the single-worker total.

use acto::parallel::{run_work_stealing_with, ParallelResult, SnapshotDepot, DEFAULT_SEGMENT_OPS};
use acto::{CampaignConfig, Mode};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPERATORS: [&str; 2] = ["RabbitMQOp", "ZooKeeperOp"];
/// Acceptance threshold: the 4-worker makespan must be at most this
/// fraction of the single-worker total sim-seconds.
const MAKESPAN_RATIO: f64 = 0.6;

fn main() {
    let quick = quick();
    let mut failures: Vec<String> = Vec::new();
    let mut json_entries: Vec<String> = Vec::new();

    for operator in OPERATORS {
        let mut config = CampaignConfig::evaluation(operator, Mode::Whitebox);
        config.differential = false;
        if quick {
            config.max_ops = Some(24);
        }
        // One depot per operator: runs after the first restore every
        // prefix state instead of recomputing jumps.
        let depot = SnapshotDepot::new();
        let runs: Vec<ParallelResult> = WORKER_COUNTS
            .iter()
            .map(|&w| run_work_stealing_with(&config, w, DEFAULT_SEGMENT_OPS, &depot))
            .collect();

        let reference = runs[0].transcript();
        for run in &runs {
            if !run.failed_segments.is_empty() {
                failures.push(format!(
                    "{operator}: {} worker(s) panicked in {} segment(s): {}",
                    run.workers,
                    run.failed_segments.len(),
                    run.failed_segments
                        .iter()
                        .map(|f| f.panic.as_str())
                        .collect::<Vec<_>>()
                        .join("; ")
                ));
            }
            if run.transcript() != reference {
                failures.push(format!(
                    "{operator}: determinism drift at {} workers (transcript differs from 1-worker run)",
                    run.workers
                ));
            }
        }
        let sequential_total = runs[0].total_sim_seconds;
        let four = runs
            .iter()
            .find(|r| r.workers == 4.min(r.segments))
            .unwrap_or(&runs[2]);
        let ratio = four.makespan_sim_seconds as f64 / sequential_total.max(1) as f64;
        if ratio > MAKESPAN_RATIO {
            failures.push(format!(
                "{operator}: 4-worker makespan {} is {:.2}x the sequential total {} (budget {:.1}x)",
                four.makespan_sim_seconds, ratio, sequential_total, MAKESPAN_RATIO
            ));
        }

        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                vec![
                    r.workers.to_string(),
                    r.segments.to_string(),
                    r.trials.len().to_string(),
                    r.total_sim_seconds.to_string(),
                    r.makespan_sim_seconds.to_string(),
                    format!(
                        "{:.2}",
                        sequential_total as f64 / r.makespan_sim_seconds.max(1) as f64
                    ),
                    r.worker_stats
                        .iter()
                        .map(|s| s.steals)
                        .sum::<usize>()
                        .to_string(),
                    format!("{:.2?}", r.wall),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "parallel scaling: {operator} ({} ops/segment)",
                    DEFAULT_SEGMENT_OPS
                ),
                &[
                    "workers",
                    "segments",
                    "trials",
                    "total sim",
                    "makespan",
                    "speedup",
                    "steals",
                    "wall",
                ],
                &rows,
            )
        );

        for run in &runs {
            json_entries.push(format!(
                concat!(
                    "    {{\"operator\": \"{}\", \"workers\": {}, \"segments\": {}, ",
                    "\"segment_ops\": {}, \"trials\": {}, \"total_sim_seconds\": {}, ",
                    "\"makespan_sim_seconds\": {}, \"base_sim_seconds\": {}, ",
                    "\"steals\": {}, \"depot_hits\": {}, \"failed_segments\": {}, ",
                    "\"wall_ms\": {}}}"
                ),
                run.operator,
                run.workers,
                run.segments,
                run.segment_ops,
                run.trials.len(),
                run.total_sim_seconds,
                run.makespan_sim_seconds,
                run.base_sim_seconds,
                run.worker_stats.iter().map(|s| s.steals).sum::<usize>(),
                run.worker_stats.iter().map(|s| s.depot_hits).sum::<usize>(),
                run.failed_segments.len(),
                run.wall.as_millis(),
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"parallel_scaling\",\n  \"schema_version\": {},\n  \"nproc\": {},\n  \"git_rev\": \"{}\",\n  \"quick\": {},\n  \"makespan_budget\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        MAKESPAN_RATIO,
        json_entries.join(",\n")
    );
    let path = "BENCH_parallel_scaling.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("parallel scaling: all worker counts deterministic, makespan within budget");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
