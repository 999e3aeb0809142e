//! Scaling study for the work-stealing parallel runner (paper §5.5): the
//! same campaign at 1/2/4/8 workers over RabbitMQOp and ZooKeeperOp,
//! verifying that worker count never changes what the campaign observes
//! and that stealing actually shortens the makespan.
//!
//! Fails on worker panics, on determinism drift, or on a 4-worker
//! makespan above [`MAKESPAN_RATIO`] of the single-worker total. Each
//! record carries the deterministic makespan (the claim-rule replay)
//! beside the measured busiest worker's sim-seconds.

use acto::parallel::{run_work_stealing_with, ParallelResult, DEFAULT_SEGMENT_OPS};
use acto::{CampaignConfig, Mode};
use crdspec::Value;

use super::{int, ms, round};
use crate::harness::Outcome;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPERATORS: [&str; 2] = ["RabbitMQOp", "ZooKeeperOp"];
/// Acceptance threshold: the 4-worker makespan must be at most this
/// fraction of the single-worker total sim-seconds.
const MAKESPAN_RATIO: f64 = 0.6;

pub(super) fn run(quick: bool) -> Outcome {
    let mut failures = Vec::new();
    let mut records = Vec::new();
    for operator in OPERATORS {
        let mut config = CampaignConfig::evaluation(operator, Mode::Whitebox);
        config.differential = false;
        if quick {
            config.max_ops = Some(24);
        }
        // Every run builds its own prefixes, so the worker counts are
        // measured alike.
        let runs: Vec<ParallelResult> = WORKER_COUNTS
            .iter()
            .map(|&w| run_work_stealing_with(&config, w, DEFAULT_SEGMENT_OPS))
            .collect();

        let reference = runs[0].transcript();
        for run in &runs {
            if !run.failed_segments.is_empty() {
                let panics: Vec<&str> = run.failed_segments.iter().map(|f| &*f.panic).collect();
                failures.push(format!(
                    "{operator}: {} worker(s) panicked in {} segment(s): {}",
                    run.workers,
                    panics.len(),
                    panics.join("; ")
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

        records.extend(runs.iter().map(|run| {
            let stats = &run.worker_stats;
            let busiest = stats.iter().map(|s| s.sim_seconds).max().unwrap_or(0);
            let steals: usize = stats.iter().map(|s| s.steals).sum();
            let depot_hits: usize = stats.iter().map(|s| s.depot_hits).sum();
            let speedup = sequential_total as f64 / run.makespan_sim_seconds.max(1) as f64;
            Value::object([
                ("operator", Value::from(&*run.operator)),
                ("workers", run.workers.into()),
                ("segments", run.segments.into()),
                ("segment_ops", run.segment_ops.into()),
                ("trials", run.trials.len().into()),
                ("total_sim_seconds", int(run.total_sim_seconds)),
                ("makespan_sim_seconds", int(run.makespan_sim_seconds)),
                ("measured_makespan_sim_seconds", int(busiest)),
                ("base_sim_seconds", int(run.base_sim_seconds)),
                ("speedup", round(speedup, 2)),
                ("steals", steals.into()),
                ("depot_hits", depot_hits.into()),
                ("failed_segments", run.failed_segments.len().into()),
                ("wall_ms", ms(run.wall)),
            ])
        }));
    }
    Outcome {
        artifact: Value::object([
            ("makespan_budget", Value::from(MAKESPAN_RATIO)),
            ("runs", Value::Array(records)),
        ]),
        failures,
    }
}
