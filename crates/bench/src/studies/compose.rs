//! Composition study: two operators on one shared cluster versus the same
//! two operators tested back-to-back in isolation, plus the efficacy and
//! determinism gates for the composed runners.
//!
//! Fails when a clean pair raises a composition alarm, the seeded
//! cross-operator GC (SEED-COMPOSE-1) goes undetected, or the composed
//! work-stealing runner drifts across worker counts.

use acto::compose::{run_composed_campaign, run_composed_work_stealing_with};
use acto::parallel::DEFAULT_SEGMENT_OPS;
use acto::{run_campaign, CampaignConfig, Mode};
use crdspec::Value;
use operators::bugs;

use super::{int, ms, timed};
use crate::harness::Outcome;

const PAIR: [&str; 2] = ["TiDBOp", "ZooKeeperOp"];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

pub(super) fn run(quick: bool) -> Outcome {
    let max_ops = if quick { Some(24) } else { None };
    let mut failures = Vec::new();
    let pair = Value::from(PAIR.join("+"));

    // Baseline: each member campaigned alone, sequentially — what a
    // single-operator harness would have to run twice.
    let (sequential, sequential_wall) = timed(|| {
        PAIR.map(|operator| {
            let mut config = CampaignConfig::evaluation(operator, Mode::Whitebox);
            config.bugs = bugs::BugToggles::all_fixed();
            config.platform = simkube::PlatformBugs::none();
            config.differential = false;
            config.max_ops = max_ops;
            run_campaign(&config)
        })
    });

    // Composed: both members on one shared cluster, one interleaved plan.
    let mut composed_config = CampaignConfig::composed(&PAIR, Mode::Whitebox);
    composed_config.max_ops = max_ops;
    let (composed, composed_wall) = timed(|| run_composed_campaign(&composed_config));
    let composed = match composed {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                artifact: Value::object([("pair", pair)]),
                failures: vec![format!("composed campaign refused to run: {e}")],
            }
        }
    };
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
    // each run building its own prefixes.
    let mut parallel = Vec::new();
    let mut reference_transcript: Option<String> = None;
    for workers in WORKER_COUNTS {
        let run =
            match run_composed_work_stealing_with(&composed_config, workers, DEFAULT_SEGMENT_OPS) {
                Ok(run) => run,
                Err(e) => {
                    failures.push(format!("composed work stealing at {workers} workers: {e}"));
                    continue;
                }
            };
        let transcript = run.transcript();
        match &reference_transcript {
            None => reference_transcript = Some(transcript),
            Some(reference) if *reference != transcript => failures.push(format!(
                "determinism drift at {workers} workers (composed transcript differs from 1-worker run)"
            )),
            Some(_) => {}
        }
        let depot_hits: usize = run.worker_stats.iter().map(|s| s.depot_hits).sum();
        parallel.push(Value::object([
            ("workers", Value::from(run.workers)),
            ("segments", run.segments.into()),
            ("trials", run.trials.len().into()),
            ("total_sim_seconds", int(run.total_sim_seconds)),
            ("depot_hits", depot_hits.into()),
            ("wall_ms", ms(run.wall)),
        ]));
    }

    let sequential_sim: u64 = sequential.iter().map(|r| r.sim_seconds).sum();
    let sequential_trials: usize = sequential.iter().map(|r| r.trials.len()).sum();
    Outcome {
        artifact: Value::object([
            ("pair", pair),
            (
                "sequential",
                Value::object([
                    ("trials", Value::from(sequential_trials)),
                    ("sim_seconds", int(sequential_sim)),
                    ("wall_ms", ms(sequential_wall)),
                ]),
            ),
            (
                "composed",
                Value::object([
                    ("trials", Value::from(composed.trials.len())),
                    ("sim_seconds", int(composed.total_sim_seconds)),
                    ("interference_events", interference_events.into()),
                    ("alarms", clean_alarms.into()),
                    ("wall_ms", ms(composed_wall)),
                ]),
            ),
            ("seeded_bug_detected", seeded_detected.into()),
            ("parallel", Value::Array(parallel)),
        ]),
        failures,
    }
}
