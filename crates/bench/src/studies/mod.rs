//! The nine studies behind the `bench` binary, one module each, named
//! after the artifact it writes. Each runs its measurement, checks its
//! gates and returns a [`crate::harness::Outcome`]: the artifact's fields
//! as a [`Value`] object plus every gate it failed. The harness does the
//! stamping, writing, printing and exit code for all of them.

use std::time::{Duration, Instant};

use acto::fuzz::FuzzConfig;
use acto::{CampaignConfig, Mode, Strategy};
use crdspec::Value;
use operators::BugToggles;
use simkube::PlatformBugs;

use crate::harness::Study;

mod cluster_scale;
mod compose;
mod crash_points;
mod durability;
mod fuzz;
mod parallel_scaling;
mod resume;
mod snapshot_cow;
mod step_engine;

/// Every study, in the order `bench` runs them when none is named.
pub const STUDIES: [Study; 9] = [
    Study {
        name: "parallel_scaling",
        run: parallel_scaling::run,
    },
    Study {
        name: "step_engine",
        run: step_engine::run,
    },
    Study {
        name: "snapshot_cow",
        run: snapshot_cow::run,
    },
    Study {
        name: "crash_points",
        run: crash_points::run,
    },
    Study {
        name: "compose",
        run: compose::run,
    },
    Study {
        name: "cluster_scale",
        run: cluster_scale::run,
    },
    Study {
        name: "fuzz",
        run: fuzz::run,
    },
    Study {
        name: "resume",
        run: resume::run,
    },
    Study {
        name: "durability",
        run: durability::run,
    },
];

/// An integer field; a count too large for `i64` saturates.
fn int(x: impl TryInto<i64>) -> Value {
    Value::Integer(x.try_into().unwrap_or(i64::MAX))
}

/// A wall-clock field in whole milliseconds.
fn ms(d: Duration) -> Value {
    int(d.as_millis())
}

/// A float field rounded to `places` decimals.
fn round(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Float((x * scale).round() / scale)
}

/// Best-of-N repeats for a timing; the work is deterministic, so the
/// minimum wall discards scheduler noise.
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

/// `body`'s result and its wall clock.
fn timed<R>(body: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = body();
    (r, start.elapsed())
}

/// The ZooKeeperOp whitebox campaign with every bug injected that the
/// resume and durability studies journal, capped at `max_ops`.
fn journaled_campaign(max_ops: usize) -> CampaignConfig {
    CampaignConfig {
        operators: vec!["ZooKeeperOp".to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(max_ops),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: false,
        topology: None,
    }
}

/// A ZooKeeperOp fuzz run: `execs` execs from `seed`, `batch` per round,
/// over `workers` workers.
fn zookeeper_fuzz(execs: usize, seed: u64, batch: usize, workers: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = seed;
    cfg.execs = execs;
    cfg.batch = batch;
    cfg.workers = workers;
    cfg
}
