//! Copy-on-write snapshot study: measures `SimCluster::checkpoint` +
//! `SimCluster::restore` (O(1) structural sharing through the persistent
//! object map) against the deep-clone baseline the store used before the
//! CoW refactor (`ObjectStore::deep_clone` for the snapshot, and a second
//! deep clone for the restore — exactly what a by-value `BTreeMap` of
//! owned objects paid per checkpoint/restore pair).
//!
//! Also records the wall clock of a full whitebox evaluation campaign per
//! operator so regressions in end-to-end throughput show up next to the
//! micro numbers, and asserts the structural-sharing invariant: right
//! after a checkpoint, every object in the snapshot is shared with the
//! live store (nothing was copied).
//!
//! Usage: `snapshot_cow [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_snapshot_cow.json` into the working directory and exits nonzero
//! if the CoW snapshot+restore pair is less than [`SPEEDUP_FLOOR`] times
//! faster than the deep-clone baseline, or if sharing accounting shows a
//! fresh checkpoint owning objects uniquely.

use std::hint::black_box;
use std::time::{Duration, Instant};

use acto::{run_campaign, CampaignConfig, Mode};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use operators::bugs::BugToggles;
use operators::Instance;
use simkube::{PlatformBugs, SimCluster};

const OPERATORS: [&str; 2] = ["RabbitMQOp", "ZooKeeperOp"];
/// Minimum acceptable (deep wall) / (CoW wall) ratio for a
/// snapshot+restore pair. The CoW pair copies a fixed handful of scalars
/// and Arc handles, so the ratio grows with the object count; 10x is the
/// conservative floor the CI smoke job pins even at quick budgets.
const SPEEDUP_FLOOR: f64 = 10.0;
/// Checkpoint/restore pairs per repeat.
const ITERS_FULL: usize = 2000;
const ITERS_QUICK: usize = 200;
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
    let mut failures: Vec<String> = Vec::new();
    let mut json_entries: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    for operator in OPERATORS {
        let deploy = || {
            Instance::deploy(
                operators::registry::operator_by_name(operator),
                BugToggles::all_fixed(),
                PlatformBugs::none(),
            )
            .expect("deploy")
        };
        let instance = deploy();
        let objects = instance.checkpoint().object_count();

        // Structural-sharing invariant: a fresh checkpoint shares every
        // object with the live store — nothing is uniquely owned.
        let cp0 = instance.checkpoint();
        let (shared, owned) = cp0.sharing_stats();
        if owned != 0 || shared != objects {
            failures.push(format!(
                "{operator}: fresh checkpoint owns {owned} objects uniquely \
                 (shared {shared} of {objects}); snapshot is not O(1)"
            ));
        }

        // CoW path: checkpoint the live cluster, restore into a scratch
        // cluster. Both directions are Arc bumps plus scalar copies.
        let mut scratch = SimCluster::from_checkpoint(&instance.cluster.checkpoint());
        let cow_wall = best_wall(iters, || {
            let cp = instance.cluster.checkpoint();
            scratch.restore(&cp);
            black_box(&scratch);
        });
        if scratch.now() != instance.cluster.now()
            || scratch.api().store().iter().count() != objects
        {
            failures.push(format!(
                "{operator}: restored scratch cluster diverged from the source"
            ));
        }

        // Deep baseline: what the pre-CoW store paid — one full traversal
        // to snapshot, a second to restore the snapshot by value.
        let deep_wall = best_wall(iters, || {
            let snap = instance.cluster.api().store().deep_clone();
            let restored = snap.deep_clone();
            black_box(&restored);
        });

        let speedup = deep_wall.as_secs_f64() / cow_wall.as_secs_f64().max(1e-12);
        if speedup < SPEEDUP_FLOOR {
            failures.push(format!(
                "{operator}: CoW snapshot+restore only {speedup:.1}x faster than the \
                 deep-clone baseline (floor {SPEEDUP_FLOOR}x; cow {cow_wall:.2?}, deep {deep_wall:.2?})"
            ));
        }

        // Full-campaign wall: end-to-end throughput guardrail, recorded so
        // the CoW refactor's effect on whole campaigns is visible next to
        // the micro numbers.
        let mut config = CampaignConfig::evaluation(operator, Mode::Whitebox);
        if quick {
            config.max_ops = Some(16);
        }
        let campaign_start = Instant::now();
        let campaign = run_campaign(&config);
        let campaign_wall = campaign_start.elapsed();

        let cow_ns = cow_wall.as_nanos() as f64 / iters as f64;
        let deep_ns = deep_wall.as_nanos() as f64 / iters as f64;
        rows.push(vec![
            operator.to_string(),
            objects.to_string(),
            iters.to_string(),
            format!("{cow_ns:.0}"),
            format!("{deep_ns:.0}"),
            format!("{speedup:.1}"),
            campaign.trials.len().to_string(),
            format!("{campaign_wall:.2?}"),
        ]);
        json_entries.push(format!(
            concat!(
                "    {{\"operator\": \"{}\", \"objects\": {}, \"iters\": {}, ",
                "\"cow_pair_ns\": {:.0}, \"deep_pair_ns\": {:.0}, \"speedup\": {:.2}, ",
                "\"snapshot_shared\": {}, \"snapshot_owned\": {}, ",
                "\"campaign_trials\": {}, \"campaign_wall_ms\": {}}}"
            ),
            operator,
            objects,
            iters,
            cow_ns,
            deep_ns,
            speedup,
            shared,
            owned,
            campaign.trials.len(),
            campaign_wall.as_millis(),
        ));
        println!(
            "{operator}: {objects} objects; snapshot+restore {cow_ns:.0}ns CoW vs \
             {deep_ns:.0}ns deep ({speedup:.1}x); campaign {} trials in {campaign_wall:.2?}",
            campaign.trials.len(),
        );
    }

    println!(
        "{}",
        render_table(
            "snapshot+restore: copy-on-write vs deep clone",
            &[
                "operator",
                "objects",
                "iters",
                "cow ns/pair",
                "deep ns/pair",
                "speedup",
                "trials",
                "campaign wall",
            ],
            &rows,
        )
    );

    let json = format!(
        "{{\n  \"bench\": \"snapshot_cow\",\n  \"schema_version\": {},\n  \"nproc\": {},\n  \"git_rev\": \"{}\",\n  \"quick\": {},\n  \"speedup_floor\": {:.1},\n  \"runs\": [\n{}\n  ]\n}}\n",
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        SPEEDUP_FLOOR,
        json_entries.join(",\n")
    );
    let path = "BENCH_snapshot_cow.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("snapshot cow: O(1) snapshots hold the {SPEEDUP_FLOOR}x floor, sharing invariant intact");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
