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
//! Fails if the CoW snapshot+restore pair is less than [`SPEEDUP_FLOOR`]
//! times faster than the deep-clone baseline, or if sharing accounting
//! shows a fresh checkpoint owning objects uniquely.

use std::hint::black_box;

use acto::{run_campaign, CampaignConfig, Mode};
use crdspec::Value;
use operators::bugs::BugToggles;
use operators::Instance;
use simkube::{PlatformBugs, SimCluster};

use super::{best_wall, ms, round, timed};
use crate::harness::Outcome;

const OPERATORS: [&str; 2] = ["RabbitMQOp", "ZooKeeperOp"];
/// Minimum acceptable (deep wall) / (CoW wall) ratio for a
/// snapshot+restore pair. The CoW pair copies a fixed handful of scalars
/// and Arc handles, so the ratio grows with the object count; 10x is the
/// conservative floor the CI smoke job pins even at quick budgets.
const SPEEDUP_FLOOR: f64 = 10.0;
/// Checkpoint/restore pairs per repeat.
const ITERS_FULL: usize = 2000;
const ITERS_QUICK: usize = 200;

pub(super) fn run(quick: bool) -> Outcome {
    let iters = if quick { ITERS_QUICK } else { ITERS_FULL };
    let mut failures = Vec::new();
    let mut records = Vec::new();

    for operator in OPERATORS {
        let instance = Instance::deploy(
            operators::registry::operator_by_name(operator),
            BugToggles::all_fixed(),
            PlatformBugs::none(),
        )
        .expect("deploy");
        let objects = instance.checkpoint().object_count();

        // Structural-sharing invariant: a fresh checkpoint shares every
        // object with the live store — nothing is uniquely owned.
        let (shared, owned) = instance.checkpoint().sharing_stats();
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
        let (campaign, campaign_wall) = timed(|| run_campaign(&config));

        let per_pair = |wall: std::time::Duration| wall.as_nanos() as f64 / iters as f64;
        records.push(Value::object([
            ("operator", Value::from(operator)),
            ("objects", objects.into()),
            ("iters", iters.into()),
            ("cow_pair_ns", round(per_pair(cow_wall), 0)),
            ("deep_pair_ns", round(per_pair(deep_wall), 0)),
            ("speedup", round(speedup, 2)),
            ("snapshot_shared", shared.into()),
            ("snapshot_owned", owned.into()),
            ("campaign_trials", campaign.trials.len().into()),
            ("campaign_wall_ms", ms(campaign_wall)),
        ]));
    }
    Outcome {
        artifact: Value::object([
            ("speedup_floor", Value::from(SPEEDUP_FLOOR)),
            ("runs", Value::Array(records)),
        ]),
        failures,
    }
}
