//! Durability sweep: Acto's crash-point sweep turned on its own run
//! store.
//!
//! Runs [`acto::persist_sweep`]: a quick campaign and a quick fuzz run
//! are each crashed at *every* mutating IO boundary through the seeded
//! `StoreIo` fault injector, recovered (resume when the manifest commit
//! point was reached, re-create otherwise, cycling 1/2/4 workers), and
//! required to reproduce the uninterrupted run's transcript byte for
//! byte. Injected transient `EIO`-style errors must be absorbed by the
//! bounded-backoff retry loop, and a seeded bit flip in a mid-journal
//! record must be refused with a classified error under
//! `RecoveryPolicy::Refuse` and salvaged byte-identically under
//! `RecoveryPolicy::Salvage`. Fails on any divergence.

use acto::{persist_sweep, SweepOptions};
use crdspec::Value;

use super::{int, journaled_campaign, ms, timed, zookeeper_fuzz};
use crate::harness::Outcome;

pub(super) fn run(quick: bool) -> Outcome {
    // Both runs must journal at least two records so the bit-flip lands
    // mid-file; segment_ops 4 over max_ops 8 gives two segments, batch 4
    // over 8 execs gives two rounds.
    let (max_ops, execs) = if quick { (8, 8) } else { (16, 24) };
    let opts = SweepOptions {
        campaign: journaled_campaign(max_ops),
        segment_ops: 4,
        fuzz: zookeeper_fuzz(execs, 0xD17A, 4, 2),
        scratch: std::env::temp_dir().join(format!("acto-persist-sweep-{}", std::process::id())),
        seed: 0xACCE55,
    };
    let (sweep, wall) = timed(|| persist_sweep(&opts));
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let sweep = match sweep {
        Ok(s) => s,
        Err(e) => {
            return Outcome {
                artifact: Value::empty_object(),
                failures: vec![format!("sweep aborted: {e}")],
            }
        }
    };
    let classes = sweep.recovery_classes.iter();
    Outcome {
        artifact: Value::object([
            ("campaign_boundaries", int(sweep.campaign_boundaries)),
            ("fuzz_boundaries", int(sweep.fuzz_boundaries)),
            ("resumed_after_crash", int(sweep.resumed_after_crash)),
            (
                "recreated_after_create_crash",
                int(sweep.recreated_after_create_crash),
            ),
            ("transient_retries", int(sweep.transient_retries)),
            ("corrupt_refused", int(sweep.corrupt_refused)),
            ("corrupt_salvaged", int(sweep.corrupt_salvaged)),
            (
                "recovery_classes",
                Value::object(classes.map(|(k, &v)| (k.clone(), int(v)))),
            ),
            (
                "mismatches",
                Value::array(sweep.mismatches.iter().map(|m| Value::from(&**m))),
            ),
            ("pass", sweep.passed().into()),
            ("wall_ms", ms(wall)),
        ]),
        failures: sweep.mismatches,
    }
}
