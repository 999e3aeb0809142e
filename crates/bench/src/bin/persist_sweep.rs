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
//! `RecoveryPolicy::Salvage`.
//!
//! Usage: `persist_sweep [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_durability.json` into the working directory and exits nonzero
//! on any divergence.

use std::path::PathBuf;
use std::time::Instant;

use acto::fuzz::FuzzConfig;
use acto::{persist_sweep, CampaignConfig, Mode, Strategy, SweepOptions};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use operators::BugToggles;
use simkube::PlatformBugs;

fn campaign_config(max_ops: usize) -> CampaignConfig {
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

fn fuzz_config(execs: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = 0xD17A;
    cfg.execs = execs;
    cfg.batch = 4;
    cfg.workers = 2;
    cfg
}

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("acto-persist-sweep-{}", std::process::id()))
}

fn main() {
    let quick = quick();
    // Both runs must journal at least two records so the bit-flip lands
    // mid-file; segment_ops 4 over max_ops 8 gives two segments, batch 4
    // over 8 execs gives two rounds.
    let (max_ops, execs) = if quick { (8, 8) } else { (16, 24) };
    let opts = SweepOptions {
        campaign: campaign_config(max_ops),
        segment_ops: 4,
        fuzz: fuzz_config(execs),
        scratch: scratch_dir(),
        seed: 0xACCE55,
    };

    let start = Instant::now();
    let sweep = match persist_sweep(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL: sweep aborted: {e}");
            std::process::exit(1);
        }
    };
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&opts.scratch);

    let classes: Vec<String> = sweep
        .recovery_classes
        .iter()
        .map(|(k, v)| format!("{k} x{v}"))
        .collect();
    let rows = vec![
        vec![
            "campaign".to_string(),
            sweep.campaign_boundaries.to_string(),
        ],
        vec!["fuzz".to_string(), sweep.fuzz_boundaries.to_string()],
        vec![
            "resumed after crash".to_string(),
            sweep.resumed_after_crash.to_string(),
        ],
        vec![
            "re-created (pre-commit crash)".to_string(),
            sweep.recreated_after_create_crash.to_string(),
        ],
        vec![
            "transient retries absorbed".to_string(),
            sweep.transient_retries.to_string(),
        ],
        vec![
            "corruptions refused".to_string(),
            sweep.corrupt_refused.to_string(),
        ],
        vec![
            "corruptions salvaged".to_string(),
            sweep.corrupt_salvaged.to_string(),
        ],
        vec![
            "recovery classes".to_string(),
            if classes.is_empty() {
                "-".to_string()
            } else {
                classes.join(", ")
            },
        ],
    ];
    println!(
        "{}",
        render_table(
            "persist sweep: crash boundaries and recovery",
            &["quantity", "value"],
            &rows,
        )
    );

    let class_json: Vec<String> = sweep
        .recovery_classes
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let mismatch_json: Vec<String> = sweep
        .mismatches
        .iter()
        .map(|m| format!("    \"{}\"", m.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"durability\",\n",
            "  \"schema_version\": {},\n",
            "  \"nproc\": {},\n",
            "  \"git_rev\": \"{}\",\n",
            "  \"quick\": {},\n",
            "  \"campaign_boundaries\": {},\n",
            "  \"fuzz_boundaries\": {},\n",
            "  \"resumed_after_crash\": {},\n",
            "  \"recreated_after_create_crash\": {},\n",
            "  \"transient_retries\": {},\n",
            "  \"corrupt_refused\": {},\n",
            "  \"corrupt_salvaged\": {},\n",
            "  \"recovery_classes\": {{\n{}\n  }},\n",
            "  \"mismatches\": [\n{}\n  ],\n",
            "  \"pass\": {},\n",
            "  \"wall_ms\": {}\n",
            "}}\n"
        ),
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        sweep.campaign_boundaries,
        sweep.fuzz_boundaries,
        sweep.resumed_after_crash,
        sweep.recreated_after_create_crash,
        sweep.transient_retries,
        sweep.corrupt_refused,
        sweep.corrupt_salvaged,
        class_json.join(",\n"),
        mismatch_json.join(",\n"),
        sweep.passed(),
        wall.as_millis(),
    );
    let path = "BENCH_durability.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if sweep.passed() {
        println!(
            "durability: {} crash boundaries recovered byte-identically; \
             transients absorbed; corruption classified",
            sweep.boundaries()
        );
    } else {
        for m in &sweep.mismatches {
            eprintln!("FAIL: {m}");
        }
        std::process::exit(1);
    }
}
