//! Determinism of the coverage-guided fuzzer.
//!
//! Every random decision flows from the single master seed on the
//! coordinating thread, execution of one input is a pure function of
//! `(config, input)`, and per-worker results merge at batch boundaries in
//! input order — so the transcript, the final corpus, and the coverage map
//! must be byte-identical across repeat runs and for *any* worker count,
//! mirroring `tests/parallel_determinism.rs` for the campaign runner.

use acto_repro::acto::fuzz::{replay_corpus, run_fuzz, Corpus, FuzzConfig};
use acto_repro::acto::report::render_fuzz;
use proptest::prelude::*;

fn small_config(seed: u64, workers: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = seed;
    cfg.execs = 24;
    cfg.batch = 8;
    cfg.workers = workers;
    cfg
}

#[test]
fn fuzz_is_deterministic_across_repeats_and_worker_counts() {
    let reference = run_fuzz(&small_config(0xF5ED, 1)).expect("fuzz config");
    assert!(!reference.records.is_empty());
    assert!(
        !reference.corpus.entries.is_empty(),
        "a fresh run must bank at least the first input's territory"
    );
    // Repeat at the same worker count: byte-identical.
    let repeat = run_fuzz(&small_config(0xF5ED, 1)).expect("fuzz config");
    assert_eq!(reference.transcript(), repeat.transcript());
    // Transcript, corpus serialization, and coverage digest are all
    // invariant to the worker count.
    for workers in [2, 4] {
        let run = run_fuzz(&small_config(0xF5ED, workers)).expect("fuzz config");
        assert_eq!(
            reference.transcript(),
            run.transcript(),
            "{workers} workers diverged from sequential"
        );
        assert_eq!(
            reference.corpus.to_json_string(),
            run.corpus.to_json_string(),
            "{workers} workers grew a different corpus"
        );
        assert_eq!(
            reference.coverage.digest(),
            run.coverage.digest(),
            "{workers} workers observed different coverage"
        );
    }
}

#[test]
fn fuzz_report_threads_cache_counters_through() {
    // Every exec forks the base checkpoint from the depot, so the
    // worker-stats table under fuzz must show real depot activity — the
    // regression here was rendering all-zero cache columns because the
    // fuzz loop never filled the counters the parallel report reads.
    let result = run_fuzz(&small_config(0xCACE, 2)).expect("fuzz config");
    let depot_hits: usize = result.worker_stats.iter().map(|s| s.depot_hits).sum();
    assert!(
        depot_hits >= result.execs,
        "each of the {} execs forks from the depot; saw {depot_hits} hits",
        result.execs
    );
    let rendered = render_fuzz(&result);
    assert!(rendered.contains("depot-hits"));
    assert!(rendered.contains("corpus:"));
    assert!(rendered.contains("coverage by class:"));
    // The table must carry the non-zero numbers, not a header over zeros.
    let sim_total: u64 = result.worker_stats.iter().map(|s| s.sim_seconds).sum();
    assert!(sim_total > 0, "worker sim-seconds must be accounted");
    assert_eq!(
        result.total_sim_seconds,
        result.base_sim_seconds + sim_total,
        "fuzz totals decompose into base + worker spans"
    );
    // Every crash-boundary trial sweeps one boundary, counted by the
    // worker that executed it.
    let swept: u64 = result
        .worker_stats
        .iter()
        .map(|s| s.crash_points_swept)
        .sum();
    let trial_swept: u64 = result
        .records
        .iter()
        .flat_map(|r| &r.trials)
        .map(|t| u64::from(t.crash_points_swept))
        .sum();
    assert!(trial_swept > 0, "no crash-boundary trial ran");
    assert_eq!(swept, trial_swept, "worker stats miss swept boundaries");
}

#[test]
fn corpus_replay_is_worker_invariant() {
    let grown = run_fuzz(&small_config(0xC0FF, 2)).expect("fuzz config");
    // Serialize → deserialize → replay: the round-tripped corpus must
    // reproduce its coverage bit-for-bit at every worker count.
    let saved = Corpus::from_json_str(&grown.corpus.to_json_string()).expect("corpus round trip");
    assert_eq!(saved, grown.corpus);
    let reference = replay_corpus(&small_config(0xC0FF, 1), &saved).expect("fuzz config");
    assert_eq!(reference.records.len(), saved.entries.len());
    for workers in [2, 4] {
        let replay = replay_corpus(&small_config(0xC0FF, workers), &saved).expect("fuzz config");
        assert_eq!(
            reference.transcript(),
            replay.transcript(),
            "replay with {workers} workers diverged"
        );
    }
    // Every corpus entry replays to novel coverage from an empty map —
    // by construction each entry extended coverage when it was banked, and
    // replaying in discovery order reproduces exactly that growth.
    let replayed_features: usize = reference.records.iter().map(|r| r.novel.len()).sum();
    assert_eq!(replayed_features, reference.coverage.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn fuzz_transcripts_survive_arbitrary_seeds_and_workers(seed in 0u64..1_000, workers in 2usize..5) {
        let mut a_cfg = small_config(seed, 1);
        a_cfg.execs = 12;
        a_cfg.batch = 6;
        let mut b_cfg = small_config(seed, workers);
        b_cfg.execs = 12;
        b_cfg.batch = 6;
        let a = run_fuzz(&a_cfg).expect("fuzz config");
        let b = run_fuzz(&b_cfg).expect("fuzz config");
        prop_assert_eq!(a.transcript(), b.transcript());
        prop_assert_eq!(a.corpus.to_json_string(), b.corpus.to_json_string());
        prop_assert_eq!(a.coverage.digest(), b.coverage.digest());
    }
}
