//! Coverage-guided fuzzing study: guidance versus pure-random sampling at
//! an equal execution budget, on the snapshot-forking executor.
//!
//! Every execution forks the run's deploy-converged base checkpoint (an
//! O(1) CoW restore) instead of re-deploying — the bench proves the fork
//! is on the hot path by reading
//! the process-global [`simkube::checkpoint_forks`] counter around the
//! run. The headline number is the coverage ratio: distinct coverage
//! features the guided fuzzer reaches divided by what equal-budget
//! pure-random sampling of the enumerated input space reaches, which must
//! hold [`RATIO_FLOOR`]. The bench also pins seeded-bug discovery (the
//! guided run finds SEED-CRASH-1, the random run cannot), the corpus
//! serialize → deserialize → replay round trip, and 1-vs-2-worker
//! determinism.
//!
//! Usage: `fuzz_campaign [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_fuzz.json` into the working directory and exits nonzero on any
//! floor violation.

use std::time::Instant;

use acto::fuzz::{replay_corpus, run_fuzz, run_random, Corpus, FuzzConfig, FuzzResult};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use operators::bugs::SEEDED_NONIDEMPOTENT_CREATE;
use simkube::checkpoint_forks;

/// Minimum (guided distinct features) / (random distinct features) at an
/// equal exec budget. Guidance wins on three fronts: corpus-driven
/// sequence deepening (mutation grows sequences past the random draw
/// bound, and every op past the mutation point lands in a new state
/// bucket), crash-boundary territory (the enumerated fault generator
/// never arms operator crashes), and seen-set dedup (random re-draws
/// duplicates, guided redraws them away).
const RATIO_FLOOR: f64 = 2.0;

const EXECS_FULL: usize = 256;
const EXECS_QUICK: usize = 64;

fn fuzz_config(execs: usize, seed: u64, workers: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = seed;
    cfg.execs = execs;
    cfg.batch = 8;
    cfg.workers = workers;
    cfg
}

/// New-coverage-per-1k-execs over the run's exec sequence.
fn coverage_rate(result: &FuzzResult) -> f64 {
    if result.records.is_empty() {
        return 0.0;
    }
    result.coverage.len() as f64 * 1000.0 / result.records.len() as f64
}

/// Corpus-growth curve: corpus size after each quarter of the budget.
fn growth_curve(result: &FuzzResult) -> Vec<usize> {
    let n = result.records.len().max(1);
    (1..=4)
        .map(|q| {
            let upto = n * q / 4;
            result
                .corpus
                .entries
                .iter()
                .filter(|e| e.exec < upto)
                .count()
        })
        .collect()
}

fn main() {
    let quick = quick();
    let execs = if quick { EXECS_QUICK } else { EXECS_FULL };
    let mut failures: Vec<String> = Vec::new();

    // Guided run, with the seeded crash-consistency bug armed so efficacy
    // and coverage are measured in one budget. The fork counter is
    // process-global; the delta across the run proves every exec forked a
    // checkpoint instead of re-deploying.
    let mut cfg = fuzz_config(execs, 0xF422, 2);
    cfg.campaign.bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    let forks_before = checkpoint_forks();
    let guided_start = Instant::now();
    let guided = run_fuzz(&cfg).expect("fuzz config");
    let guided_wall = guided_start.elapsed();
    let fork_delta = checkpoint_forks() - forks_before;
    if (fork_delta as usize) < execs {
        failures.push(format!(
            "checkpoint forking is off the hot path: {fork_delta} forks for {execs} execs"
        ));
    }

    // Equal-budget pure-random baseline: same executor, same coverage
    // accounting, inputs drawn fresh from the enumerated space.
    let random_start = Instant::now();
    let random = run_random(&cfg).expect("fuzz config");
    let random_wall = random_start.elapsed();
    if random.records.len() != guided.records.len() {
        failures.push(format!(
            "budgets diverged: guided {} vs random {} execs",
            guided.records.len(),
            random.records.len()
        ));
    }

    let ratio = guided.coverage.len() as f64 / random.coverage.len().max(1) as f64;
    if ratio < RATIO_FLOOR {
        failures.push(format!(
            "coverage ratio {ratio:.2}x below the {RATIO_FLOOR}x floor \
             (guided {} vs random {} features)",
            guided.coverage.len(),
            random.coverage.len()
        ));
    }

    // Efficacy: the guided run must reach the seeded crash bug; the
    // random run, whose fault generator never arms operator crashes,
    // must not.
    let guided_found = guided
        .summary
        .detected_bugs
        .contains_key(SEEDED_NONIDEMPOTENT_CREATE);
    let random_found = random
        .summary
        .detected_bugs
        .contains_key(SEEDED_NONIDEMPOTENT_CREATE);
    if !guided_found {
        failures.push(format!(
            "guided fuzzer missed {SEEDED_NONIDEMPOTENT_CREATE} in {execs} execs"
        ));
    }
    if random_found {
        failures.push(format!(
            "random baseline reached {SEEDED_NONIDEMPOTENT_CREATE}: crash arming leaked \
             into the enumerated space"
        ));
    }

    // Corpus round trip: serialize → deserialize → replay must reproduce
    // the exact coverage the corpus banked.
    let serialized = guided.corpus.to_json_string();
    match Corpus::from_json_str(&serialized) {
        Err(err) => failures.push(format!("corpus failed to deserialize: {err}")),
        Ok(parsed) => {
            if parsed != guided.corpus {
                failures.push("corpus changed across the JSON round trip".to_string());
            }
            let replayed = replay_corpus(&cfg, &parsed).expect("fuzz config");
            if replayed.coverage.digest() != guided.coverage.digest() {
                failures.push(
                    "replaying the round-tripped corpus did not reproduce its coverage".to_string(),
                );
            }
        }
    }

    // Determinism across worker counts (the full 1/2/4 matrix is pinned
    // by tests/fuzz_determinism.rs; the bench keeps the 1-vs-2 check on
    // the exact benchmark configuration).
    let solo = run_fuzz(&fuzz_config(execs.min(48), 0xD00D, 1)).expect("fuzz config");
    let duo = run_fuzz(&fuzz_config(execs.min(48), 0xD00D, 2)).expect("fuzz config");
    if solo.transcript() != duo.transcript() {
        failures.push("1-worker and 2-worker transcripts diverged".to_string());
    }

    let guided_rate = coverage_rate(&guided);
    let random_rate = coverage_rate(&random);
    let guided_growth = growth_curve(&guided);
    let rows = vec![
        vec![
            "guided".to_string(),
            guided.records.len().to_string(),
            guided.coverage.len().to_string(),
            format!("{guided_rate:.0}"),
            guided.corpus.entries.len().to_string(),
            if guided_found { "yes" } else { "no" }.to_string(),
            format!("{guided_wall:.2?}"),
        ],
        vec![
            "random".to_string(),
            random.records.len().to_string(),
            random.coverage.len().to_string(),
            format!("{random_rate:.0}"),
            "-".to_string(),
            if random_found { "yes" } else { "no" }.to_string(),
            format!("{random_wall:.2?}"),
        ],
    ];
    println!(
        "{}",
        render_table(
            "coverage-guided fuzzing vs pure-random at equal exec budget",
            &[
                "strategy",
                "execs",
                "features",
                "new/1k execs",
                "corpus",
                "seeded bug",
                "wall",
            ],
            &rows,
        )
    );
    println!(
        "coverage ratio {ratio:.2}x (floor {RATIO_FLOOR}x); {fork_delta} checkpoint forks \
         over {execs} guided execs; corpus growth by quarter {guided_growth:?}"
    );

    let class_json: Vec<String> = guided
        .coverage
        .counts()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let random_class_json: Vec<String> = random
        .coverage
        .counts()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let growth_json: Vec<String> = guided_growth.iter().map(usize::to_string).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fuzz\",\n",
            "  \"schema_version\": {},\n",
            "  \"nproc\": {},\n",
            "  \"git_rev\": \"{}\",\n",
            "  \"quick\": {},\n",
            "  \"ratio_floor\": {:.1},\n",
            "  \"execs\": {},\n",
            "  \"guided_features\": {},\n",
            "  \"random_features\": {},\n",
            "  \"coverage_ratio\": {:.3},\n",
            "  \"guided_new_per_1k_execs\": {:.1},\n",
            "  \"random_new_per_1k_execs\": {:.1},\n",
            "  \"corpus_entries\": {},\n",
            "  \"corpus_growth_by_quarter\": [{}],\n",
            "  \"guided_coverage_by_class\": {{{}}},\n",
            "  \"random_coverage_by_class\": {{{}}},\n",
            "  \"checkpoint_forks\": {},\n",
            "  \"seeded_bug_found_guided\": {},\n",
            "  \"seeded_bug_found_random\": {},\n",
            "  \"guided_wall_ms\": {},\n",
            "  \"random_wall_ms\": {}\n",
            "}}\n"
        ),
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        RATIO_FLOOR,
        execs,
        guided.coverage.len(),
        random.coverage.len(),
        ratio,
        guided_rate,
        random_rate,
        guided.corpus.entries.len(),
        growth_json.join(", "),
        class_json.join(", "),
        random_class_json.join(", "),
        fork_delta,
        guided_found,
        random_found,
        guided_wall.as_millis(),
        random_wall.as_millis(),
    );
    let path = "BENCH_fuzz.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!(
            "fuzz: guidance holds the {RATIO_FLOOR}x coverage floor, forks stay on the \
             hot path, the corpus replays bit-for-bit, and the seeded bug falls to \
             guidance alone"
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
