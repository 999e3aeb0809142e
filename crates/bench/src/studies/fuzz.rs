//! Coverage-guided fuzzing study: guidance versus pure-random sampling at
//! an equal execution budget, on the snapshot-forking executor.
//!
//! Every execution forks the run's deploy-converged base checkpoint (an
//! O(1) CoW restore) instead of re-deploying — the study proves the fork
//! is on the hot path by reading the process-global
//! [`simkube::checkpoint_forks`] counter around the run. The headline
//! number is the coverage ratio: distinct coverage features the guided
//! fuzzer reaches divided by what equal-budget pure-random sampling of
//! the enumerated input space reaches, which must hold [`RATIO_FLOOR`].
//! The study also pins seeded-bug discovery (the guided run finds
//! SEED-CRASH-1, the random run cannot), the corpus serialize →
//! deserialize → replay round trip, and 1-vs-2-worker determinism.

use acto::fuzz::{replay_corpus, run_fuzz, run_random, Corpus, FuzzResult};
use crdspec::Value;
use operators::bugs::SEEDED_NONIDEMPOTENT_CREATE;
use simkube::checkpoint_forks;

use super::{int, ms, round, timed, zookeeper_fuzz};
use crate::harness::Outcome;

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

/// New-coverage-per-1k-execs over the run's exec sequence.
fn coverage_rate(result: &FuzzResult) -> f64 {
    if result.records.is_empty() {
        return 0.0;
    }
    result.coverage.len() as f64 * 1000.0 / result.records.len() as f64
}

/// Corpus-growth curve: corpus size after each quarter of the budget.
fn growth_curve(result: &FuzzResult) -> Value {
    let n = result.records.len().max(1);
    Value::array((1..=4).map(|q| {
        let upto = n * q / 4;
        let entries = result.corpus.entries.iter();
        entries.filter(|e| e.exec < upto).count().into()
    }))
}

/// Distinct coverage features per feature class.
fn by_class(result: &FuzzResult) -> Value {
    Value::object(
        result
            .coverage
            .counts()
            .into_iter()
            .map(|(k, v)| (k, v.into())),
    )
}

pub(super) fn run(quick: bool) -> Outcome {
    let execs = if quick { EXECS_QUICK } else { EXECS_FULL };
    let mut failures = Vec::new();

    // Guided run, with the seeded crash-consistency bug armed so efficacy
    // and coverage are measured in one budget. The fork counter is
    // process-global; the delta across the run proves every exec forked a
    // checkpoint instead of re-deploying.
    let mut cfg = zookeeper_fuzz(execs, 0xF422, 8, 2);
    cfg.campaign.bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    let forks_before = checkpoint_forks();
    let (guided, guided_wall) = timed(|| run_fuzz(&cfg).expect("fuzz config"));
    let fork_delta = checkpoint_forks() - forks_before;
    if (fork_delta as usize) < execs {
        failures.push(format!(
            "checkpoint forking is off the hot path: {fork_delta} forks for {execs} execs"
        ));
    }

    // Equal-budget pure-random baseline: same executor, same coverage
    // accounting, inputs drawn fresh from the enumerated space.
    let (random, random_wall) = timed(|| run_random(&cfg).expect("fuzz config"));
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
    let found = |r: &FuzzResult| {
        let detected = &r.summary.detected_bugs;
        detected.contains_key(SEEDED_NONIDEMPOTENT_CREATE)
    };
    let (guided_found, random_found) = (found(&guided), found(&random));
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
    match Corpus::from_json_str(&guided.corpus.to_json_string()) {
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
    // by tests/fuzz_determinism.rs; the study keeps the 1-vs-2 check on
    // the exact benchmark configuration).
    let solo = run_fuzz(&zookeeper_fuzz(execs.min(48), 0xD00D, 8, 1)).expect("fuzz config");
    let duo = run_fuzz(&zookeeper_fuzz(execs.min(48), 0xD00D, 8, 2)).expect("fuzz config");
    if solo.transcript() != duo.transcript() {
        failures.push("1-worker and 2-worker transcripts diverged".to_string());
    }

    Outcome {
        artifact: Value::object([
            ("ratio_floor", Value::from(RATIO_FLOOR)),
            ("execs", execs.into()),
            ("guided_features", guided.coverage.len().into()),
            ("random_features", random.coverage.len().into()),
            ("coverage_ratio", round(ratio, 3)),
            ("guided_new_per_1k_execs", round(coverage_rate(&guided), 1)),
            ("random_new_per_1k_execs", round(coverage_rate(&random), 1)),
            ("corpus_entries", guided.corpus.entries.len().into()),
            ("corpus_growth_by_quarter", growth_curve(&guided)),
            ("guided_coverage_by_class", by_class(&guided)),
            ("random_coverage_by_class", by_class(&random)),
            ("checkpoint_forks", int(fork_delta)),
            ("seeded_bug_found_guided", guided_found.into()),
            ("seeded_bug_found_random", random_found.into()),
            ("guided_wall_ms", ms(guided_wall)),
            ("random_wall_ms", ms(random_wall)),
        ]),
        failures,
    }
}
