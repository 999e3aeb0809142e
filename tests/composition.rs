//! Multi-operator composition campaigns: the cross-operator oracle fires
//! on the seeded ground-truth bug and stays silent on clean pairs, and the
//! composed runners are deterministic across repeats and worker counts.

use std::sync::Arc;

use acto_repro::acto::compose::{
    plan_composed, run_composed_campaign, run_composed_fuzz, run_composed_work_stealing_with,
};
use acto_repro::acto::fuzz::FuzzConfig;
use acto_repro::acto::oracles::{CustomOracle, OracleContext};
use acto_repro::acto::parallel::DEFAULT_SEGMENT_OPS;
use acto_repro::acto::{Alarm, AlarmKind, CampaignConfig, Mode};
use acto_repro::operators::{bugs, Instance};
use acto_repro::simkube::Fault;

/// SEED-COMPOSE-1: TiDBOp's seeded garbage collector raw-iterates the
/// shared store and deletes `*-config` ConfigMaps outside its own
/// namespace. Composed with a sibling that owns such objects, the
/// composition oracle must fire and attribution must land on the seeded
/// bug id.
#[test]
fn seeded_cross_operator_gc_is_detected_and_attributed() {
    let mut config = CampaignConfig::composed(&["TiDBOp", "ZooKeeperOp"], Mode::Whitebox);
    config.bugs.seed(bugs::SEEDED_CROSS_OPERATOR_GC);
    config.max_ops = Some(8);
    let result = run_composed_campaign(&config).expect("composed campaign runs");
    let composition_alarms: Vec<_> = result
        .trials
        .iter()
        .flat_map(|t| &t.trial.alarms)
        .filter(|a| a.kind == AlarmKind::Composition)
        .collect();
    assert!(
        !composition_alarms.is_empty(),
        "the composition oracle must fire on the seeded cross-operator GC"
    );
    assert!(
        composition_alarms
            .iter()
            .any(|a| a.detail.contains("cross-operator GC: TiDBOp")),
        "alarm detail names the offending actor: {composition_alarms:?}"
    );
    assert!(
        result.summary.detected_bugs.contains_key("SEED-COMPOSE-1"),
        "attribution lands on the seeded bug: {:?}",
        result.summary.detected_bugs
    );
    assert!(
        result.trials.iter().any(|t| !t.interference.is_empty()),
        "interference log records the foreign deletions"
    );
}

/// With no bugs seeded, every composed pair must run without a single
/// composition alarm — two correct operators on one cluster do not
/// interfere.
#[test]
fn clean_composed_pairs_stay_silent() {
    for pair in [
        ["ZooKeeperOp", "RabbitMQOp"],
        ["TiDBOp", "ZooKeeperOp"],
        ["RabbitMQOp", "CassOp"],
    ] {
        let mut config = CampaignConfig::composed(&pair, Mode::Whitebox);
        config.max_ops = Some(6);
        let result = run_composed_campaign(&config).expect("composed campaign runs");
        let composition_alarms: Vec<_> = result
            .trials
            .iter()
            .flat_map(|t| &t.trial.alarms)
            .filter(|a| a.kind == AlarmKind::Composition)
            .collect();
        assert!(
            composition_alarms.is_empty(),
            "{} must be interference-free with bugs off: {composition_alarms:?}",
            pair.join("+")
        );
        assert!(
            !result.summary.detected_bugs.contains_key("SEED-COMPOSE-1"),
            "no seeded bug, no detection"
        );
    }
}

/// The sequential composed runner is deterministic: identical transcripts
/// across repeat runs.
#[test]
fn composed_campaign_is_deterministic_across_repeats() {
    let mut config = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
    config.max_ops = Some(10);
    let a = run_composed_campaign(&config).expect("runs");
    let b = run_composed_campaign(&config).expect("runs");
    assert!(!a.trials.is_empty());
    assert_eq!(a.transcript(), b.transcript());
}

/// The work-stealing composed runner produces byte-identical transcripts
/// at every worker count — segment start states are canonical prefix
/// states, never whatever a sibling worker left behind.
#[test]
fn composed_parallel_transcript_is_worker_count_invariant() {
    let config = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
    let reference = run_composed_work_stealing_with(&config, 1, DEFAULT_SEGMENT_OPS).expect("runs");
    assert!(!reference.trials.is_empty());
    for workers in [2, 4] {
        let run =
            run_composed_work_stealing_with(&config, workers, DEFAULT_SEGMENT_OPS).expect("runs");
        assert_eq!(
            reference.transcript(),
            run.transcript(),
            "{workers} workers diverged from sequential"
        );
    }
    // Note: the parallel run is not compared against the fully sequential
    // one — segment start states are canonical prefix *folds*, while a
    // sequential run's evolving state reflects rollbacks and no-op skips,
    // so trial sets legitimately differ (exactly as for the
    // single-operator work-stealing runner).
}

/// Composed fuzzing is deterministic for any worker count and strips
/// single-instance machinery (faults, crash arming) from every input.
#[test]
fn composed_fuzz_is_deterministic_and_interleaving_only() {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.campaign = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
    cfg.execs = 8;
    cfg.batch = 4;
    cfg.workers = 1;
    let reference = run_composed_fuzz(&cfg).expect("composed fuzz runs");
    assert_eq!(reference.execs, 8);
    assert!(!reference.records.is_empty());
    for record in &reference.records {
        assert!(record.input.faults.is_empty(), "fault plans are stripped");
        assert!(record.input.crash.is_none(), "crash arming is stripped");
    }
    assert!(
        !reference.corpus.entries.is_empty(),
        "the first input's territory is always banked"
    );
    let mut two = cfg.clone();
    two.workers = 2;
    let run = run_composed_fuzz(&two).expect("composed fuzz runs");
    assert_eq!(reference.transcript(), run.transcript());
}

/// A custom oracle that never fires.
struct Silent;

impl CustomOracle for Silent {
    fn name(&self) -> &str {
        "silent"
    }

    fn check(&self, _ctx: &OracleContext<'_>, _instance: &Instance) -> Vec<Alarm> {
        Vec::new()
    }
}

/// Fault plans, custom oracles, crash sweeps and the differential oracle
/// are defined against a single instance, so a composed run cannot honour
/// them. Every composed runner refuses them before it deploys anything,
/// naming the field, instead of silently running without them.
#[test]
fn composed_runners_refuse_single_instance_settings() {
    let with = |set: &dyn Fn(&mut CampaignConfig)| {
        let mut config = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
        config.max_ops = Some(2);
        set(&mut config);
        config
    };
    let cases = [
        (
            "faults",
            with(&|c| {
                c.faults.push(2, Fault::WatchBlackout { duration: 5 });
            }),
        ),
        (
            "custom_oracles",
            with(&|c| c.custom_oracles.push(Arc::new(Silent))),
        ),
        ("crash_sweep", with(&|c| c.crash_sweep = true)),
        ("differential", with(&|c| c.differential = true)),
    ];
    for (field, config) in cases {
        let named = |err: String| {
            assert!(err.contains(&format!("`{field}`")), "{field}: {err}");
        };
        named(plan_composed(&config).expect_err(field));
        named(run_composed_campaign(&config).expect_err(field));
        named(run_composed_work_stealing_with(&config, 2, DEFAULT_SEGMENT_OPS).expect_err(field));
        let mut fuzz = FuzzConfig::new("ZooKeeperOp");
        fuzz.campaign = config;
        fuzz.execs = 2;
        named(run_composed_fuzz(&fuzz).expect_err(field));
    }
}
