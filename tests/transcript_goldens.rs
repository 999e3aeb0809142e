//! Cross-commit transcript goldens.
//!
//! The determinism suites compare two runs of the same build, so a
//! refactor that changes what Acto reports in *both* runs passes them.
//! These tests pin FNV-1a digests of small but representative runs —
//! every executor (sequential campaign under each strategy, work stealing,
//! fuzz, composed campaign sequential and work-stealing, composed fuzz)
//! with faults, crash sweeps and the differential oracle switched on
//! where the executor supports them.
//! A digest only changes when the observable output changes; on a
//! mismatch the test prints the actual digest next to the expected one.

use acto_repro::acto::compose::{
    run_composed_campaign, run_composed_fuzz, run_composed_work_stealing_with,
};
use acto_repro::acto::fuzz::{run_fuzz, FuzzConfig};
use acto_repro::acto::minimize::minimize;
use acto_repro::acto::parallel::{run_work_stealing, SnapshotDepot, DEFAULT_SEGMENT_OPS};
use acto_repro::acto::{run_campaign, AlarmKind, CampaignConfig, CampaignResult, Mode, Strategy};
use acto_repro::operators::bugs::{
    bugs_of, BugToggles, SEEDED_CROSS_OPERATOR_GC, SEEDED_NONIDEMPOTENT_CREATE,
};
use acto_repro::operators::{INSTANCE, NAMESPACE};
use acto_repro::simkube::objects::fnv_fingerprint;
use acto_repro::simkube::{Fault, FaultPlan, FaultProfile, PlatformBugs};

fn assert_digest(name: &str, rendered: &str, expected: &str) {
    let actual = fnv_fingerprint(rendered);
    assert_eq!(
        actual, expected,
        "{name}: transcript digest changed (actual {actual}, expected {expected})"
    );
}

/// A campaign transcript plus the counters the transcript leaves out.
fn campaign_rendering(result: &CampaignResult) -> String {
    format!(
        "{}waits: {}\nref-cache: {}/{}\ncrash-points: {}\n",
        result.transcript(),
        result.convergence_waits,
        result.ref_cache_hits,
        result.ref_cache_misses,
        result.crash_points_swept
    )
}

fn strategy_config(strategy: Strategy) -> CampaignConfig {
    CampaignConfig {
        operators: vec!["CockroachOp".to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(15),
        differential: true,
        strategy,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: false,
        topology: None,
    }
}

/// Fault burst, crash-point sweep and differential oracle on one
/// sequential campaign.
#[test]
fn faulted_swept_differential_campaign() {
    let mut config = CampaignConfig::evaluation("ZooKeeperOp", Mode::Whitebox);
    config.faults = FaultPlan::generate(7, &FaultProfile::default());
    config.crash_sweep = true;
    config.bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    config.max_ops = Some(8);
    let result = run_campaign(&config);
    assert_digest(
        "zookeeper fault+sweep+differential campaign",
        &campaign_rendering(&result),
        "8627b1dd9e7d1324",
    );
    // Shrink every crash-consistency reproduction: the minimizer re-sweeps
    // the final transition's write boundaries.
    let mut minimized = String::new();
    for (index, sequence) in result.reproduction_sequences() {
        let trial = result.trials.iter().find(|t| t.op.index == index);
        if !trial.is_some_and(|t| {
            t.alarms
                .iter()
                .any(|a| a.kind == AlarmKind::CrashConsistency)
        }) {
            continue;
        }
        let shrunk = minimize(
            "ZooKeeperOp",
            &config.bugs,
            config.platform,
            &sequence,
            AlarmKind::CrashConsistency,
        );
        minimized.push_str(&format!(
            "#{index}: {} -> {}\n",
            sequence.len(),
            shrunk.len()
        ));
        for declaration in &shrunk {
            minimized.push_str(&acto_repro::crdspec::json::to_string(declaration));
            minimized.push('\n');
        }
    }
    assert_digest(
        "zookeeper crash reproductions",
        &minimized,
        "92f31fcdf01bee92",
    );
}

/// A fault burst the operator fails to recover from (ZK-6 refuses to
/// reconcile while pods are failed): the campaign resets, then runs its
/// plan.
#[test]
fn failed_fault_burst_resets_and_continues() {
    let mut bugs = BugToggles::all_injected();
    for bug in bugs_of("ZooKeeperOp") {
        if bug.id != "ZK-6" {
            bugs.fix(bug.id);
        }
    }
    let mut faults = FaultPlan::new();
    faults.push(
        2,
        Fault::ConfigCorrupt {
            namespace: NAMESPACE.to_string(),
            configmap: format!("{INSTANCE}-config"),
            key: "snapCount".to_string(),
            value: "garbage".to_string(),
        },
    );
    faults.push(2, Fault::WatchBlackout { duration: 5 });
    let config = CampaignConfig {
        operators: vec!["ZooKeeperOp".to_string()],
        mode: Mode::Whitebox,
        bugs,
        platform: PlatformBugs::none(),
        max_ops: Some(6),
        differential: true,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults,
        crash_sweep: false,
        topology: None,
    };
    let result = run_campaign(&config);
    assert_digest(
        "zookeeper failed fault burst campaign",
        &campaign_rendering(&result),
        "4e79bb44cf5830cc",
    );
}

/// The two reset paths: operation sequences replay the last good
/// declaration, single operations restart from the initial state.
#[test]
fn reset_strategies() {
    let sequence = run_campaign(&strategy_config(Strategy::OperationSequence));
    assert_digest(
        "cockroach operation-sequence campaign",
        &campaign_rendering(&sequence),
        "109892a84107801f",
    );
    let single = run_campaign(&strategy_config(Strategy::SingleOperation));
    assert_digest(
        "cockroach single-operation campaign",
        &campaign_rendering(&single),
        "26f6d666a880a785",
    );
}

#[test]
fn work_stealing_at_two_workers() {
    let mut config = CampaignConfig::evaluation("ZooKeeperOp", Mode::Whitebox);
    config.platform = PlatformBugs::none();
    config.max_ops = Some(20);
    let result = run_work_stealing(&config, 2);
    assert_digest(
        "zookeeper work stealing",
        &result.transcript(),
        "d7aca3737ca5a27a",
    );
}

/// Guided fuzz with fault bursts, crash arming and the seeded
/// crash-consistency bug: transcript, corpus and coverage.
#[test]
fn fuzz_with_faults_and_crash_arming() {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.campaign.bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    cfg.campaign.differential = true;
    cfg.seed = 0xB16;
    cfg.execs = 24;
    cfg.batch = 8;
    cfg.workers = 1;
    let result = run_fuzz(&cfg).expect("fuzz config");
    let waits: usize = result
        .worker_stats
        .iter()
        .map(|s| s.convergence_waits)
        .sum();
    assert_digest(
        "zookeeper fuzz transcript",
        &format!("{}waits: {waits}\n", result.transcript()),
        "1c798eaae827042d",
    );
    assert_digest(
        "zookeeper fuzz corpus",
        &result.corpus.to_json_string(),
        "0b07691d903cab1b",
    );
    assert_digest(
        "zookeeper fuzz coverage",
        &result.coverage.digest(),
        "4dfaa0b2b4b75208",
    );
}

#[test]
fn composed_campaign_with_seeded_gc() {
    let mut config = CampaignConfig::composed(&["TiDBOp", "ZooKeeperOp"], Mode::Whitebox);
    config.bugs.seed(SEEDED_CROSS_OPERATOR_GC);
    config.max_ops = Some(8);
    let result = run_composed_campaign(&config).expect("composed campaign runs");
    let waits: usize = result
        .worker_stats
        .iter()
        .map(|s| s.convergence_waits)
        .sum();
    assert_digest(
        "tidb+zookeeper composed campaign",
        &format!("{}waits: {waits}\n", result.transcript()),
        "db8691defdc6ec61",
    );
}

/// Composed segments with every bug injected: an operator crash and a
/// rollback on the shared cluster.
#[test]
fn composed_work_stealing_at_two_workers() {
    let mut config = CampaignConfig::composed(&["CockroachOp", "ZooKeeperOp"], Mode::Whitebox);
    config.bugs = BugToggles::all_injected();
    config.max_ops = Some(16);
    let result =
        run_composed_work_stealing_with(&config, 2, DEFAULT_SEGMENT_OPS, &SnapshotDepot::new())
            .expect("composed campaign runs");
    assert_digest(
        "cockroach+zookeeper composed work stealing",
        &result.transcript(),
        "7846f68973fd938f",
    );
}

#[test]
fn composed_fuzz_eight_execs() {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.campaign = CampaignConfig::composed(&["ZooKeeperOp", "RabbitMQOp"], Mode::Whitebox);
    cfg.execs = 8;
    cfg.batch = 4;
    cfg.workers = 1;
    let result = run_composed_fuzz(&cfg).expect("composed fuzz runs");
    assert_digest(
        "zookeeper+rabbitmq composed fuzz",
        &result.transcript(),
        "300e7bbd6841a4ca",
    );
}
