//! The user-extensible oracle interface (paper §5.3): custom oracles run
//! on every converged trial — planned campaign or fuzz — and their alarms
//! join the report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use acto_repro::acto::fuzz::{run_fuzz, FuzzConfig};
use acto_repro::acto::oracles::{CustomOracle, OracleContext};
use acto_repro::acto::{run_campaign, Alarm, AlarmKind, CampaignConfig, Mode};
use acto_repro::operators::Instance;

struct CountingOracle {
    calls: Arc<AtomicUsize>,
    /// Property path the oracle fires on; `*` fires on every trial.
    fire_on: &'static str,
}

impl CustomOracle for CountingOracle {
    fn name(&self) -> &str {
        "counting"
    }

    fn check(&self, ctx: &OracleContext<'_>, _instance: &Instance) -> Vec<Alarm> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.fire_on == "*" || ctx.property.to_string() == self.fire_on {
            vec![Alarm::new(
                AlarmKind::ErrorCheck,
                "domain-specific finding".to_string(),
            )]
        } else {
            Vec::new()
        }
    }
}

#[test]
fn custom_oracles_run_and_their_alarms_are_reported() {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut config = CampaignConfig::evaluation("ZooKeeperOp", Mode::Whitebox);
    config.differential = false;
    config.max_ops = Some(10);
    config.custom_oracles.push(Arc::new(CountingOracle {
        calls: calls.clone(),
        fire_on: "adminServer.port",
    }));
    let result = run_campaign(&config);
    assert!(
        calls.load(Ordering::SeqCst) > 0,
        "the custom oracle must be consulted on converged trials"
    );
    let custom_alarms: Vec<&Alarm> = result
        .trials
        .iter()
        .flat_map(|t| &t.alarms)
        .filter(|a| a.detail.contains("[counting]"))
        .collect();
    assert!(
        !custom_alarms.is_empty(),
        "custom alarms must appear in trial reports (prefixed with the \
         oracle name)"
    );
}

#[test]
fn fuzz_consults_custom_oracles_on_converged_trials() {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.execs = 8;
    cfg.batch = 4;
    cfg.workers = 1;
    cfg.campaign.custom_oracles.push(Arc::new(CountingOracle {
        calls: calls.clone(),
        fire_on: "*",
    }));
    let result = run_fuzz(&cfg).expect("fuzz config");
    let consulted = calls.load(Ordering::SeqCst);
    assert!(
        consulted > 0,
        "the fuzzer must consult custom oracles on converged trials"
    );
    let custom_alarms = result
        .records
        .iter()
        .flat_map(|r| &r.trials)
        .flat_map(|t| &t.alarms)
        .filter(|a| a.detail.starts_with("[counting] "))
        .count();
    // Uninterrupted reference runs of crash-armed inputs consult the
    // oracle too, but only the executed sequence's trials are reported.
    assert!(
        custom_alarms > 0 && custom_alarms <= consulted,
        "custom alarms must appear in fuzz trial reports ({custom_alarms} of \
         {consulted} consultations)"
    );
}
