//! Fault injection: start a campaign from a platform-caused error state
//! and let the recovery oracle judge whether the operator restores it.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use acto_repro::acto::{run_campaign, CampaignConfig, Mode, Strategy};
use acto_repro::operators::bugs::{bugs_of, BugToggles};
use acto_repro::operators::{INSTANCE, NAMESPACE};
use acto_repro::simkube::{Fault, FaultPlan, FaultProfile, PlatformBugs};

fn config(bugs: BugToggles, faults: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        operators: vec!["ZooKeeperOp".to_string()],
        mode: Mode::Whitebox,
        bugs,
        platform: PlatformBugs::none(),
        max_ops: Some(0), // fault burst only; skip the operation plan
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults,
        crash_sweep: false,
        topology: None,
    }
}

fn main() {
    // 1. An explicit plan: crash a node, evict and kill ensemble members.
    let mut churn = FaultPlan::new();
    churn.push(
        3,
        Fault::NodeCrash {
            node: "node-0".to_string(),
            down_for: 10,
        },
    );
    churn.push(
        6,
        Fault::PodEvict {
            namespace: NAMESPACE.to_string(),
            pod: format!("{INSTANCE}-1"),
        },
    );
    churn.push(
        9,
        Fault::PodKill {
            namespace: NAMESPACE.to_string(),
            pod: format!("{INSTANCE}-2"),
        },
    );

    println!("=== Healthy operator vs node/pod churn ===");
    let result = run_campaign(&config(BugToggles::all_fixed(), churn));
    let burst = &result.trials[0];
    for event in &burst.fault_events {
        println!("  {event}");
    }
    println!(
        "  outcome={:?} recovered={:?} alarms={}\n",
        burst.outcome,
        burst.rollback_recovered,
        burst.alarms.len()
    );

    // 2. Corrupt the ensemble ConfigMap during a watch blackout: members
    //    crash on the bad value before the operator can repair it. The
    //    planted ZK-6 bug (reconcile refuses to act while any member is
    //    failed) can never recover — the recovery oracle must say so.
    let mut corrupt = FaultPlan::new();
    corrupt.push(
        2,
        Fault::ConfigCorrupt {
            namespace: NAMESPACE.to_string(),
            configmap: format!("{INSTANCE}-config"),
            key: "snapCount".to_string(),
            value: "garbage".to_string(),
        },
    );
    corrupt.push(2, Fault::WatchBlackout { duration: 5 });

    let mut only_zk6 = BugToggles::all_injected();
    for bug in bugs_of("ZooKeeperOp") {
        if bug.id != "ZK-6" {
            only_zk6.fix(bug.id);
        }
    }

    println!("=== ZK-6 vs corrupted config under a watch blackout ===");
    let result = run_campaign(&config(only_zk6, corrupt));
    let burst = &result.trials[0];
    for event in &burst.fault_events {
        println!("  {event}");
    }
    println!("  outcome={:?}", burst.outcome);
    for alarm in &burst.alarms {
        println!("  alarm [{}] {}", alarm.kind.name(), alarm.detail);
    }
    for (bug, oracles) in &result.summary.detected_bugs {
        let names: Vec<&str> = oracles.iter().map(|o| o.name()).collect();
        println!("  detected: {bug} via {}", names.join(", "));
    }

    // 3. Seeded plans replay bit-for-bit: same (seed, profile) → same
    //    schedule → byte-identical campaign transcripts.
    println!("\n=== Seeded plan, replayed ===");
    let plan = FaultPlan::generate(42, &FaultProfile::default());
    for fault in plan.faults() {
        println!("  t={} {}", fault.at, fault.fault.describe());
    }
    let first = run_campaign(&config(BugToggles::all_fixed(), plan.clone()));
    let second = run_campaign(&config(BugToggles::all_fixed(), plan));
    println!(
        "  transcripts byte-identical: {}",
        first.transcript() == second.transcript()
    );
}
