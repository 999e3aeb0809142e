//! Smoke coverage: every registry operator deploys, accepts a short
//! campaign in both modes, and reports sane bookkeeping.

use acto_repro::acto::{plan_campaign, run_campaign, CampaignConfig, Mode, Strategy};
use acto_repro::operators::registry::{all_operators, operator_by_name};
use acto_repro::operators::{BugToggles, INSTANCE};
use acto_repro::simkube::PlatformBugs;

fn smoke(operator: &str, mode: Mode) {
    let config = CampaignConfig {
        operators: vec![operator.to_string()],
        mode,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(8),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: false,
        topology: None,
    };
    let result = run_campaign(&config);
    assert!(
        !result.trials.is_empty(),
        "{operator}/{mode:?}: no trials executed"
    );
    assert!(result.trials.len() <= 8);
    assert!(result.sim_seconds > 0);
    for trial in &result.trials {
        // Every executed trial carries a declaration that parses back.
        let rendered = acto_repro::crdspec::json::to_string(&trial.declaration);
        acto_repro::crdspec::json::from_str(&rendered).expect("declaration round-trips");
    }
}

#[test]
fn every_operator_survives_a_short_campaign_in_both_modes() {
    for info in all_operators() {
        smoke(info.name, Mode::Whitebox);
        smoke(info.name, Mode::Blackbox);
    }
}

#[test]
fn every_plan_is_deterministic_and_covers_the_interface() {
    for info in all_operators() {
        let op = operator_by_name(info.name);
        let schema = op.schema();
        let ir = op.ir();
        let plan_a = plan_campaign(
            &schema,
            Some(&ir),
            Mode::Whitebox,
            &op.initial_cr(),
            &op.images(),
            INSTANCE,
        );
        let plan_b = plan_campaign(
            &schema,
            Some(&ir),
            Mode::Whitebox,
            &op.initial_cr(),
            &op.images(),
            INSTANCE,
        );
        assert_eq!(
            plan_a.len(),
            plan_b.len(),
            "{}: plan not deterministic",
            info.name
        );
        for (a, b) in plan_a.iter().zip(&plan_b) {
            assert_eq!(a.property, b.property);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.value, b.value);
        }
        assert!(
            plan_a.len() >= schema.leaf_property_paths().len() / 3,
            "{}: suspiciously small plan ({} ops)",
            info.name,
            plan_a.len()
        );
    }
}

#[test]
fn whitebox_plans_at_least_as_many_ops_as_blackbox() {
    // Paper §6.2: Acto-blackbox generates fewer operations because it
    // cannot infer semantics for some properties.
    let mut any_strictly_more = false;
    for info in all_operators() {
        let op = operator_by_name(info.name);
        let schema = op.schema();
        let ir = op.ir();
        let white = plan_campaign(
            &schema,
            Some(&ir),
            Mode::Whitebox,
            &op.initial_cr(),
            &op.images(),
            INSTANCE,
        )
        .len();
        let black = plan_campaign(
            &schema,
            Some(&ir),
            Mode::Blackbox,
            &op.initial_cr(),
            &op.images(),
            INSTANCE,
        )
        .len();
        assert!(
            white + 4 >= black,
            "{}: blackbox plan unexpectedly larger ({black} vs {white})",
            info.name
        );
        if white > black {
            any_strictly_more = true;
        }
    }
    assert!(any_strictly_more);
}
