//! The main evaluation harness: regenerates Tables 5, 6, 7, and 8 plus the
//! misoperation-vulnerability counts (§6.1.2), the oracle field-coverage
//! statistics (§6.1.3), the property-coverage accounting (§6.1.4), and the
//! false-positive audit (§6.3), by running full Acto campaigns for all
//! eleven operators in both modes.
//!
//! Usage: `evaluate [--quick]` (or `ACTO_QUICK=1`) for a reduced-budget
//! smoke run.

use std::collections::BTreeMap;

use acto::{AlarmKind, CampaignResult, Mode};
use acto_bench::{quick, render_table, run_all_campaigns};
use operators::bugs::{self, BugCategory, Consequence};
use operators::existing_tests::{existing_suite, tested_properties};
use operators::registry::{all_operators, operator_info};

fn category_counts(
    operator: &str,
    detected: &BTreeMap<String, std::collections::BTreeSet<AlarmKind>>,
) -> [usize; 4] {
    let mut counts = [0usize; 4];
    for id in detected.keys() {
        if let Some(bug) = bugs::bug(id) {
            if bug.operator == operator {
                let idx = match bug.category {
                    BugCategory::UndesiredState => 0,
                    BugCategory::ErrorStateSystem => 1,
                    BugCategory::ErrorStateOperator => 2,
                    BugCategory::RecoveryFailure => 3,
                };
                counts[idx] += 1;
            }
        }
    }
    counts
}

fn table5(white: &[CampaignResult], black: &[CampaignResult]) {
    let mut rows = Vec::new();
    let mut totals_w = [0usize; 4];
    let mut totals_b = [0usize; 4];
    for (w, b) in white.iter().zip(black) {
        let cw = category_counts(&w.operator, &w.summary.detected_bugs);
        let cb = category_counts(&b.operator, &b.summary.detected_bugs);
        for i in 0..4 {
            totals_w[i] += cw[i];
            totals_b[i] += cb[i];
        }
        let cell = |i: usize| {
            if cw[i] == cb[i] {
                cw[i].to_string()
            } else {
                format!("{} ({})", cw[i], cb[i])
            }
        };
        rows.push(vec![
            w.operator.clone(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
            format!(
                "{} ({})",
                cw.iter().sum::<usize>(),
                cb.iter().sum::<usize>()
            ),
        ]);
    }
    rows.push(vec![
        "Total".to_string(),
        format!("{} ({})", totals_w[0], totals_b[0]),
        format!("{} ({})", totals_w[1], totals_b[1]),
        format!("{} ({})", totals_w[2], totals_b[2]),
        format!("{} ({})", totals_w[3], totals_b[3]),
        format!(
            "{} ({})",
            totals_w.iter().sum::<usize>(),
            totals_b.iter().sum::<usize>()
        ),
    ]);
    println!(
        "{}",
        render_table(
            "Table 5: new bugs detected by Acto-whitebox (Acto-blackbox)",
            &[
                "Operator",
                "Undesired",
                "Err/System",
                "Err/Operator",
                "Recovery",
                "Total"
            ],
            &rows,
        )
    );
    let plats: std::collections::BTreeSet<String> = white
        .iter()
        .flat_map(|r| r.summary.detected_platform_bugs.iter().cloned())
        .collect();
    println!(
        "Platform bugs detected across operators: {} ({})\n",
        plats.len(),
        plats.into_iter().collect::<Vec<_>>().join(", ")
    );
}

fn table6(white: &[CampaignResult]) {
    let mut by_con: BTreeMap<Consequence, usize> = BTreeMap::new();
    for r in white {
        for id in r.summary.detected_bugs.keys() {
            if let Some(bug) = bugs::bug(id) {
                for c in bug.consequences {
                    *by_con.entry(*c).or_default() += 1;
                }
            }
        }
    }
    let rows: Vec<Vec<String>> = by_con
        .iter()
        .map(|(c, n)| vec![c.to_string(), n.to_string()])
        .collect();
    println!(
        "{}",
        render_table(
            "Table 6: consequences of detected bugs (one bug may have several)",
            &["Consequence", "# Bugs"],
            &rows,
        )
    );
    println!(
        "Paper: system failure 5, reliability 15, security 2, resource 9, \
         operation outage 18, misconfiguration 15.\n"
    );
}

fn table7(white: &[CampaignResult]) {
    let mut per_oracle: BTreeMap<AlarmKind, std::collections::BTreeSet<String>> = BTreeMap::new();
    let mut total = std::collections::BTreeSet::new();
    for r in white {
        for (id, oracles) in &r.summary.detected_bugs {
            total.insert(id.clone());
            for o in oracles {
                per_oracle.entry(*o).or_default().insert(id.clone());
            }
        }
    }
    let rows: Vec<Vec<String>> = per_oracle
        .iter()
        .map(|(o, ids)| {
            vec![
                o.name().to_string(),
                format!(
                    "{} ({:.2}%)",
                    ids.len(),
                    100.0 * ids.len() as f64 / total.len().max(1) as f64
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 7: bugs detected per oracle (one bug may be caught by several)",
            &["Test oracle", "# Bugs (%)"],
            &rows,
        )
    );
    println!(
        "Paper: consistency 23 (41%), differential-normal 25 (45%), \
         differential-rollback 10 (18%), error checks 14 (25%).\n"
    );
}

fn table8(white: &[CampaignResult]) {
    let mut rows = Vec::new();
    for r in white {
        let workers = operator_info(&r.operator).map(|i| i.workers).unwrap_or(16);
        let exec_hours = r.sim_seconds as f64 / 3600.0;
        rows.push(vec![
            r.operator.clone(),
            format!("{:.4}", r.gen_duration.as_secs_f64() / 3600.0),
            format!("{exec_hours:.2}"),
            format!("{:.2}", exec_hours + r.gen_duration.as_secs_f64() / 3600.0),
            r.trials.len().to_string(),
            workers.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Table 8: test-campaign time per operator (simulated machine-hours)",
            &[
                "Operator",
                "Generation (h)",
                "Execution (h)",
                "Total (h)",
                "#Ops",
                "#Workers"
            ],
            &rows,
        )
    );
    println!(
        "Generation time is real wall-clock; execution time is simulated \
         cluster time (the substitute for CloudLab machine-hours). Paper \
         totals range 4.72-57.51 hours with 371-1950 operations; the \
         reproduction's campaigns are smaller in absolute terms but \
         preserve the per-operator ordering (config-heavy operators run \
         the longest campaigns).\n"
    );
}

fn misop_and_falsepos(white: &[CampaignResult], black: &[CampaignResult]) {
    let vulns_w: usize = white.iter().map(|r| r.summary.vulnerabilities.len()).sum();
    let vulns_b: usize = black.iter().map(|r| r.summary.vulnerabilities.len()).sum();
    println!("== Misoperation vulnerabilities (paper §6.1.2) ==");
    println!(
        "Acto-whitebox: {vulns_w} unique vulnerable properties; \
         Acto-blackbox: {vulns_b}."
    );
    println!(
        "Paper: 630 (whitebox) vs 616 (blackbox); the whitebox mode must \
         find strictly more because sink-derived semantics unlock extra \
         misoperation scenarios.\n"
    );

    println!("== False positives (paper §6.3) ==");
    for (label, results) in [("Acto-whitebox", white), ("Acto-blackbox", black)] {
        let alarms: usize = results.iter().map(|r| r.summary.total_alarms).sum();
        let fps: usize = results
            .iter()
            .map(|r| r.summary.false_positives.len())
            .sum();
        println!(
            "{label}: {fps} false alarms out of {alarms} ({:.2}%)",
            100.0 * fps as f64 / alarms.max(1) as f64
        );
        for r in results {
            for (idx, detail) in &r.summary.false_positives {
                let mut d = detail.clone();
                d.truncate(90);
                println!("    {} trial {}: {}", r.operator, idx, d);
            }
        }
    }
    println!(
        "Paper: whitebox reports no false alarms; blackbox reports 4 \
         (0.19%), all from predicates the naming convention cannot see.\n"
    );
}

fn coverage(white: &[CampaignResult]) {
    println!("== Property coverage (paper §6.1.4) ==");
    let mut untested_trigger = 0usize;
    let mut total_bugs = 0usize;
    for r in white {
        println!(
            "{}: {}/{} properties covered",
            r.operator, r.properties_covered, r.properties_total
        );
        let manual = tested_properties(&existing_suite(&r.operator));
        let manual_names: Vec<String> = manual.iter().map(|p| p.to_string()).collect();
        for id in r.summary.detected_bugs.keys() {
            if let Some(bug) = bugs::bug(id) {
                total_bugs += 1;
                let covered_by_manual = manual_names
                    .iter()
                    .any(|m| bug.trigger_property.starts_with(m.as_str()));
                if !covered_by_manual {
                    untested_trigger += 1;
                }
            }
        }
    }
    println!(
        "{untested_trigger} of {total_bugs} detected bugs involve properties \
         the pre-existing manual suites never touch (paper: 38 of 56).\n"
    );

    println!("== Deterministic fields (paper §6.1.3) ==");
    for r in white.iter().take(3) {
        let (kept, masked) = r.deterministic_fields;
        println!(
            "{}: {:.1}% of state-object fields are deterministic ({} of {})",
            r.operator,
            100.0 * kept as f64 / (kept + masked).max(1) as f64,
            kept,
            kept + masked
        );
    }
    println!("Paper: 71.4%-80.5% of fields are deterministic across operators.\n");
}

fn main() {
    let quick = quick();
    if quick {
        println!("(quick mode: reduced operation budget, differential oracle off)\n");
    }
    let white = run_all_campaigns(Mode::Whitebox, quick);
    let black = run_all_campaigns(Mode::Blackbox, quick);
    table5(&white, &black);
    table6(&white);
    table7(&white);
    table8(&white);
    misop_and_falsepos(&white, &black);
    coverage(&white);
    let detectable = all_operators()
        .iter()
        .map(|o| bugs::bugs_of(o.name).len())
        .sum::<usize>();
    println!(
        "Ground truth: {detectable} injected operator bugs; the whitebox \
         campaign is expected to detect all of them and the blackbox \
         campaign all but ZK-5."
    );
}
