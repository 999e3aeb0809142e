//! Shared plumbing for the evaluation harnesses.
//!
//! Each paper binary in `src/bin/` regenerates one table or figure of the
//! paper; the `bench` binary runs the [`studies`] through the one
//! [`harness`] that writes every `BENCH_*.json`. This library holds both,
//! the campaign runner (parallel across operators) and the plain-text
//! table renderer they share. See `EXPERIMENTS.md` at the repository root
//! for the paper-vs-measured record.

pub mod harness;
pub mod studies;

use std::fs;
use std::path::Path;

use acto::{CampaignConfig, CampaignResult, Mode};
use operators::registry::all_operators;

/// Runs the evaluation campaign for every operator in the given mode,
/// in parallel across operators (each campaign owns its clusters).
///
/// `quick` caps each campaign at a small operation budget for smoke runs
/// (set by the `ACTO_QUICK` environment variable in the binaries).
pub fn run_all_campaigns(mode: Mode, quick: bool) -> Vec<CampaignResult> {
    let names: Vec<&'static str> = all_operators().iter().map(|o| o.name).collect();
    let mut results: Vec<(usize, CampaignResult)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, name) in names.iter().enumerate() {
            handles.push(scope.spawn(move || {
                let mut config = CampaignConfig::evaluation(name, mode);
                if quick {
                    config.max_ops = Some(12);
                    config.differential = false;
                }
                (i, acto::run_campaign(&config))
            }));
        }
        for h in handles {
            results.push(h.join().expect("campaign thread"));
        }
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Returns `true` when either the `ACTO_QUICK` environment variable or a
/// `--quick` command-line flag requests a reduced-budget run — the one
/// sniffing path shared by every binary in this crate.
pub fn quick() -> bool {
    std::env::var("ACTO_QUICK").is_ok() || std::env::args().any(|a| a == "--quick")
}

/// Version of the `BENCH_*.json` emission format, stamped into every
/// bench artifact as `schema_version` so downstream consumers can detect
/// layout changes.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// Worker threads the host offers, recorded beside every wall-clock
/// figure.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the repository was built from, read from its `.git` without
/// running git; `"unknown"` outside a repository.
pub fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders rows as a fixed-width plain-text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns_columns() {
        let t = render_table(
            "Demo",
            &["name", "n"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "22".to_string()],
            ],
        );
        assert!(t.contains("== Demo =="));
        assert!(t.contains("longer"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }
}
