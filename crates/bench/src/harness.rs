//! The one bench harness behind the `bench` binary.
//!
//! `bench [--quick] [study…]` (or `ACTO_QUICK=1`) runs the named studies
//! in the order named, every study in [`crate::studies::STUDIES`] when
//! none is. Each study returns its artifact and its gate failures; the
//! harness stamps the artifact with `bench`, `schema_version`, `nproc`,
//! `git_rev` and `quick`, writes it as `BENCH_<study>.json`, prints it as
//! console tables, and exits 1 when any gate failed, any study panicked
//! or any artifact could not be written. An unknown study name exits 2
//! before any study runs.

use std::path::Path;

use crdspec::{json, Value};

use crate::{git_rev, nproc, render_table, BENCH_SCHEMA_VERSION};

/// One study; its artifact is `BENCH_<name>.json`.
#[derive(Debug)]
pub struct Study {
    /// The study's name, which is also its artifact's.
    pub name: &'static str,
    /// Runs the study at the quick (`true`) or full budget.
    pub run: fn(bool) -> Outcome,
}

/// What a study produced.
#[derive(Debug)]
pub struct Outcome {
    /// The artifact's fields, an object; the harness adds the stamps.
    pub artifact: Value,
    /// Every gate the study failed (empty on a pass).
    pub failures: Vec<String>,
}

/// Exit code for a command line naming an unknown study.
const USAGE_EXIT: i32 = 2;

/// Runs the studies `args` names (all of them when it names none) and
/// writes their artifacts into `out_dir`; returns the process exit code.
/// `--quick` in `args` is skipped here: the caller folds it into `quick`.
pub fn main(studies: &[Study], args: &[String], quick: bool, out_dir: &Path) -> i32 {
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let chosen = match select(studies, &names) {
        Ok(chosen) => chosen,
        Err(message) => {
            eprintln!("{message}");
            return USAGE_EXIT;
        }
    };
    let mut failed = false;
    for study in chosen {
        let failures = run_study(study, quick, out_dir);
        for f in &failures {
            eprintln!("FAIL: {}: {f}", study.name);
        }
        if failures.is_empty() {
            println!("{}: pass", study.name);
        }
        failed |= !failures.is_empty();
    }
    i32::from(failed)
}

/// The studies `names` picks, in the order named; every study when
/// `names` is empty. An unknown name is refused with a message listing
/// the valid ones.
fn select<'s>(studies: &'s [Study], names: &[&str]) -> Result<Vec<&'s Study>, String> {
    if names.is_empty() {
        return Ok(studies.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            studies.iter().find(|s| s.name == *name).ok_or_else(|| {
                let valid: Vec<&str> = studies.iter().map(|s| s.name).collect();
                format!(
                    "bench: unknown study `{name}`\nusage: bench [--quick] [study…]; studies: {}",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// Runs one study, then stamps, prints and writes its artifact. Returns
/// its failures, a failed write among them.
fn run_study(study: &Study, quick: bool, out_dir: &Path) -> Vec<String> {
    // A study runs on a thread of its own, so a panic fails that study
    // alone and its thread-local engine selection cannot leak into the
    // next. The stack matches the main thread's.
    let run = study.run;
    let joined = std::thread::Builder::new()
        .name(study.name.to_string())
        .stack_size(8 << 20)
        .spawn(move || run(quick))
        .map(|handle| handle.join());
    let Ok(Ok(outcome)) = joined else {
        return vec!["the study panicked or could not start; no artifact written".to_string()];
    };
    let mut artifact = Value::object([
        ("bench", Value::from(study.name)),
        ("schema_version", Value::Integer(BENCH_SCHEMA_VERSION)),
        ("nproc", nproc().into()),
        ("git_rev", git_rev().into()),
        ("quick", quick.into()),
    ]);
    artifact.merge_from(&outcome.artifact);
    println!("{}", render_artifact(study.name, &artifact));
    let mut failures = outcome.failures;
    let path = out_dir.join(format!("BENCH_{}.json", study.name));
    match std::fs::write(&path, json::to_string_pretty(&artifact) + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => failures.push(format!("could not write {}: {err}", path.display())),
    }
    failures
}

/// Renders an artifact for the console from the records the file holds:
/// its scalar fields (nested objects flattened to `outer.inner`) as one
/// field/value table, then every array of records as a table of its own
/// with one column per key.
fn render_artifact(name: &str, artifact: &Value) -> String {
    let mut fields = Vec::new();
    let mut tables = String::new();
    collect(name, artifact, "", &mut fields, &mut tables);
    render_table(name, &["field", "value"], &fields) + &tables
}

fn collect(
    name: &str,
    value: &Value,
    prefix: &str,
    fields: &mut Vec<Vec<String>>,
    tables: &mut String,
) {
    for (key, v) in value.as_object().into_iter().flatten() {
        let key = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        match v {
            Value::Object(members) if !members.is_empty() => {
                collect(name, v, &key, fields, tables);
            }
            Value::Array(records) if records.first().is_some_and(Value::is_object) => {
                let header: Vec<&str> = records[0]
                    .as_object()
                    .into_iter()
                    .flat_map(|r| r.keys().map(String::as_str))
                    .collect();
                let rows: Vec<Vec<String>> = records
                    .iter()
                    .map(|r| header.iter().map(|h| cell(r.get(h))).collect())
                    .collect();
                tables.push_str(&render_table(&format!("{name}: {key}"), &header, &rows));
            }
            _ => fields.push(vec![key, cell(Some(v))]),
        }
    }
}

fn cell(value: Option<&Value>) -> String {
    match value {
        Some(Value::String(s)) => s.clone(),
        Some(other) => json::to_string(other),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};

    const AWKWARD: &str = "quote \" backslash \\ newline \n tab \t bell \u{7} nul \u{0} end";

    fn awkward(quick: bool) -> Outcome {
        Outcome {
            artifact: Value::object([
                ("label", Value::from(AWKWARD)),
                ("count", 3.into()),
                (
                    "runs",
                    Value::array([Value::object([("name", Value::from(AWKWARD))])]),
                ),
                ("echo_quick", quick.into()),
            ]),
            failures: Vec::new(),
        }
    }

    fn failing(_: bool) -> Outcome {
        Outcome {
            artifact: Value::object([("ratio", Value::from(0.5))]),
            failures: vec!["ratio below the floor".to_string()],
        }
    }

    static RAN: AtomicBool = AtomicBool::new(false);

    fn marks_ran(_: bool) -> Outcome {
        RAN.store(true, Ordering::SeqCst);
        Outcome {
            artifact: Value::empty_object(),
            failures: Vec::new(),
        }
    }

    fn panics(_: bool) -> Outcome {
        panic!("the study broke");
    }

    const DEMO: [Study; 4] = [
        Study {
            name: "awkward",
            run: awkward,
        },
        Study {
            name: "failing",
            run: failing,
        },
        Study {
            name: "marks_ran",
            run: marks_ran,
        },
        Study {
            name: "panics",
            run: panics,
        },
    ];

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acto-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    fn read(dir: &Path, name: &str) -> Value {
        let text =
            std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).expect("written");
        json::from_str(&text).expect("artifact parses")
    }

    #[test]
    fn artifacts_parse_back_stamped_and_strings_round_trip() {
        let dir = scratch("stamps");
        assert_eq!(main(&DEMO, &args(&["awkward", "--quick"]), true, &dir), 0);
        let artifact = read(&dir, "awkward");
        assert_eq!(artifact.get("bench"), Some(&Value::from("awkward")));
        assert_eq!(
            artifact.get("schema_version"),
            Some(&Value::Integer(BENCH_SCHEMA_VERSION))
        );
        assert_eq!(artifact.get("nproc"), Some(&nproc().into()));
        assert!(artifact.get("git_rev").and_then(Value::as_str).is_some());
        assert_eq!(artifact.get("quick"), Some(&Value::Bool(true)));
        assert_eq!(artifact.get("echo_quick"), Some(&Value::Bool(true)));
        assert_eq!(artifact.get("label"), Some(&Value::from(AWKWARD)));
        let runs = artifact
            .get("runs")
            .and_then(Value::as_array)
            .expect("runs");
        assert_eq!(runs[0].get("name"), Some(&Value::from(AWKWARD)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_gate_still_writes_and_exits_nonzero() {
        let dir = scratch("gate");
        assert_eq!(main(&DEMO, &args(&["failing"]), false, &dir), 1);
        assert_eq!(read(&dir, "failing").get("ratio"), Some(&Value::from(0.5)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_study_fails_alone_and_writes_nothing() {
        let dir = scratch("panic");
        assert_eq!(main(&DEMO, &args(&["panics", "awkward"]), false, &dir), 1);
        assert!(!dir.join("BENCH_panics.json").exists());
        assert_eq!(
            read(&dir, "awkward").get("quick"),
            Some(&Value::Bool(false))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_fails_the_run() {
        let dir = scratch("unwritable");
        // A directory where the artifact should go: the write fails even
        // for a user whom permission bits do not stop.
        std::fs::create_dir(dir.join("BENCH_awkward.json")).expect("blocker");
        assert_eq!(main(&DEMO, &args(&["awkward"]), false, &dir), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unknown_study_is_refused_before_any_study_runs() {
        let dir = scratch("unknown");
        let code = main(&DEMO, &args(&["marks_ran", "nosuch"]), false, &dir);
        assert_eq!(code, USAGE_EXIT);
        assert!(
            !RAN.load(Ordering::SeqCst),
            "a study ran before the refusal"
        );
        assert!(!dir.join("BENCH_marks_ran.json").exists());
        let message = select(&DEMO, &["nosuch"]).expect_err("refused");
        for study in &DEMO {
            assert!(message.contains(study.name), "{message}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_study_named_selects_every_study_in_order() {
        let all: Vec<&str> = select(&DEMO, &[])
            .expect("all")
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(all, ["awkward", "failing", "marks_ran", "panics"]);
        let picked: Vec<&str> = select(&DEMO, &["marks_ran", "awkward"])
            .expect("known")
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(picked, ["marks_ran", "awkward"]);
    }

    #[test]
    fn the_console_tables_come_from_the_records() {
        let artifact = Value::object([
            ("floor", Value::from(2.0)),
            ("campaign", Value::object([("speedup", Value::from(12))])),
            (
                "runs",
                Value::array([
                    Value::object([("operator", Value::from("A")), ("trials", 7.into())]),
                    Value::object([("operator", Value::from("B")), ("trials", 9.into())]),
                ]),
            ),
        ]);
        let text = render_artifact("demo", &artifact);
        assert!(text.contains("== demo =="), "{text}");
        assert!(text.contains("campaign.speedup  12"), "{text}");
        assert!(text.contains("floor             2.0"), "{text}");
        assert!(text.contains("== demo: runs =="), "{text}");
        assert!(text.contains("B         9"), "{text}");
    }
}
