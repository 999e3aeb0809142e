//! The benchmark command. See the library documentation for what it runs.
//!
//! ```text
//! perfbench --workload <campaign|fuzz|big-cluster> --seed <n> --seconds <s>
//!           --trace <0|1> [--fuzz-seed <n>]
//! ```
//!
//! `--seed` names the run; no workload draws from it. `campaign` and
//! `big-cluster` plan deterministically, and `fuzz` takes its master seed
//! from `--fuzz-seed` (default `0xF422`, held out `0xD00D`), so every
//! `--seed` runs the same inputs. Exits 1 when a correctness check fails
//! and 2 on a usage error.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use perfbench::big_cluster::BigCluster;
use perfbench::campaign::Campaign;
use perfbench::fuzz::{Fuzz, HELD_OUT_SEED};
use perfbench::heap::CountingAlloc;
use perfbench::metrics::{self, json_number};
use perfbench::{host, out_dir, run_timed, run_traced, Job, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Jobs a timed run makes at least, so its medians have three samples.
const MIN_JOBS: usize = 3;

/// Set-up measurements a timed run spreads between its jobs.
const SETUP_SAMPLES: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fuzz_seed: Option<u64>,
}

fn parse_u64(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|e| format!("bad number {v:?}: {e}"))
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value:?}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        fuzz_seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?
            }
            "--trace" => args.trace = flag_bool(&flag, &value)?,
            "--fuzz-seed" => args.fuzz_seed = Some(parse_u64(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.workload.as_str() {
        "campaign" => bench(&Campaign::default(), &args),
        "big-cluster" => bench(&BigCluster::default(), &args),
        "fuzz" => {
            let mut fuzz = Fuzz::default();
            if let Some(seed) = args.fuzz_seed {
                fuzz.seed = seed;
            }
            bench(&fuzz, &args)
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?} (campaign, fuzz, big-cluster)");
            return ExitCode::from(2);
        }
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `w` as `args` ask, prints the report and result lines, and
/// returns whether every check passed.
fn bench<W: Workload>(w: &W, args: &Args) -> bool {
    let scratch = out_dir().join(format!("{}-{}", w.name(), std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    let correct = if args.trace {
        traced(w, args, &scratch)
    } else {
        timed(w, args, &scratch)
    };
    let _ = fs::remove_dir_all(&scratch);
    correct
}

fn timed<W: Workload>(w: &W, args: &Args, scratch: &Path) -> bool {
    let run = run_timed(w, scratch, args.seconds, MIN_JOBS, SETUP_SAMPLES);
    let mut failures: Vec<String> = run.failures();
    for (i, job) in run.jobs.iter().enumerate() {
        failures.extend(job.failures.iter().map(|f| format!("job {i}: {f}")));
    }
    let correct = failures.is_empty();
    let attempted: usize = run.jobs.iter().map(|j| j.ops).sum();
    let failed = if correct {
        run.jobs.iter().map(|j| j.ops_failed).sum()
    } else {
        attempted
    };
    let values = metrics::end_to_end(&run);

    println!(
        "== perfbench {} (seed {}, {} jobs) ==",
        w.name(),
        args.seed,
        run.jobs.len()
    );
    for (name, v) in &values {
        println!("{name:>20}  {v:>14.4} {}", metrics::unit(name));
    }
    if let Some(job) = run.jobs.first() {
        let per_op: Vec<String> = job
            .bugs_by_operator
            .iter()
            .map(|(op, n)| format!("{op}={n}"))
            .collect();
        println!("bugs_detected by operator: {}", per_op.join(" "));
    }
    println!(
        "ops {attempted}, ops_failed {failed}; over the jobs: host steal {:.2} s, \
         main-thread run-queue wait {:.3} s",
        run.jobs.iter().map(|j| j.host.steal_s).sum::<f64>(),
        run.jobs.iter().map(|j| j.host.runqueue_wait_s).sum::<f64>(),
    );
    for f in &failures {
        println!("FAIL: {f}");
    }

    let mut report = header(w, args);
    let _ = write!(
        report,
        ", \"ops\": {attempted}, \"ops_failed\": {failed}, \"setup_s\": [{}], \"jobs\": [{}], \
         \"bugs_by_operator\": {{{}}}, \"failures\": [{}]}}",
        join(run.setups.setup_s.iter().map(|v| json_number(*v))),
        join(run.jobs.iter().map(job_json)),
        join(
            run.jobs
                .first()
                .map(|j| j.bugs_by_operator.clone())
                .unwrap_or_default()
                .iter()
                .map(|(op, n)| format!("\"{op}\": {n}"))
        ),
        join(failures.iter().map(|f| format!("{f:?}"))),
    );
    println!("{report}");
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, &values)
    );
    correct
}

fn traced<W: Workload>(w: &W, args: &Args, scratch: &Path) -> bool {
    let run = run_traced(w, scratch);
    let failures = run.job.failures.clone();
    let correct = failures.is_empty();
    let values = metrics::per_layer(&run);

    println!(
        "== perfbench {} layer walk (seed {}) ==",
        w.name(),
        args.seed
    );
    for (name, v) in &values {
        println!("{name:>24}  {v:>14.4} {}", metrics::unit(name));
    }
    let self_sum: f64 = run.tracer.self_times().values().sum();
    let uncovered = run.walk_wall_s - run.tracer.covered_s();
    println!(
        "walk wall {:.4} s = layer self times {:.4} s + uncovered {:.4} s; untraced job {:.4} s",
        run.walk_wall_s, self_sum, uncovered, run.job.wall_s
    );
    for f in &failures {
        println!("FAIL: {f}");
    }

    let trace_path = out_dir().join(format!("trace-{}.json", w.name()));
    let written = fs::create_dir_all(out_dir())
        .and_then(|()| fs::write(&trace_path, run.tracer.to_json(w.name(), run.walk_wall_s)));
    match written {
        Ok(()) => println!("spans written to {}", trace_path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", trace_path.display()),
    }

    let failed = if correct {
        run.job.ops_failed
    } else {
        run.job.ops
    };
    let mut report = header(w, args);
    let _ = write!(
        report,
        ", \"ops\": {}, \"ops_failed\": {failed}, \"job\": {}, \"failures\": [{}]}}",
        run.job.ops,
        job_json(&run.job),
        join(failures.iter().map(|f| format!("{f:?}"))),
    );
    println!("{report}");
    println!(
        "{}",
        metrics::result_line(correct, run.job.ops.max(1), failed, &values)
    );
    correct
}

/// The opening fields of the `report` line: provenance and inputs.
fn header<W: Workload>(w: &W, args: &Args) -> String {
    format!(
        "{{\"report\": \"perfbench\", \"workload\": \"{}\", \"why\": \"{}\", \"seed\": {}, \
         \"fuzz_seed\": {}, \"held_out_fuzz_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \
         \"nproc\": {}, \"workers\": {}, \"git_rev\": \"{}\"",
        w.name(),
        w.why(),
        args.seed,
        args.fuzz_seed.unwrap_or(perfbench::fuzz::DEFAULT_SEED),
        json_number(args.seconds),
        host::nproc(),
        perfbench::workers(),
        host::git_rev(&perfbench::checkout_root()),
    )
}

fn job_json(j: &Job) -> String {
    format!(
        "{{\"wall_s\": {}, \"cpu_s\": {}, \"steal_s\": {}, \"runqueue_wait_s\": {}, \
         \"trials\": {}, \"ops\": {}, \"ops_failed\": {}, \"digest\": \"{:016x}\"}}",
        json_number(j.wall_s),
        json_number(j.host.cpu_s),
        json_number(j.host.steal_s),
        json_number(j.host.runqueue_wait_s),
        j.trials,
        j.ops,
        j.ops_failed,
        j.digest
    )
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}
