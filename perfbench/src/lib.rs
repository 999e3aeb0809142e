//! End-to-end and per-layer benchmark of the Acto reproduction.
//!
//! Three workloads ([`campaign`], [`fuzz`], [`big_cluster`]) each run their
//! jobs in one process with at most two worker threads. A timed run
//! repeats the job for the requested seconds and reports per-job medians,
//! with set-up timed in the same process between the jobs (see
//! [`SetupSamples::setup_s`]); every job's outputs are checked. A traced
//! run executes one job, then replays it as a layer walk ([`walk`]) whose
//! spans give each layer's self time.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! a human-readable table and a `report` JSON line with every sample.

pub mod big_cluster;
pub mod campaign;
pub mod fuzz;
pub mod heap;
pub mod host;
pub mod metrics;
pub mod trace;
pub mod walk;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use host::HostSnapshot;
use trace::Tracer;
use walk::WalkCounts;

/// Worker threads for the multi-worker workloads: the host's core count,
/// capped at two.
pub fn workers() -> usize {
    host::nproc().clamp(1, 2)
}

/// One timed job: what it did, what it cost and whether it checked out.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Wall seconds of the job.
    pub wall_s: f64,
    /// Host counter deltas over the job.
    pub host: HostSnapshot,
    /// Trials judged by the oracles.
    pub trials: usize,
    /// Operations attempted: trials, or executions for `fuzz`.
    pub ops: usize,
    /// Operations in quarantined or panicked segments.
    pub ops_failed: usize,
    /// Distinct ground-truth bugs attributed.
    pub bugs_detected: usize,
    /// `fuzz`: distinct coverage features; campaigns: properties covered.
    pub coverage_features: usize,
    /// Digest of every deterministic output, equal across jobs of a run.
    pub digest: u64,
    /// Bugs detected per operator.
    pub bugs_by_operator: Vec<(String, usize)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Per-layer counters of the job (scheduler, caches, run store).
    pub layers: BTreeMap<&'static str, f64>,
}

/// A workload: a set-up, a job that runs on it, and a walk that replays
/// the job's recorded inputs layer by layer.
pub trait Workload {
    /// What set-up leaves for the job and the walk.
    type Setup;
    /// A job's raw result, recorded for the walk.
    type Output;

    /// Workload name, as `--workload` takes it.
    fn name(&self) -> &'static str;
    /// Why the workload is in the benchmark, in one sentence.
    fn why(&self) -> &'static str;
    /// Set-ups per set-up measurement; their median is its time.
    fn setup_reps(&self) -> usize;
    /// Plans, deploys and checkpoints (and creates a store, for `fuzz`).
    fn setup(&self, scratch: &Path) -> Self::Setup;
    /// Per-layer values measured during set-up (median over set-ups).
    fn setup_layers(&self, _setup: &Self::Setup) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Runs the job once, checking its outputs.
    fn run(&self, setup: &Self::Setup, scratch: &Path, rep: usize) -> (Self::Output, Job);
    /// Replays `out` through each layer's public calls under spans.
    fn walk(&self, setup: &Self::Setup, out: &Self::Output, t: &mut Tracer) -> WalkCounts;
}

/// Runs `run` between two host snapshots and fills the job's timing.
pub fn timed<R>(run: impl FnOnce() -> (R, Job)) -> (R, Job) {
    let before = HostSnapshot::now();
    let start = Instant::now();
    let (out, mut job) = run();
    job.wall_s = start.elapsed().as_secs_f64();
    job.host = HostSnapshot::now().since(&before);
    (out, job)
}

/// FNV-1a over `parts`, for the cross-job determinism digests.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(0xff)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Set-up times, measured in this process between the jobs of a run.
#[derive(Debug, Clone, Default)]
pub struct SetupSamples {
    /// Per measurement, the median seconds of its set-ups.
    pub setup_s: Vec<f64>,
}

impl SetupSamples {
    /// The reported set-up time: the fastest of the measurements' medians.
    /// On a shared host, small single-threaded work runs in a fast and a
    /// ~50%-slower state that flips within seconds to minutes; the
    /// measurements are spread over the run, and the fastest of them
    /// measures the set-up's own cost rather than which state the host
    /// was in.
    pub fn setup_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Sets up `w.setup_reps()` times in a row and records their median.
    /// Each set-up is dropped after its time is taken and before the next
    /// starts, so they do not stack in memory and their clean-up is not
    /// timed. They do not count toward the run's peak heap.
    pub fn measure<W: Workload>(&mut self, w: &W, scratch: &Path) {
        heap::excluding_peak(|| {
            let mut times = Vec::new();
            for _ in 0..w.setup_reps().max(1) {
                let start = Instant::now();
                let setup = w.setup(scratch);
                times.push(start.elapsed().as_secs_f64());
                drop(setup);
            }
            self.setup_s.push(metrics::median(&times));
        });
    }
}

/// The result of a timed run.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Set-up times.
    pub setups: SetupSamples,
    /// Every job, in order.
    pub jobs: Vec<Job>,
    /// Peak live heap over set-up and jobs, MiB.
    pub peak_heap_mb: f64,
}

impl TimedRun {
    /// Run-level failures: jobs whose outputs differ from the first job's.
    pub fn failures(&self) -> Vec<String> {
        let first = self.jobs.first().map(|j| j.digest);
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| Some(j.digest) != first)
            .map(|(i, j)| {
                format!(
                    "job {i} outputs differ from job 0 (digest {:016x})",
                    j.digest
                )
            })
            .collect()
    }
}

/// Sets up once for the jobs, then repeats the job while at least half a
/// job still fits in `seconds` of job time, and at least `min_jobs` times.
///
/// Set-up is measured `setup_samples` times: before each of the first
/// jobs, then after the last job for any still owed. Spread over the run,
/// the fastest of them sees the host at its fastest in the run, not in its
/// first second. The set-up the jobs use is the process's first and is
/// not timed.
pub fn run_timed<W: Workload>(
    w: &W,
    scratch: &Path,
    seconds: f64,
    min_jobs: usize,
    setup_samples: usize,
) -> TimedRun {
    heap::reset_peak();
    let setup = w.setup(scratch);
    let mut run = TimedRun::default();
    let mut job_s = 0.0;
    let mut last_wall = 0.0;
    while run.jobs.len() < min_jobs || job_s + last_wall / 2.0 < seconds {
        if run.jobs.len() < setup_samples {
            run.setups.measure(w, scratch);
        }
        let (_, job) = w.run(&setup, scratch, run.jobs.len());
        last_wall = job.wall_s;
        job_s += job.wall_s;
        run.jobs.push(job);
    }
    for _ in run.jobs.len()..setup_samples {
        run.setups.measure(w, scratch);
    }
    run.peak_heap_mb = heap::peak_mb();
    run
}

/// The result of a traced run: one untraced job and its layer walk.
#[derive(Debug)]
pub struct TracedRun {
    /// Per-layer set-up values.
    pub setup_layers: Vec<(&'static str, f64)>,
    /// The untraced job.
    pub job: Job,
    /// The walk's tracer.
    pub tracer: Tracer,
    /// The walk's wall seconds.
    pub walk_wall_s: f64,
    /// The walk's counts.
    pub counts: WalkCounts,
}

/// Sets up once, runs one job, then walks it.
pub fn run_traced<W: Workload>(w: &W, scratch: &Path) -> TracedRun {
    let setup = w.setup(scratch);
    let setup_layers = w.setup_layers(&setup);
    let (out, job) = w.run(&setup, scratch, 0);
    let mut tracer = Tracer::new();
    let counts = w.walk(&setup, &out, &mut tracer);
    let walk_wall_s = tracer.elapsed_s();
    TracedRun {
        setup_layers,
        job,
        tracer,
        walk_wall_s,
        counts,
    }
}

/// The directory runs write into: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checkout root: the parent of this package's directory.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}
