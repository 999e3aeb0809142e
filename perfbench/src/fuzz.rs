//! `fuzz`: the coverage-guided fuzzer on ZooKeeperOp with `SEED-CRASH-1`
//! seeded, crash arming on, batch 8, journaled through a fresh run store.
//!
//! Every execution forks the base checkpoint, so the work goes to fork,
//! converge, coverage merge at batch barriers and journal append/fsync.
//! Planning happens once per job, inside it (the fuzz entry point plans,
//! deploys and creates its store itself); the differential oracle is off.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use acto::model::{Trial, TrialOutcome};
use acto::oracles::{
    consistency_check, crash_consistency_check, recovery_check, transition_occurred, OracleContext,
    StateSnapshot,
};
use acto::{
    load_corpus, run_fuzz_persistent_io, CampaignConfig, CoverageMap, ExecRecord, Expectation,
    FuzzConfig, FuzzInput, FuzzResult, Manifest, PlannedOp, RunKind, RunStore, StoreIo,
    STORE_VERSION,
};
use operators::bugs::SEEDED_NONIDEMPOTENT_CREATE;
use operators::InstanceCheckpoint;

use crate::trace::Tracer;
use crate::walk::{self, WalkCounts};
use crate::{digest, timed, workers, Job, Workload};

/// The fuzzer's default master seed.
pub const DEFAULT_SEED: u64 = 0xF422;
/// A seed held out from tuning, for checking a gain on unseen inputs.
pub const HELD_OUT_SEED: u64 = 0xD00D;
/// Execution budget of one job.
pub const EXECS: usize = 256;

/// The `fuzz` workload.
#[derive(Debug, Clone)]
pub struct Fuzz {
    /// Fuzzer master seed.
    pub seed: u64,
}

impl Default for Fuzz {
    fn default() -> Fuzz {
        Fuzz { seed: DEFAULT_SEED }
    }
}

impl Fuzz {
    /// The fuzz configuration the workload runs.
    pub fn config(&self) -> FuzzConfig {
        let mut cfg = FuzzConfig::new("ZooKeeperOp");
        cfg.seed = self.seed;
        cfg.execs = EXECS;
        cfg.batch = 8;
        cfg.workers = workers();
        cfg.campaign.bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
        cfg
    }

    fn manifest(&self) -> Manifest {
        let cfg = self.config();
        Manifest {
            version: STORE_VERSION,
            kind: RunKind::Fuzz,
            operator: cfg.campaign.operator().to_string(),
            mode: cfg.campaign.mode,
            seed: cfg.seed,
            segment_ops: 0,
            execs: cfg.execs,
            batch: cfg.batch,
            max_ops: cfg.campaign.max_ops,
            differential: cfg.campaign.differential,
            crash_sweep: cfg.campaign.crash_sweep,
            max_seq: cfg.max_seq,
            crash_writes_max: cfg.crash_writes_max,
            minimize: false,
        }
    }
}

/// A run store directory, deleted when dropped. A timed set-up is dropped
/// after its time is taken, so the deletion is not part of `setup_s`.
pub struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The pool and base a walk replays from, plus the store-create time.
pub struct FuzzSetup {
    /// The planned-op pool inputs index into.
    pub pool: Vec<PlannedOp>,
    /// The deploy-converged base checkpoint.
    pub base: InstanceCheckpoint,
    /// The store the set-up created.
    pub store: StoreDir,
    /// Seconds `RunStore::create` took.
    pub store_create_s: f64,
}

/// A fresh, empty store directory under `scratch`.
fn fresh_dir(scratch: &Path, name: &str) -> PathBuf {
    let dir = scratch.join("stores").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Set-ups made in this process; each creates its store under a new name,
/// so none has to delete an old one first.
static SETUPS: AtomicUsize = AtomicUsize::new(0);

impl Workload for Fuzz {
    type Setup = FuzzSetup;
    type Output = FuzzResult;

    fn name(&self) -> &'static str {
        "fuzz"
    }

    fn why(&self) -> &'static str {
        "fork per exec, converge, coverage merge at batch barriers, journal append/fsync; \
         no differential oracle; the job plans, deploys and creates its store once itself"
    }

    fn setup_reps(&self) -> usize {
        9
    }

    /// Plans, deploys and checkpoints the base, and creates a store, as
    /// the fuzz entry point does inside each job; the job does not reuse
    /// them, the walk replays from the pool and base.
    fn setup(&self, scratch: &Path) -> FuzzSetup {
        let cfg = self.config();
        let mut t = Tracer::new();
        let mut c = WalkCounts::default();
        let pool = walk::plan(&mut t, &mut c, &cfg.campaign);
        let base = walk::deploy(&mut t, &cfg.campaign);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let store = StoreDir(scratch.join("stores").join(format!("setup-{n}")));
        let start = Instant::now();
        RunStore::create(&store.0, &self.manifest()).expect("create run store");
        let store_create_s = start.elapsed().as_secs_f64();
        FuzzSetup {
            pool,
            base,
            store,
            store_create_s,
        }
    }

    fn setup_layers(&self, setup: &FuzzSetup) -> Vec<(&'static str, f64)> {
        vec![("persist.create.s", setup.store_create_s)]
    }

    fn run(&self, _setup: &FuzzSetup, scratch: &Path, rep: usize) -> (FuzzResult, Job) {
        let cfg = self.config();
        let dir = fresh_dir(scratch, &format!("job-{rep}"));
        let io = StoreIo::clean();
        let forks_before = simkube::checkpoint_forks();
        let (result, mut job) = timed(|| {
            let result = run_fuzz_persistent_io(&cfg, &dir, false, io.clone()).expect("fuzz run");
            (result, Job::default())
        });
        let forks = simkube::checkpoint_forks() - forks_before;
        match load_corpus(&dir) {
            Ok(corpus) if corpus == result.corpus => {}
            Ok(_) => job
                .failures
                .push("stored corpus differs from the returned one".into()),
            Err(e) => job.failures.push(format!("load_corpus: {e}")),
        }
        let journal_bytes = fs::metadata(dir.join("journal.jsonl")).map_or(0, |m| m.len());
        let _ = fs::remove_dir_all(&dir);
        if !result
            .summary
            .detected_bugs
            .contains_key(SEEDED_NONIDEMPOTENT_CREATE)
        {
            job.failures
                .push(format!("missed {SEEDED_NONIDEMPOTENT_CREATE}"));
        }
        if result.records.len() != EXECS {
            job.failures
                .push(format!("ran {} of {EXECS} execs", result.records.len()));
        }
        job.trials = result.records.iter().map(|r| r.trials.len()).sum();
        job.ops = result.records.len();
        job.ops_failed = EXECS.saturating_sub(result.records.len());
        job.bugs_detected = result.summary.detected_bugs.len();
        job.bugs_by_operator = vec![(result.operator.clone(), job.bugs_detected)];
        job.coverage_features = result.coverage.len();
        job.digest = digest([
            result.transcript().as_str(),
            result.corpus.to_json_string().as_str(),
            result.coverage.digest().as_str(),
        ]);
        let stats = io.stats();
        let ws = &result.worker_stats;
        let busy: f64 = ws.iter().map(|s| s.wall.as_secs_f64()).sum();
        let walls = ws.iter().map(|s| s.wall.as_secs_f64());
        let tail = walls.clone().fold(0.0, f64::max) - walls.fold(f64::INFINITY, f64::min);
        for (name, v) in [
            ("checkpoint.forks", forks as f64),
            ("persist.appends", stats.appends as f64),
            ("persist.atomic_writes", stats.atomic_writes as f64),
            ("persist.retries", stats.retries as f64),
            ("persist.journal_bytes", journal_bytes as f64),
            ("fuzz.execs", result.execs as f64),
            ("fuzz.rounds", result.rounds as f64),
            ("fuzz.corpus", result.corpus.entries.len() as f64),
            (
                "exec.steals",
                ws.iter().map(|s| s.steals).sum::<usize>() as f64,
            ),
            (
                "exec.depot_hits",
                ws.iter().map(|s| s.depot_hits).sum::<usize>() as f64,
            ),
            ("exec.segments", result.rounds as f64),
            ("exec.busy_s", busy),
            ("exec.capacity_s", ws.len() as f64 * job.wall_s),
            ("exec.tail_s", if tail.is_finite() { tail } else { 0.0 }),
            (
                "refcache.hits",
                ws.iter().map(|s| s.ref_cache_hits).sum::<usize>() as f64,
            ),
            (
                "refcache.misses",
                ws.iter().map(|s| s.ref_cache_misses).sum::<usize>() as f64,
            ),
            (
                "run.convergence_waits",
                ws.iter().map(|s| s.convergence_waits).sum::<usize>() as f64,
            ),
            ("run.sim_s", result.total_sim_seconds as f64),
            (
                "crash.points_swept",
                result
                    .records
                    .iter()
                    .flat_map(|r| &r.trials)
                    .map(|t| u64::from(t.crash_points_swept))
                    .sum::<u64>() as f64,
            ),
        ] {
            job.layers.insert(name, v);
        }
        (result, job)
    }

    fn walk(&self, setup: &FuzzSetup, out: &FuzzResult, t: &mut Tracer) -> WalkCounts {
        let cfg = self.config();
        let mut c = WalkCounts::default();
        // Plan and deploy are walked for their spans; the executions fork
        // the set-up's base, which is the same deploy-converged state.
        walk::plan(t, &mut c, &cfg.campaign);
        walk::deploy(t, &cfg.campaign);
        let replay = Replay {
            config: &cfg.campaign,
            pool: &setup.pool,
            base: &setup.base,
        };
        let mut references: BTreeMap<Vec<usize>, Reference> = BTreeMap::new();
        let mut coverage = CoverageMap::new();
        for batch in out.records.chunks(cfg.batch.max(1)) {
            for record in batch {
                replay.exec(t, &mut c, record, &mut references);
            }
            t.span("fuzz.coverage_merge", |_| {
                for record in batch {
                    coverage.observe_all(&record.novel);
                }
            });
        }
        c.coverage_features = coverage.len();
        c
    }
}

/// What a replayed trial ended in, to set against the recorded outcome.
enum Replayed {
    /// A declaration submitted: `None` if the API rejected it, else
    /// whether the system converged.
    Submitted(Option<bool>),
    /// An oracle-judged trial (fault burst, crash boundary): whether the
    /// oracle raised no alarm, which the run records as `Converged`.
    Judged(bool),
}

impl Replayed {
    fn agrees(&self, outcome: &TrialOutcome) -> bool {
        match *self {
            Replayed::Submitted(converged) => walk::agrees(outcome, converged),
            Replayed::Judged(clean) => clean == (*outcome == TrialOutcome::Converged),
        }
    }
}

/// What one replayed sequence ended in.
struct SeqEnd {
    state: StateSnapshot,
    healthy: bool,
    converged: bool,
    /// Its trials, in the order the run records them.
    trials: Vec<Replayed>,
}

/// An uninterrupted reference run of an op sequence, as the walk keeps it.
struct Reference {
    state: StateSnapshot,
    healthy: bool,
    converged: bool,
    /// Converge calls it took; the run bills them again on every reuse.
    waits: usize,
}

/// Replays fuzz inputs from the base, as the fuzz executor runs them.
struct Replay<'a> {
    config: &'a CampaignConfig,
    pool: &'a [PlannedOp],
    base: &'a InstanceCheckpoint,
}

impl Replay<'_> {
    /// One recorded execution: the sequence, then the crash-consistency
    /// comparison against the uninterrupted run of the same ops. Counts
    /// each replayed trial that agrees with the recorded trial at its
    /// position.
    fn exec(
        &self,
        t: &mut Tracer,
        c: &mut WalkCounts,
        record: &ExecRecord,
        references: &mut BTreeMap<Vec<usize>, Reference>,
    ) {
        let input = &record.input;
        let mut run = self.sequence(t, c, input);
        if let (Some((_, k)), true) = (input.crash, input.faults.is_empty()) {
            if let Some(reference) = references.get(&input.ops) {
                c.reused_waits += reference.waits;
            } else {
                let plain = FuzzInput {
                    faults: Default::default(),
                    crash: None,
                    ..input.clone()
                };
                let calls_before = c.converge_calls;
                let r = self.sequence(t, c, &plain);
                let reference = Reference {
                    state: r.state,
                    healthy: r.healthy,
                    converged: r.converged,
                    waits: c.converge_calls - calls_before,
                };
                references.insert(input.ops.clone(), reference);
            }
            let reference = &references[&input.ops];
            let healthy = run.healthy || !reference.healthy;
            let converged = run.converged || !reference.converged;
            let alarms = walk::check(t, c, || {
                crash_consistency_check(k, &reference.state, &run.state, healthy, converged)
            });
            run.trials.push(Replayed::Judged(alarms.is_empty()));
            c.crash_points += 1;
        }
        c.trials += agreeing(&run.trials, &record.trials);
    }

    /// Runs `input`'s fault burst and ops from a fork of the base, judging
    /// each converged op, then settles.
    fn sequence(&self, t: &mut Tracer, c: &mut WalkCounts, input: &FuzzInput) -> SeqEnd {
        let mut instance = walk::restore(t, c, self.config, self.base);
        let cr_id = format!(
            "{}/{}/{}",
            instance.operator().kind(),
            instance.namespace,
            instance.name
        );
        let mut trials = Vec::new();
        if !input.faults.is_empty() {
            let pre = walk::snapshot(t, &instance);
            instance.cluster.install_fault_plan(input.faults.clone());
            let converged = walk::settle(t, c, &mut instance, input.faults.horizon());
            let after = walk::snapshot(t, &instance);
            let healthy = walk::healthy(&instance);
            let alarms = walk::check(t, c, || recovery_check(&pre, &after, healthy, converged));
            trials.push(Replayed::Judged(alarms.is_empty()));
        }
        let mut last_good = instance.cr_spec();
        for (pos, &index) in input.ops.iter().enumerate() {
            let planned = &self.pool[index % self.pool.len()];
            if let Some((crash_pos, k)) = input.crash {
                if crash_pos == pos {
                    instance
                        .cluster
                        .api_mut()
                        .arm_operator_crash(k, walk::CRASH_DOWN_FOR);
                }
            }
            let mut spec = instance.cr_spec();
            acto::campaign::apply_op(&mut spec, planned);
            if walk::normalized(&spec) == walk::normalized(&instance.cr_spec()) {
                continue;
            }
            let pre = walk::snapshot(t, &instance);
            let converged = walk::converge(t, c, &mut instance, spec.clone());
            trials.push(Replayed::Submitted(converged));
            let Some(converged) = converged else {
                continue;
            };
            let post = walk::snapshot(t, &instance);
            if converged && !instance.operator_crashed() && walk::healthy(&instance) {
                let target = walk::value_path(&planned.property);
                let previous = last_good.get_path(&target).cloned();
                let ctx = OracleContext {
                    property: &planned.property,
                    declared: &planned.value,
                    declaration: &spec,
                    pre_state: &pre,
                    post_state: &post,
                    cr_id: &cr_id,
                };
                if planned.expectation != Expectation::NormalTransition
                    || walk::check(t, c, || transition_occurred(&ctx))
                {
                    walk::check(t, c, || consistency_check(&ctx, previous.as_ref()));
                }
                last_good = spec;
            }
        }
        let converged = walk::settle(t, c, &mut instance, 0);
        let healthy = walk::healthy(&instance);
        let state = walk::snapshot(t, &instance);
        SeqEnd {
            state,
            healthy,
            converged,
            trials,
        }
    }
}

/// Replayed trials that agree with the recorded trial at their position.
fn agreeing(replayed: &[Replayed], recorded: &[Trial]) -> usize {
    replayed
        .iter()
        .zip(recorded)
        .filter(|(r, trial)| r.agrees(&trial.outcome))
        .count()
}
