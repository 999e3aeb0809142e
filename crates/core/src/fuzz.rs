//! Coverage-guided greybox fuzzing over campaign inputs (ROADMAP item 1).
//!
//! Acto enumerates its operation and fault spaces up front, which caps how
//! much observable territory a campaign reaches per CPU-hour. This module
//! *searches* that space instead: a fuzz input is a `(seed, op-sequence,
//! fault plan, crash point)` tuple, executed by forking the simulated
//! cluster from the deploy-converged base checkpoint (an O(1) CoW
//! restore — never a redeployment), and observed through a
//! [`CoverageMap`] keyed on masked-state buckets, state-transition edges,
//! trial-outcome classes, alarm kinds, and crash-boundary verdicts. Inputs
//! that reached novel territory enter a deterministic [`Corpus`]; a
//! seeded-RNG mutator (splice, insert/delete/replace ops, fault-timing
//! perturbation, crash-write re-arming, havoc) breeds children from corpus
//! parents. Batches run through the work-stealing
//! [`crate::exec::Scheduler`] and merge in input order at batch
//! boundaries, so the whole campaign — transcript, corpus, and
//! coverage map — is byte-identical across repeat runs and for *any*
//! worker count.
//!
//! The pure-random baseline ([`run_random`]) draws inputs from Acto's
//! enumerated space: op sequences from the planned pool and fault plans
//! from [`FaultPlan::generate`], which deliberately never draws
//! `OperatorCrash` (crash points are swept systematically in Acto, not
//! sampled). Crash arming therefore enters only through the guided
//! mutator, exactly the kind of input composition enumeration misses.
//!
//! Determinism contract: every random decision flows from one
//! [`SplitMix64`] stream advanced on the coordinating thread; execution of
//! one input is a pure function of `(config, input)` (reference caches
//! replay their stored sim-second accounting on hits); and per-worker
//! results merge at batch barriers in input order. Same config + same seed
//! ⇒ byte-identical [`FuzzResult::transcript`] at 1, 2, or any number of
//! workers, and any saved corpus entry replays bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crdspec::Value;
use operators::{InstanceCheckpoint, CONVERGE_MAX, CONVERGE_RESET};
use simkube::{FaultPlan, FaultProfile, ObjKey, SimCluster, SplitMix64};

use crate::campaign::{
    apply_op, collapse, deploy_base, normalized, plan_operator, resolve_operator, restore,
    CampaignConfig, FreshRefCache,
};
use crate::exec::{Memo, Scheduler, TrialRecord};
use crate::model::{Expectation, Mode, PlannedOp, Trial, TrialOutcome};
use crate::oracles::{self, masked_snapshot, transition_occurred, OracleContext, StateSnapshot};
use crate::parallel::WorkerStats;
use crate::persist;
use crate::report::{render_detected, Alarm, CampaignSummary};
use crate::step::{self, Judged, Ledger, CRASH_DOWN_FOR};

/// One fuzz input: everything that determines an execution.
///
/// `ops` are indices into the shared planned-op pool (the same pool a
/// campaign would execute in order), so every input stays schema-valid by
/// construction and converts back to a declaration sequence that
/// [`crate::minimize`] can consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzInput {
    /// Input-identity salt drawn from the mutator stream. Execution does
    /// not consult it (runs are deterministic without ambient randomness);
    /// it keeps otherwise-identical children distinguishable in the corpus.
    pub seed: u64,
    /// Operation sequence as indices into the planned-op pool.
    pub ops: Vec<usize>,
    /// Fault burst fired against the deployed system before the ops run.
    pub faults: FaultPlan,
    /// Operator crash armed before submitting the op at position `.0`,
    /// firing after the `.1`-th state-changing write.
    pub crash: Option<(usize, u32)>,
}

impl FuzzInput {
    /// Canonical JSON rendering — the corpus (de)serialization format and
    /// the dedup key for the fuzzer's seen-set.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("seed", Value::Integer(self.seed as i64)),
            (
                "ops",
                Value::array(self.ops.iter().map(|&i| Value::Integer(i as i64))),
            ),
            ("faults", self.faults.to_value()),
        ];
        if let Some((pos, at_write)) = self.crash {
            fields.push((
                "crash",
                Value::object([
                    ("pos", Value::Integer(pos as i64)),
                    ("at_write", Value::Integer(i64::from(at_write))),
                ]),
            ));
        }
        Value::object(fields)
    }

    /// Parses an input from [`FuzzInput::to_value`]'s rendering.
    pub fn from_value(value: &Value) -> Result<FuzzInput, String> {
        let seed = value
            .get("seed")
            .and_then(Value::as_i64)
            .ok_or_else(|| "input missing integer field \"seed\"".to_string())?
            as u64;
        let ops = value
            .get("ops")
            .and_then(Value::as_array)
            .ok_or_else(|| "input missing array field \"ops\"".to_string())?
            .iter()
            .map(|v| {
                v.as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| "op index must be a non-negative integer".to_string())
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let faults = value
            .get("faults")
            .ok_or_else(|| "input missing field \"faults\"".to_string())
            .and_then(FaultPlan::from_value)?;
        let crash = match value.get("crash") {
            None => None,
            Some(c) => {
                let pos = c
                    .get("pos")
                    .and_then(Value::as_i64)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| "crash missing integer field \"pos\"".to_string())?;
                let at_write = c
                    .get("at_write")
                    .and_then(Value::as_i64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "crash missing integer field \"at_write\"".to_string())?;
                Some((pos, at_write))
            }
        };
        Ok(FuzzInput {
            seed,
            ops,
            faults,
            crash,
        })
    }

    /// The input's canonical dedup key.
    pub fn key(&self) -> String {
        crdspec::json::to_string(&self.to_value())
    }

    /// The declaration sequence this input submits — the exact format
    /// [`crate::minimize::replays_alarm`] and delta debugging consume.
    pub fn declarations(&self, pool: &[PlannedOp], initial_cr: &Value) -> Vec<Value> {
        let mut working = initial_cr.clone();
        let mut out = Vec::new();
        if pool.is_empty() {
            return out;
        }
        for &idx in &self.ops {
            apply_op(&mut working, &pool[idx % pool.len()]);
            out.push(working.clone());
        }
        out
    }
}

/// One unit of observable territory.
///
/// State hashes come from `observable_hash`: the masked rendering of
/// every non-CR state object plus the cluster fingerprint's repeatable
/// components (`ClusterFingerprint::coverage_hash`). The CR itself is
/// excluded — it echoes the submitted declaration, and hashing the input
/// back into the coverage signal would make every distinct input trivially
/// "novel".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoverageFeature {
    /// A masked-state bucket the system converged into.
    State(u64),
    /// An ordered state transition `pre → post`. Order-sensitive:
    /// `Edge(a, b)` and `Edge(b, a)` are different territory.
    Edge(u64, u64),
    /// A trial-outcome class (payload-free, so two distinct rejection
    /// messages are one behaviour).
    Outcome(&'static str),
    /// An alarm kind fired by some oracle.
    Alarm(&'static str),
    /// A crash boundary `k` with its replay verdict (`consistent`,
    /// `diverged`, or `unfired` when the run never reached write `k`).
    CrashBoundary(u32, &'static str),
}

impl CoverageFeature {
    /// Stable one-line rendering, used in transcripts and corpus files.
    pub fn render(&self) -> String {
        match self {
            CoverageFeature::State(h) => format!("state:{h:016x}"),
            CoverageFeature::Edge(a, b) => format!("edge:{a:016x}->{b:016x}"),
            CoverageFeature::Outcome(c) => format!("outcome:{c}"),
            CoverageFeature::Alarm(k) => format!("alarm:{k}"),
            CoverageFeature::CrashBoundary(k, v) => format!("crash:{k}:{v}"),
        }
    }

    fn class(&self) -> &'static str {
        match self {
            CoverageFeature::State(_) => "state",
            CoverageFeature::Edge(..) => "edge",
            CoverageFeature::Outcome(_) => "outcome",
            CoverageFeature::Alarm(_) => "alarm",
            CoverageFeature::CrashBoundary(..) => "crash-boundary",
        }
    }
}

/// The global novelty set. Observation is idempotent (a feature counts
/// once, ever) and merge is a commutative set union, so per-worker maps
/// merged at batch boundaries equal one map fed sequentially.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    features: BTreeSet<CoverageFeature>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Records one feature; `true` iff it was novel.
    pub fn observe(&mut self, feature: CoverageFeature) -> bool {
        self.features.insert(feature)
    }

    /// Records a batch in order, returning the novel ones (first sighting
    /// wins; a feature repeated within `features` is novel once).
    pub fn observe_all(&mut self, features: &[CoverageFeature]) -> Vec<CoverageFeature> {
        features
            .iter()
            .filter(|f| self.features.insert(**f))
            .copied()
            .collect()
    }

    /// Whether the feature has been observed.
    pub fn contains(&self, feature: &CoverageFeature) -> bool {
        self.features.contains(feature)
    }

    /// Set-union merge; commutative and idempotent.
    pub fn merge(&mut self, other: &CoverageMap) {
        self.features.extend(other.features.iter().copied());
    }

    /// Distinct features observed.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Distinct features per class (`state`, `edge`, `outcome`, `alarm`,
    /// `crash-boundary`).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.features {
            *counts.entry(f.class()).or_insert(0) += 1;
        }
        counts
    }

    /// Deterministic rendering of the whole map (sorted), for transcript
    /// equality checks.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for f in &self.features {
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }
}

/// A corpus entry: an input that reached novel territory, with its lineage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Dense id (index into the corpus).
    pub id: usize,
    /// Parent entry id, `None` for fresh random inputs.
    pub parent: Option<usize>,
    /// Mutation that produced this input from its parent.
    pub mutation: String,
    /// Global execution index at which the input ran.
    pub exec: usize,
    /// The input itself.
    pub input: FuzzInput,
    /// Rendered features this input observed first.
    pub new_features: Vec<String>,
}

/// The deterministic corpus: every input that extended coverage, in
/// discovery order. Serializable so runs are resumable and entries replay
/// bit-for-bit in later processes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// Operator the corpus was grown against.
    pub operator: String,
    /// Entries in discovery order; `entries[i].id == i`.
    pub entries: Vec<CorpusEntry>,
}

/// Format version stamped into `corpus.json`.
const CORPUS_VERSION: i64 = 1;

impl Corpus {
    /// Serializes the corpus to pretty JSON. Entries go through the same
    /// codec as the run store's journal.
    pub fn to_json_string(&self) -> String {
        let root = Value::object([
            ("version", Value::Integer(CORPUS_VERSION)),
            ("operator", Value::String(self.operator.clone())),
            (
                "entries",
                Value::array(self.entries.iter().map(persist::corpus_entry_to_value)),
            ),
        ]);
        crdspec::json::to_string_pretty(&root)
    }

    /// Parses a corpus from [`Corpus::to_json_string`]'s rendering. An
    /// unsupported version or a malformed entry is an error, never
    /// silently dropped.
    pub fn from_json_str(s: &str) -> Result<Corpus, String> {
        let root = crdspec::json::from_str(s).map_err(|e| format!("corpus parse: {e:?}"))?;
        let version = persist::req_i64(&root, "version").map_err(|e| format!("corpus {e}"))?;
        if version != CORPUS_VERSION {
            return Err(format!(
                "corpus version {version} is not the supported version {CORPUS_VERSION}"
            ));
        }
        let operator = persist::req_str(&root, "operator").map_err(|e| format!("corpus {e}"))?;
        let entries = persist::req_array(&root, "entries")
            .map_err(|e| format!("corpus {e}"))?
            .iter()
            .enumerate()
            .map(|(i, e)| {
                persist::corpus_entry_from_value(e).map_err(|e| format!("entry {i}: {e}"))
            })
            .collect::<Result<Vec<CorpusEntry>, String>>()?;
        Ok(Corpus {
            operator: operator.to_string(),
            entries,
        })
    }
}

/// Fuzzing-campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The underlying campaign configuration (operator, mode, bug toggles,
    /// platform, differential oracle, custom oracles). Custom oracles run
    /// on every converged trial that made a state transition, like the
    /// consistency and differential oracles. `strategy`, `max_ops`, and
    /// `crash_sweep` are not consulted by the fuzz executor.
    pub campaign: CampaignConfig,
    /// Master seed: the only source of randomness in the run.
    pub seed: u64,
    /// Total execution budget.
    pub execs: usize,
    /// Executions per round — the deterministic merge barrier. Guidance
    /// feedback (corpus growth) takes effect between rounds.
    pub batch: usize,
    /// Worker threads for batch execution.
    pub workers: usize,
    /// Fresh random inputs draw 1..=`max_seq` ops; mutation may deepen
    /// sequences up to `4 * max_seq` (splices and insertions compound
    /// across generations, and clamp at that growth bound).
    pub max_seq: usize,
    /// Crash boundaries are armed in `1..=crash_writes_max`.
    pub crash_writes_max: u32,
    /// Profile for seed-derived fault-plan generation.
    pub fault_profile: FaultProfile,
}

impl FuzzConfig {
    /// A small default configuration for the given operator: whitebox
    /// mode, bugs fixed, clean platform.
    pub fn new(operator: &str) -> FuzzConfig {
        FuzzConfig {
            campaign: CampaignConfig::fuzz(operator, Mode::Whitebox),
            seed: 0xAC70,
            execs: 64,
            batch: 16,
            workers: 2,
            max_seq: 5,
            crash_writes_max: 4,
            fault_profile: FaultProfile::default(),
        }
    }
}

/// One executed input, as recorded in the result; generic over the trial
/// record like [`FuzzResult`].
#[derive(Debug, Clone)]
pub struct ExecRecord<T = Trial> {
    /// Global execution index.
    pub index: usize,
    /// The input that ran.
    pub input: FuzzInput,
    /// How the input was produced (`fresh`, `random`, `replay`, or a
    /// mutation name).
    pub mutation: String,
    /// Corpus id of the parent, if mutated.
    pub parent: Option<usize>,
    /// Trials the execution produced, in order.
    pub trials: Vec<T>,
    /// Features this execution observed first (in observation order).
    pub novel: Vec<CoverageFeature>,
    /// Simulated seconds the execution consumed (including any reference
    /// runs it caused).
    pub sim_seconds: u64,
}

/// The result of a fuzzing campaign, generic over the trial record it
/// carries: [`Trial`] for a single operator, or
/// [`crate::compose::ComposedTrial`] for a composition
/// ([`crate::compose::ComposedFuzzResult`]).
#[derive(Debug)]
pub struct FuzzResult<T = Trial> {
    /// Target under test: the operator name, or the composed members
    /// joined with `+`.
    pub operator: String,
    /// Mode used.
    pub mode: Mode,
    /// Master seed of the run.
    pub seed: u64,
    /// Executions performed (excluding corpus replays during a resume).
    pub execs: usize,
    /// Merge rounds performed.
    pub rounds: usize,
    /// Final coverage map.
    pub coverage: CoverageMap,
    /// Final corpus.
    pub corpus: Corpus,
    /// Every execution, in order.
    pub records: Vec<ExecRecord<T>>,
    /// Attributed findings over all trials.
    pub summary: CampaignSummary,
    /// Total simulated seconds (base deployment + all executions).
    pub total_sim_seconds: u64,
    /// Simulated seconds spent deploying the shared base checkpoint.
    pub base_sim_seconds: u64,
    /// Per-worker scheduling statistics (depot hits, reference-cache
    /// hits/misses, sim seconds), accumulated across batches.
    pub worker_stats: Vec<WorkerStats>,
    /// Real time the run took.
    pub wall: Duration,
}

impl<T: TrialRecord> FuzzResult<T> {
    /// Renders everything the run observed — inputs, trials, alarms,
    /// corpus, coverage — excluding scheduling-dependent quantities
    /// (worker stats, wall clock). Two runs over the same configuration
    /// produce byte-identical transcripts for *any* worker count.
    pub fn transcript(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}: {}", T::TARGET_KEY, self.operator);
        let _ = writeln!(out, "mode: {}", self.mode.name());
        let _ = writeln!(out, "seed: {:#x}", self.seed);
        let _ = writeln!(out, "execs: {} in {} rounds", self.execs, self.rounds);
        for record in &self.records {
            let _ = writeln!(
                out,
                "exec #{} via {} (parent {:?}) input={}",
                record.index,
                record.mutation,
                record.parent,
                record.input.key()
            );
            for trial in &record.trials {
                trial.render_fuzz(&mut out);
            }
            for f in &record.novel {
                let _ = writeln!(out, "  novel {}", f.render());
            }
        }
        for entry in &self.corpus.entries {
            let _ = writeln!(
                out,
                "corpus #{} parent={:?} via {} at exec {}: {}",
                entry.id,
                entry.parent,
                entry.mutation,
                entry.exec,
                entry.input.key()
            );
        }
        let _ = writeln!(out, "coverage ({} features):", self.coverage.len());
        out.push_str(&self.coverage.digest());
        render_detected(&mut out, &self.summary);
        out
    }
}

// ---------------------------------------------------------------------------
// Input generation and mutation
// ---------------------------------------------------------------------------

/// Draws a fresh input from the enumerated space: 1..=`max_seq` pool ops,
/// a generated fault plan on a coin flip, and no crash point —
/// [`FaultPlan::generate`] never draws `OperatorCrash`, so crash arming is
/// exclusive to the guided mutator by construction.
pub(crate) fn random_input(rng: &mut SplitMix64, pool_len: usize, cfg: &FuzzConfig) -> FuzzInput {
    let len = 1 + rng.below(cfg.max_seq.max(1) as u64) as usize;
    let ops = (0..len)
        .map(|_| rng.below(pool_len.max(1) as u64) as usize)
        .collect();
    let faults = if rng.below(2) == 0 {
        FaultPlan::generate(rng.next_u64(), &cfg.fault_profile)
    } else {
        FaultPlan::default()
    };
    FuzzInput {
        seed: rng.next_u64(),
        ops,
        faults,
        crash: None,
    }
}

/// Rebuilds a fault plan from an edited fault list.
fn rebuild_plan(faults: Vec<(u64, simkube::Fault)>) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (at, fault) in faults {
        plan.push(at, fault);
    }
    plan
}

/// Breeds a child from `parent` (and `donor`, for splicing). Every child
/// stays schema-valid by construction: op indices are drawn below
/// `pool_len`, sequences stay non-empty and bounded by `4 * max_seq`, and
/// crash positions are clamped into the sequence after any length edit —
/// so any corpus entry can be shrunk and replayed by `minimize`.
pub(crate) fn mutate_input(
    parent: &FuzzInput,
    donor: &FuzzInput,
    rng: &mut SplitMix64,
    pool_len: usize,
    cfg: &FuzzConfig,
) -> (FuzzInput, &'static str) {
    let mut input = parent.clone();
    input.seed = rng.next_u64();
    let pool_len = pool_len.max(1) as u64;
    let max_len = (cfg.max_seq * 4).max(1);
    let crash_max = cfg.crash_writes_max.max(1);
    let name = match rng.below(12) {
        0 => {
            // Concatenate the whole parent with a donor suffix: sequence
            // depth compounds across generations, which is the engine of
            // corpus-driven exploration — every op past the shared prefix
            // executes from a state no fresh random draw starts in.
            let cut = rng.below(donor.ops.len() as u64 + 1) as usize;
            let mut ops = input.ops.clone();
            ops.extend(donor.ops[cut..].iter().copied());
            ops.truncate(max_len);
            input.ops = ops;
            "splice"
        }
        1 | 2 => {
            // Insert a short run of ops (deepening gets double weight).
            let at = rng.below(input.ops.len() as u64 + 1) as usize;
            let run = 1 + rng.below(4) as usize;
            for i in 0..run {
                let op = rng.below(pool_len) as usize;
                if input.ops.len() < max_len {
                    input.ops.insert(at + i, op);
                } else {
                    let slot = (at + i).min(input.ops.len() - 1);
                    input.ops[slot] = op;
                }
            }
            "insert-op"
        }
        3 => {
            if input.ops.len() > 1 {
                let at = rng.below(input.ops.len() as u64) as usize;
                input.ops.remove(at);
                "delete-op"
            } else {
                input.ops[0] = rng.below(pool_len) as usize;
                "replace-op"
            }
        }
        4 => {
            let at = rng.below(input.ops.len() as u64) as usize;
            input.ops[at] = rng.below(pool_len) as usize;
            "replace-op"
        }
        6 => {
            if input.faults.is_empty() {
                input.faults = FaultPlan::generate(rng.next_u64(), &cfg.fault_profile);
                "add-fault"
            } else {
                // Shift every firing time by ±1..=3s (floor 1s): the same
                // trouble, differently interleaved with recovery.
                let edited = input
                    .faults
                    .faults()
                    .iter()
                    .map(|t| {
                        let shift = 1 + rng.below(3);
                        let at = if rng.below(2) == 0 {
                            t.at.saturating_sub(shift).max(1)
                        } else {
                            t.at + shift
                        };
                        (at, t.fault.clone())
                    })
                    .collect();
                input.faults = rebuild_plan(edited);
                "perturb-fault-timing"
            }
        }
        7 => {
            // Merge in one generated fault at a fresh firing time.
            let single = FaultProfile {
                max_faults: 1,
                ..cfg.fault_profile.clone()
            };
            let extra = FaultPlan::generate(rng.next_u64(), &single);
            let mut edited: Vec<(u64, simkube::Fault)> = input
                .faults
                .faults()
                .iter()
                .map(|t| (t.at, t.fault.clone()))
                .collect();
            edited.extend(extra.faults().iter().map(|t| (t.at, t.fault.clone())));
            input.faults = rebuild_plan(edited);
            "add-fault"
        }
        9 | 10 => {
            // (Re-)arm the operator crash: double weight, because crash
            // boundaries are exactly the territory enumeration never
            // samples. Faults are dropped so the crash-consistency oracle
            // can compare against the uninterrupted reference of the same
            // sequence — a concurrent fault burst would confound the
            // comparison. The crash point is biased into the first half of
            // the sequence: everything after the restart executes in the
            // post-crash epoch — structurally distinct recovery territory —
            // so an early crash leaves a longer suffix to wander it.
            let half = (input.ops.len() as u64).div_ceil(2);
            let pos = rng.below(half) as usize;
            // Low write-counts fire far more often (an op has to perform at
            // least k writes for the crash to trigger), so k is the min of
            // two draws: still covers every boundary, weighted toward ones
            // that actually detonate.
            let k = 1 + rng
                .below(u64::from(crash_max))
                .min(rng.below(u64::from(crash_max))) as u32;
            input.crash = Some((pos, k));
            input.faults = FaultPlan::default();
            "arm-crash"
        }
        _ => {
            // Havoc (triple weight — by measure the highest novelty yield
            // per exec): rewrite about half the ops, possibly extend the
            // sequence, re-roll faults on a coin flip, toggle the crash
            // point on a die roll.
            for op in input.ops.iter_mut() {
                if rng.below(2) == 0 {
                    *op = rng.below(pool_len) as usize;
                }
            }
            let extend = rng.below(6) as usize;
            for _ in 0..extend {
                if input.ops.len() < max_len {
                    input.ops.push(rng.below(pool_len) as usize);
                }
            }
            if rng.below(2) == 0 {
                input.faults = if rng.below(2) == 0 {
                    FaultPlan::generate(rng.next_u64(), &cfg.fault_profile)
                } else {
                    FaultPlan::default()
                };
            }
            match rng.below(3) {
                0 => {
                    let half = (input.ops.len() as u64).div_ceil(2);
                    let pos = rng.below(half) as usize;
                    input.crash = Some((pos, 1 + rng.below(u64::from(crash_max)) as u32));
                    input.faults = FaultPlan::default();
                }
                1 => input.crash = None,
                _ => {}
            }
            "havoc"
        }
    };
    if let Some((pos, k)) = input.crash {
        input.crash = if input.ops.is_empty() {
            None
        } else {
            Some((pos.min(input.ops.len() - 1), k.clamp(1, crash_max)))
        };
    }
    debug_assert!(
        !input.ops.is_empty() && input.ops.len() <= max_len.max(parent.ops.len()),
        "mutated sequence must stay non-empty and within the 4*max_seq growth bound \
         (len {} vs bound {max_len}, parent {})",
        input.ops.len(),
        parent.ops.len()
    );
    (input, name)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A cached crash-consistency reference: the uninterrupted run of one op
/// sequence (no faults, no crash) from the shared base checkpoint. Keyed
/// by the sequence alone; a hit replays the stored sim-second accounting
/// verbatim, so transcripts are invariant to cache state and worker count.
#[derive(Debug)]
struct SeqReference {
    state: StateSnapshot,
    healthy: bool,
    converged: bool,
    sim_seconds: u64,
    convergence_waits: usize,
}

/// Cross-worker cache of `SeqReference`s, keyed by the op sequence.
type SeqRefCache = Memo<String, SeqReference>;

/// Everything one sequence execution observed.
struct SeqRun {
    trials: Vec<Trial>,
    features: Vec<CoverageFeature>,
    final_state: StateSnapshot,
    healthy: bool,
    converged: bool,
    /// The run's counters; `sim_seconds` covers this cluster plus any
    /// differential references.
    stats: WorkerStats,
}

/// One executed fuzz input.
pub(crate) struct FuzzExec<T = Trial> {
    pub(crate) trials: Vec<T>,
    pub(crate) features: Vec<CoverageFeature>,
    pub(crate) sim_seconds: u64,
}

/// Hash of the system's *structural* observable state: which objects
/// exist, their status sections (replica readiness, pod phases, health
/// conditions), and the cluster fingerprint's repeatable components. The
/// CR objects in `crs` (one per operator under test) are left out.
///
/// Spec sections are deliberately excluded: operators mirror the submitted
/// declaration into child specs (ConfigMap data, StatefulSet templates),
/// so hashing them would make the state bucket an injective echo of the
/// input — every distinct declaration would be "novel territory" and
/// coverage would say nothing beyond input count. Status sections are what
/// the *system* did in response; that is the territory worth bucketing,
/// and it is what lets undirected sampling saturate while genuinely new
/// behaviour (scale transitions, degradations, wedged retry loops, crash
/// epochs) keeps minting buckets.
pub(crate) fn observable_hash(cluster: &SimCluster, crs: &[ObjKey]) -> u64 {
    let store = cluster.api().store();
    let mut h = store.digest_sum(&entry_digest);
    // The CR entries subtract straight back out of the commutative sum.
    for key in crs {
        if let Some(obj) = store.get_shared(key) {
            h = h.wrapping_sub(entry_digest(key, obj));
        }
    }
    h ^ cluster.quiescence_fingerprint().coverage_hash()
}

/// Per-object digest backing [`observable_hash`]: FNV-1a over the
/// normalized object id and the masked status rendering, passed through a
/// splitmix64 finalizer so the store's commutative wrapping-add combine
/// ([`simkube::ObjectStore::digest_sum`]) still separates entries. The
/// store memoizes these per B-tree node, so after the first render only
/// objects on mutated root-to-leaf paths are re-rendered — the hash of a
/// 100k-object store costs O(changed), not O(total).
///
/// Spec sections are deliberately excluded, exactly as before: status is
/// what the *system* did; hashing specs would make every distinct
/// declaration trivially "novel" (see the doc comment above).
fn entry_digest(key: &ObjKey, obj: &Arc<simkube::StoredObject>) -> u64 {
    let fnv = |mut h: u64, bytes: &[u8]| -> u64 {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    };
    let id = format!("{}/{}/{}", key.kind.name(), key.namespace, key.name);
    let mut h = fnv(0xcbf2_9ce4_8422_2325u64, normalize_key(&id).as_bytes());
    // Masking goes by key name and `status` is not a masked name, so this
    // is the `status` section of the masked whole-object rendering, without
    // rendering the metadata and spec beside it.
    let status = oracles::mask_value(&obj.data.status_value());
    h = fnv(h, crdspec::json::to_string(&status).as_bytes());
    // splitmix64 finalizer: without it, wrapping-add of raw FNV values
    // would let near-identical entries cancel.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Collapses content-addressed object names into one bucket: a trailing
/// `-<hex>` segment of eight or more hex digits is a digest of the input
/// (e.g. the operator's `zk-init-<declaration-hash>` marker ConfigMaps),
/// so keeping it verbatim would leak the declaration back into the state
/// bucket through the key. Ordinal suffixes (`test-cluster-2`) survive —
/// replica identity is genuine structure.
pub(crate) fn normalize_key(key: &str) -> String {
    match key.rsplit_once('-') {
        Some((head, tail)) if tail.len() >= 8 && tail.bytes().all(|b| b.is_ascii_hexdigit()) => {
            format!("{head}-#")
        }
        _ => key.to_string(),
    }
}

/// One execution's coverage features, in observation order: the single
/// definition of what a fuzz trial contributes, shared by the
/// single-operator and composed executors.
pub(crate) struct FeatureRecorder {
    pub(crate) features: Vec<CoverageFeature>,
    prev: u64,
}

impl FeatureRecorder {
    /// A recorder whose first edge starts at state hash `start`.
    pub(crate) fn new(start: u64) -> FeatureRecorder {
        FeatureRecorder {
            features: Vec::new(),
            prev: start,
        }
    }

    /// A trial the API server rejected: its outcome class only, since
    /// nothing was submitted and the state did not move.
    pub(crate) fn rejected(&mut self, outcome: &TrialOutcome) {
        self.features
            .push(CoverageFeature::Outcome(outcome.class_name()));
    }

    /// A trial that ran: its outcome class, its alarm kinds, the state it
    /// reached and the edge into that state.
    pub(crate) fn trial(&mut self, outcome: &TrialOutcome, alarms: &[Alarm], state: u64) {
        self.rejected(outcome);
        let kinds = alarms.iter().map(|a| CoverageFeature::Alarm(a.kind.name()));
        self.features.extend(kinds);
        self.state(state);
    }

    /// The final settle: a state and an edge only if settling moved the
    /// system.
    pub(crate) fn settle(&mut self, state: u64) {
        if state != self.prev {
            self.state(state);
        }
    }

    fn state(&mut self, h: u64) {
        self.features.push(CoverageFeature::State(h));
        self.features.push(CoverageFeature::Edge(self.prev, h));
        self.prev = h;
    }
}

/// Runs one op sequence (with optional fault burst and armed crash) from
/// the shared base checkpoint. A pure function of its arguments: every
/// trial, feature, and sim-second is reproducible bit-for-bit.
fn execute_sequence(
    ctx: &ExecState<'_>,
    ops: &[usize],
    faults: &FaultPlan,
    crash: Option<(usize, u32)>,
) -> SeqRun {
    let config = ctx.config;
    let mut instance = restore(config, &ctx.base);
    // Each trial is billed everything it caused since the previous trial,
    // including banked reference runs.
    let mut ledger = Ledger::new(&instance);
    let mut trials: Vec<Trial> = Vec::new();
    let cr_id = step::cr_id(&instance);
    let crs = [instance.cr_key()];
    let mut features = FeatureRecorder::new(observable_hash(&instance.cluster, &crs));
    let mut last_good = instance.cr_spec();

    // Fault burst before the ops, mirroring the campaign's error-state
    // start — but without resetting on a failed recovery: a damaged
    // cluster is territory, not contamination, when the goal is coverage.
    if !faults.is_empty() {
        let mut burst = step::fault_burst(&mut instance, faults, &mut ledger);
        let h = observable_hash(&instance.cluster, &crs);
        features.trial(&burst.outcome, &burst.alarms, h);
        burst.sim_seconds = ledger.take_span(&instance);
        trials.push(burst);
    }

    for (pos, &op_index) in ops.iter().enumerate() {
        if ctx.pool.is_empty() {
            break;
        }
        let planned = &ctx.pool[op_index % ctx.pool.len()];
        if let Some((crash_pos, k)) = crash {
            if crash_pos == pos {
                instance
                    .cluster
                    .api_mut()
                    .arm_operator_crash(k, CRASH_DOWN_FOR);
            }
        }
        let mut spec = instance.cr_spec();
        apply_op(&mut spec, planned);
        if normalized(&spec) == normalized(&instance.cr_spec()) {
            continue;
        }
        let op = PlannedOp {
            index: trials.len(),
            ..planned.clone()
        };
        let Judged {
            outcome,
            mut alarms,
            pre_state,
            post_state,
            ..
        } = match step::submit_and_judge(&mut instance, &spec, &mut ledger, None) {
            Ok(judged) => judged,
            Err(err) => {
                let outcome = TrialOutcome::RejectedByApi(err.to_string());
                features.rejected(&outcome);
                let sim = ledger.take_span(&instance);
                trials.push(step::trial(op, spec, outcome, Vec::new(), sim));
                continue;
            }
        };
        if outcome == TrialOutcome::Converged {
            let oracle_ctx = OracleContext {
                property: &planned.property,
                declared: &planned.value,
                declaration: &spec,
                pre_state: &pre_state,
                post_state: &post_state,
                cr_id: &cr_id,
            };
            // Unlike the planned campaign, a mutated sequence may
            // legitimately re-apply a value the system already holds, so
            // "no state transition" is expected noise here, not an alarm:
            // the oracles run only when a transition occurred (or the op
            // is a misoperation probe).
            if planned.expectation != Expectation::NormalTransition
                || transition_occurred(&oracle_ctx)
            {
                alarms.extend(step::oracle_pass(
                    config,
                    &oracle_ctx,
                    &last_good,
                    &instance,
                    &ctx.base,
                    &ctx.ref_cache,
                    &mut ledger,
                ));
            }
            last_good = spec.clone();
        }
        let mut trial = step::trial(op, spec, outcome, alarms, 0);
        let h = observable_hash(&instance.cluster, &crs);
        features.trial(&trial.outcome, &trial.alarms, h);
        trial.sim_seconds = ledger.take_span(&instance);
        trials.push(trial);
    }

    // Final settle: quiesce the cluster once more so the end state (and
    // the crash-consistency comparison against it) is taken at rest. A
    // wedged run fails this converge — that *is* the signal.
    let final_converged = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
    ledger.stats.convergence_waits += 1;
    features.settle(observable_hash(&instance.cluster, &crs));
    SeqRun {
        trials,
        features: features.features,
        final_state: masked_snapshot(&instance),
        healthy: step::settled(&instance),
        converged: final_converged,
        stats: ledger.finish(&instance),
    }
}

/// Executes one fuzz input: the sequence itself, plus — when a crash point
/// is armed and no faults interfere — the crash-consistency comparison
/// against the uninterrupted reference run of the same sequence.
fn execute_input(ctx: &ExecState<'_>, input: &FuzzInput, my: &mut WorkerStats) -> FuzzExec {
    // Every execution forks the deploy-converged base: one depot hit.
    my.restored(&*ctx.base, true);
    let mut run = execute_sequence(ctx, &input.ops, &input.faults, input.crash);
    *my += &run.stats;
    let mut trials = std::mem::take(&mut run.trials);
    let mut features = std::mem::take(&mut run.features);
    let mut sim_seconds = run.stats.sim_seconds;

    if let Some((_, k)) = input.crash {
        if input.faults.is_empty() {
            // Reference: the same ops, uninterrupted, from the same base
            // checkpoint. Content-addressed by the op sequence and shared
            // across workers; a hit replays the stored accounting so the
            // transcript is cache- and worker-invariant.
            let key = crdspec::json::to_string(&Value::array(
                input.ops.iter().map(|&i| Value::Integer(i as i64)),
            ));
            let (reference, hit) = match ctx.seq_refs.get(key.as_str()) {
                Some(r) => (r, true),
                None => {
                    // The reference forks the base too. Its own counters
                    // stay out of the tally: only its stored accounting
                    // below is charged, on a hit and a miss alike.
                    my.restored(&*ctx.base, true);
                    let r = execute_sequence(ctx, &input.ops, &FaultPlan::default(), None);
                    let entry = Arc::new(SeqReference {
                        state: r.final_state,
                        healthy: r.healthy,
                        converged: r.converged,
                        sim_seconds: r.stats.sim_seconds,
                        convergence_waits: r.stats.convergence_waits,
                    });
                    ctx.seq_refs.put(key, Arc::clone(&entry));
                    (entry, false)
                }
            };
            if hit {
                my.ref_cache_hits += 1;
            } else {
                my.ref_cache_misses += 1;
            }
            my.convergence_waits += reference.convergence_waits;
            my.sim_seconds += reference.sim_seconds;
            my.crash_points_swept += 1;
            sim_seconds += reference.sim_seconds;
            // Health/convergence are judged *relative to the reference*:
            // the oracle asks whether the crash changed the outcome, so a
            // sequence that wedges even without a crash (a misoperation
            // probe) must not alarm here.
            let healthy = run.healthy || !reference.healthy;
            let converged = run.converged || !reference.converged;
            let alarms = collapse(oracles::crash_consistency_check(
                k,
                &reference.state,
                &run.final_state,
                healthy,
                converged,
            ));
            // An armed boundary past the run's total writes never fires:
            // distinct, shallower territory than a consistent replay.
            let fired = instance_crash_fired(&run);
            let verdict = if !fired {
                "unfired"
            } else if alarms.is_empty() {
                "consistent"
            } else {
                "diverged"
            };
            features.push(CoverageFeature::CrashBoundary(k, verdict));
            for alarm in &alarms {
                features.push(CoverageFeature::Alarm(alarm.kind.name()));
            }
            let outcome = if alarms.is_empty() {
                TrialOutcome::Converged
            } else {
                TrialOutcome::ErrorState("crash-consistency divergence".to_string())
            };
            let op = step::synthetic_op(trials.len(), "crash-boundary", Value::Integer(k.into()));
            trials.push(Trial {
                crash_points_swept: 1,
                ..step::trial(op, Value::Null, outcome, alarms, reference.sim_seconds)
            });
        }
    }
    FuzzExec {
        trials,
        features,
        sim_seconds,
    }
}

/// Whether the armed crash actually fired during the run: the restart
/// leaves its mark as an operator-crash epoch bump, visible through the
/// crashed run's trial outcomes and restart counter. Detection here is
/// conservative — any crash-coloured outcome or a non-converged wedge
/// counts as fired.
fn instance_crash_fired(run: &SeqRun) -> bool {
    !run.converged
        || run.trials.iter().any(|t| {
            matches!(
                t.outcome,
                TrialOutcome::OperatorCrash(_) | TrialOutcome::Livelock | TrialOutcome::Stuck
            ) || t.op.scenario == "fault-burst" && t.outcome.is_error()
        })
        || !run.healthy
}

// ---------------------------------------------------------------------------
// The fuzz loop
// ---------------------------------------------------------------------------

/// Input-generation policy for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Guidance {
    /// Corpus-driven mutation with a fresh-input fraction.
    Coverage,
    /// Every input drawn fresh from the enumerated space.
    Random,
}

/// A generated candidate awaiting execution.
pub(crate) struct Candidate {
    pub(crate) input: FuzzInput,
    pub(crate) mutation: &'static str,
    pub(crate) parent: Option<usize>,
}

/// The input generator behind [`FuzzSource`], for single-operator and
/// composed runs alike: one seeded random stream on the coordinating thread, a
/// seen-set so the guided loop never wastes budget re-executing an input
/// (bounded redraws keep generation total), parent selection biased toward
/// the newest half of the corpus (fresh territory compounds), and a donor
/// drawn uniformly for splices.
struct GuidedGen {
    rng: SplitMix64,
    seen: BTreeSet<String>,
    pool_len: usize,
}

impl GuidedGen {
    fn new(seed: u64, pool_len: usize) -> GuidedGen {
        GuidedGen {
            rng: SplitMix64::new(seed),
            seen: BTreeSet::new(),
            pool_len,
        }
    }

    /// Draws one batch of candidates. `sanitize` normalizes a raw input
    /// before the dedup key is taken (the composed loop strips
    /// single-instance machinery here); the random baseline takes
    /// whatever it draws.
    fn draw_batch(
        &mut self,
        cfg: &FuzzConfig,
        guidance: Guidance,
        corpus: &Corpus,
        batch_n: usize,
        sanitize: fn(&mut FuzzInput),
    ) -> Vec<Candidate> {
        let mut batch: Vec<Candidate> = Vec::new();
        let mut redraws = 0usize;
        while batch.len() < batch_n {
            let (mut input, mutation, parent) = match guidance {
                Guidance::Random => (
                    random_input(&mut self.rng, self.pool_len, cfg),
                    "random",
                    None,
                ),
                Guidance::Coverage => {
                    if corpus.entries.is_empty() || self.rng.below(16) == 0 {
                        (
                            random_input(&mut self.rng, self.pool_len, cfg),
                            "fresh",
                            None,
                        )
                    } else {
                        let n = corpus.entries.len();
                        let half = n.div_ceil(2);
                        let pi = n - 1 - self.rng.below(half as u64) as usize;
                        let di = self.rng.below(n as u64) as usize;
                        let donor = corpus.entries[di].input.clone();
                        let parent_entry = &corpus.entries[pi];
                        let (child, name) = mutate_input(
                            &parent_entry.input,
                            &donor,
                            &mut self.rng,
                            self.pool_len,
                            cfg,
                        );
                        (child, name, Some(parent_entry.id))
                    }
                }
            };
            sanitize(&mut input);
            let key = input.key();
            if guidance == Guidance::Coverage && self.seen.contains(&key) && redraws < 6 {
                redraws += 1;
                continue;
            }
            redraws = 0;
            self.seen.insert(key);
            batch.push(Candidate {
                input,
                mutation,
                parent,
            });
        }
        batch
    }
}

/// Runs a coverage-guided fuzzing campaign.
///
/// Errors at the configuration boundary: an operator name outside the
/// registry (the message lists the valid names) or an empty operation
/// pool.
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzResult, String> {
    run_fuzz_hooked(config, Guidance::Coverage, None, FuzzHooks::default())
}

/// Runs the equal-budget pure-random baseline: same executor, same
/// coverage accounting, but every input is drawn fresh from the enumerated
/// space — no corpus, no mutation, no crash arming. Errors like
/// [`run_fuzz`].
pub fn run_random(config: &FuzzConfig) -> Result<FuzzResult, String> {
    run_fuzz_hooked(config, Guidance::Random, None, FuzzHooks::default())
}

/// Resumes a fuzzing campaign from a saved corpus: every saved entry is
/// replayed first (rebuilding the coverage map and seeding the population;
/// replays are not charged to `config.execs`), then the guided loop
/// continues for the configured budget. Errors like [`run_fuzz`], and when
/// the corpus was grown against another operator.
pub fn run_fuzz_resumed(config: &FuzzConfig, saved: &Corpus) -> Result<FuzzResult, String> {
    ensure_same_operator(config, saved)?;
    run_fuzz_hooked(
        config,
        Guidance::Coverage,
        Some(saved),
        FuzzHooks::default(),
    )
}

/// Replays exactly the saved corpus entries — no mutation, no budget —
/// and returns the resulting records, coverage, and rebuilt corpus.
/// Deterministic for any worker count; the round-trip check in CI compares
/// transcripts of replays at different worker counts. Errors like
/// [`run_fuzz_resumed`].
pub fn replay_corpus(config: &FuzzConfig, saved: &Corpus) -> Result<FuzzResult, String> {
    ensure_same_operator(config, saved)?;
    // The corpus is the loop's replay batch and there is no exec budget, so
    // the replay is the whole run; its executions are the replayed entries.
    let replay_only = FuzzConfig {
        execs: 0,
        ..config.clone()
    };
    let hooks = FuzzHooks::default();
    let mut result = run_fuzz_hooked(&replay_only, Guidance::Coverage, Some(saved), hooks)?;
    result.execs = result.records.len();
    Ok(result)
}

/// Refuses a corpus grown against another operator: its op indices point
/// into that operator's pool, so replaying them here would silently run
/// unrelated operations.
fn ensure_same_operator(config: &FuzzConfig, saved: &Corpus) -> Result<(), String> {
    let operator = config.campaign.operator();
    if saved.operator != operator {
        return Err(format!(
            "corpus was grown against {:?}, not the configured operator {operator:?}",
            saved.operator
        ));
    }
    Ok(())
}

/// Rejects an empty planned-op pool at the run boundary. Op indices are
/// taken modulo the pool length, so an empty pool would otherwise be
/// masked by the defensive `max(1)` clamps in input generation and every
/// execution would silently run zero operations.
fn ensure_pool(pool: &[PlannedOp]) -> Result<(), String> {
    if pool.is_empty() {
        return Err(
            "fuzz operation pool is empty: planning produced no operations to index into"
                .to_string(),
        );
    }
    Ok(())
}

/// The immutable half of a fuzz run: the campaign configuration, the
/// planned pool, the deployed base checkpoint, and the shared caches.
/// Splitting this from [`Progress`] lets worker threads borrow the
/// execution context while the coordinating thread mutates
/// coverage/corpus/records between batches.
pub(crate) struct ExecState<'a> {
    config: &'a CampaignConfig,
    pool: Vec<PlannedOp>,
    base: Arc<InstanceCheckpoint>,
    seq_refs: SeqRefCache,
    ref_cache: FreshRefCache,
    base_sim_seconds: u64,
}

impl ExecState<'_> {
    fn new(cfg: &FuzzConfig) -> Result<ExecState<'_>, String> {
        let operator = resolve_operator(cfg.campaign.operator())?;
        let pool = plan_operator(&*operator, cfg.campaign.mode);
        ensure_pool(&pool)?;
        let (base, base_sim_seconds) = deploy_base(&cfg.campaign)?;
        Ok(ExecState {
            config: &cfg.campaign,
            pool,
            base: Arc::new(base),
            seq_refs: SeqRefCache::new(),
            ref_cache: FreshRefCache::new(),
            base_sim_seconds,
        })
    }
}

/// The mutable half of a fuzz run: everything that grows as batches
/// complete, merged in input order at each batch barrier — the
/// deterministic fold.
pub(crate) struct Progress<T = Trial> {
    pub(crate) coverage: CoverageMap,
    pub(crate) corpus: Corpus,
    pub(crate) records: Vec<ExecRecord<T>>,
    pub(crate) worker_stats: Vec<WorkerStats>,
}

impl<T: TrialRecord> Progress<T> {
    fn new(cfg: &FuzzConfig) -> Progress<T> {
        Progress {
            coverage: CoverageMap::new(),
            corpus: Corpus {
                operator: T::target(&cfg.campaign),
                entries: Vec::new(),
            },
            records: Vec::new(),
            worker_stats: (0..cfg.workers.max(1)).map(WorkerStats::new).collect(),
        }
    }

    /// Merges one executed batch, in input order.
    fn absorb(&mut self, batch: Vec<Candidate>, execs: Vec<FuzzExec<T>>, grow_corpus: bool) {
        for (cand, exec) in batch.into_iter().zip(execs) {
            let index = self.records.len();
            let novel = self.coverage.observe_all(&exec.features);
            if grow_corpus && !novel.is_empty() {
                self.corpus.entries.push(CorpusEntry {
                    id: self.corpus.entries.len(),
                    parent: cand.parent,
                    mutation: cand.mutation.to_string(),
                    exec: index,
                    input: cand.input.clone(),
                    new_features: novel.iter().map(CoverageFeature::render).collect(),
                });
            }
            self.records.push(ExecRecord {
                index,
                input: cand.input,
                mutation: cand.mutation.to_string(),
                parent: cand.parent,
                trials: exec.trials,
                novel,
                sim_seconds: exec.sim_seconds,
            });
        }
    }

    fn finish(
        self,
        cfg: &FuzzConfig,
        base_sim_seconds: u64,
        (execs, rounds): (usize, usize),
        start: Instant,
    ) -> FuzzResult<T> {
        let summary = T::summarize(
            &cfg.campaign,
            self.records.iter().flat_map(|r| r.trials.iter()),
        );
        let total_sim_seconds =
            base_sim_seconds + self.worker_stats.iter().map(|s| s.sim_seconds).sum::<u64>();
        FuzzResult {
            operator: T::target(&cfg.campaign),
            mode: cfg.campaign.mode,
            seed: cfg.seed,
            execs,
            rounds,
            coverage: self.coverage,
            corpus: self.corpus,
            records: self.records,
            summary,
            total_sim_seconds,
            base_sim_seconds,
            worker_stats: self.worker_stats,
            wall: start.elapsed(),
        }
    }
}

/// Fuzz-run state captured from a persistence journal, used to fast-forward
/// a resumed run past everything it already executed. The generator
/// continues from the recorded random-stream state, so the resumed run
/// draws exactly the inputs an uninterrupted run would have drawn.
pub(crate) struct RestoredFuzz {
    pub(crate) coverage: CoverageMap,
    pub(crate) corpus: Corpus,
    pub(crate) records: Vec<ExecRecord>,
    pub(crate) seen: BTreeSet<String>,
    pub(crate) rng_state: u64,
    pub(crate) executed: usize,
    pub(crate) rounds: usize,
}

/// What one completed batch appended, handed to the journal hook right
/// after the batch barrier: enough to replay the round's effect on
/// coverage/corpus/records and to continue generation from `rng_state`.
pub(crate) struct RoundDelta<'a, T = Trial> {
    pub(crate) round: usize,
    pub(crate) executed: usize,
    pub(crate) rng_state: u64,
    pub(crate) replay: bool,
    pub(crate) records: &'a [ExecRecord<T>],
    pub(crate) corpus_added: &'a [CorpusEntry],
}

/// The journal hook observing each batch barrier.
pub(crate) type RoundHook<'h, T = Trial> = &'h mut dyn FnMut(&RoundDelta<T>);

/// Persistence hooks for [`run_fuzz_hooked`]: `restore` fast-forwards the
/// run, `on_round` observes each batch barrier (the journal append point).
#[derive(Default)]
pub(crate) struct FuzzHooks<'h> {
    pub(crate) restore: Option<RestoredFuzz>,
    pub(crate) on_round: Option<RoundHook<'h>>,
}

/// The fuzz loop, for a single operator and for a composition alike: the
/// first batch replays a saved corpus (uncharged to the exec budget), then
/// batches are drawn until the budget is spent. Absorption happens at each
/// batch barrier in input order, which is what keeps any worker count
/// byte-identical.
pub(crate) struct FuzzSource<'a, 'h, T = Trial> {
    cfg: &'a FuzzConfig,
    guidance: Guidance,
    gen: GuidedGen,
    /// Normalizes every drawn input before its dedup key is taken; the
    /// composed fuzzer strips single-instance machinery here.
    sanitize: fn(&mut FuzzInput),
    progress: Progress<T>,
    executed: usize,
    rounds: usize,
    replay: Option<Vec<Candidate>>,
    on_round: Option<RoundHook<'h, T>>,
}

impl<'a, 'h, T: TrialRecord> FuzzSource<'a, 'h, T> {
    /// A fresh loop over a pool of `pool_len` planned operations.
    pub(crate) fn new(
        cfg: &'a FuzzConfig,
        guidance: Guidance,
        pool_len: usize,
        sanitize: fn(&mut FuzzInput),
    ) -> FuzzSource<'a, 'h, T> {
        FuzzSource {
            cfg,
            guidance,
            gen: GuidedGen::new(cfg.seed, pool_len),
            sanitize,
            progress: Progress::new(cfg),
            executed: 0,
            rounds: 0,
            replay: None,
            on_round: None,
        }
    }

    /// Runs the loop to exhaustion and assembles the result: the pending
    /// corpus replay first (uncharged to the exec budget), then guided (or
    /// random) batches until the budget is spent. Each batch executes
    /// across the configured workers through the shared scheduler with
    /// `exec` and is folded back in input order.
    pub(crate) fn run<E>(mut self, exec: E, base_sim_seconds: u64, start: Instant) -> FuzzResult<T>
    where
        E: Fn(&Candidate, &mut WorkerStats) -> FuzzExec<T> + Sync,
    {
        let scheduler = Scheduler::new(self.cfg.workers.max(1));
        loop {
            let replay = self.replay.take().filter(|r| !r.is_empty());
            let is_replay = replay.is_some();
            let batch = match replay {
                Some(replays) => replays,
                None if self.executed < self.cfg.execs => {
                    let batch_n = self.cfg.batch.max(1).min(self.cfg.execs - self.executed);
                    let corpus = &self.progress.corpus;
                    let gen = &mut self.gen;
                    gen.draw_batch(self.cfg, self.guidance, corpus, batch_n, self.sanitize)
                }
                None => break,
            };
            let run = scheduler.run(&batch, &exec, None);
            self.absorb(batch, run.results, run.worker_stats, is_replay);
        }
        let counts = (self.executed, self.rounds);
        self.progress
            .finish(self.cfg, base_sim_seconds, counts, start)
    }

    /// Folds one executed batch back in at the batch barrier, in input
    /// order, and hands the round to the journal hook.
    fn absorb(
        &mut self,
        batch: Vec<Candidate>,
        outputs: Vec<FuzzExec<T>>,
        stats: Vec<WorkerStats>,
        replay: bool,
    ) {
        // Replays always seed the corpus; guided batches grow it only under
        // coverage guidance (the random baseline keeps no population).
        let grow = replay || self.guidance == Guidance::Coverage;
        let record_start = self.progress.records.len();
        let corpus_start = self.progress.corpus.entries.len();
        let n = batch.len();
        // The scheduler clamps its workers to the configured count, so
        // every batch row has a row of its own here.
        for s in &stats {
            self.progress.worker_stats[s.worker] += s;
        }
        self.progress.absorb(batch, outputs, grow);
        if !replay {
            self.executed += n;
        }
        self.rounds += 1;
        if let Some(on_round) = self.on_round.as_mut() {
            (**on_round)(&RoundDelta {
                round: self.rounds,
                executed: self.executed,
                rng_state: self.gen.rng.state(),
                replay,
                records: &self.progress.records[record_start..],
                corpus_added: &self.progress.corpus.entries[corpus_start..],
            });
        }
    }
}

/// The one single-operator fuzz core every public entry point delegates
/// to: plan + deploy, optionally fast-forward from a journal or seed a
/// corpus replay, then run the [`FuzzSource`].
pub(crate) fn run_fuzz_hooked(
    cfg: &FuzzConfig,
    guidance: Guidance,
    resume: Option<&Corpus>,
    hooks: FuzzHooks<'_>,
) -> Result<FuzzResult, String> {
    let start = Instant::now();
    let state = ExecState::new(cfg)?;
    let mut source = FuzzSource::new(cfg, guidance, state.pool.len().max(1), |_| {});
    source.on_round = hooks.on_round;

    if let Some(restored) = hooks.restore {
        // Fast-forward: the journal already covers every executed round,
        // including any corpus replay, so nothing re-executes; the
        // generator continues mid-stream.
        source.progress.coverage = restored.coverage;
        source.progress.corpus = restored.corpus;
        source.progress.records = restored.records;
        source.gen.seen = restored.seen;
        source.gen.rng = SplitMix64::from_state(restored.rng_state);
        source.executed = restored.executed;
        source.rounds = restored.rounds;
    } else if let Some(saved) = resume {
        // Resume-from-corpus: replay every saved entry first (rebuilding
        // the coverage map and seeding the population; replays are not
        // charged to `cfg.execs`).
        let replays = replay_candidates(saved);
        let keys = replays.iter().map(|c| c.input.key());
        source.gen.seen.extend(keys);
        source.replay = Some(replays);
    }

    Ok(source.run(
        |cand: &Candidate, my| execute_input(&state, &cand.input, my),
        state.base_sim_seconds,
        start,
    ))
}

/// One replay candidate per saved corpus entry, in corpus order.
fn replay_candidates(saved: &Corpus) -> Vec<Candidate> {
    saved
        .entries
        .iter()
        .map(|e| Candidate {
            input: e.input.clone(),
            mutation: "replay",
            parent: e.parent,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::operator_by_name;

    #[test]
    fn unknown_operator_is_a_config_error_not_a_panic() {
        let mut cfg = FuzzConfig::new("ZooKeeperOp");
        cfg.execs = 1;
        cfg.campaign.operators = vec!["NoSuchOp".to_string()];
        let err = run_fuzz(&cfg).unwrap_err();
        assert!(
            err.contains("NoSuchOp"),
            "error names the bad operator: {err}"
        );
        assert!(
            err.contains("ZooKeeperOp"),
            "error lists valid registry names: {err}"
        );
    }

    #[test]
    fn empty_pool_is_rejected_up_front() {
        let err = ensure_pool(&[]).unwrap_err();
        assert!(
            err.contains("empty"),
            "error explains the empty pool: {err}"
        );
        // A real operator always plans a non-empty pool; the guard passes.
        let op = operator_by_name("ZooKeeperOp");
        let pool = plan_operator(&*op, Mode::Blackbox);
        assert!(ensure_pool(&pool).is_ok());
    }

    /// Reference for [`entry_digest`]: the same hash taken over the
    /// `status` section of the masked whole-object rendering.
    fn whole_object_digest(key: &ObjKey, obj: &Arc<simkube::StoredObject>) -> u64 {
        let fnv = |mut h: u64, bytes: &[u8]| -> u64 {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        let id = format!("{}/{}/{}", key.kind.name(), key.namespace, key.name);
        let mut h = fnv(0xcbf2_9ce4_8422_2325u64, normalize_key(&id).as_bytes());
        if let Some(status) = oracles::mask_value(&obj.to_value()).get("status") {
            h = fnv(h, crdspec::json::to_string(status).as_bytes());
        }
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// Rendering only the status section is the same function as masking
    /// the whole object and taking its `status`: checked on every stored
    /// object of every operator, with all bugs injected, after deploy and
    /// after each of its first few planned ops.
    #[test]
    fn status_only_digest_matches_the_whole_object_digest() {
        let mut checked = 0;
        for operator in operators::operator_names() {
            let mut instance = operators::Instance::deploy(
                operator_by_name(operator),
                operators::bugs::BugToggles::all_injected(),
                simkube::PlatformBugs::none(),
            )
            .expect("deploy");
            let plan = plan_operator(&*operator_by_name(operator), Mode::Whitebox);
            for planned in std::iter::once(None).chain(plan.iter().take(5).map(Some)) {
                if let Some(planned) = planned {
                    let mut spec = instance.cr_spec();
                    apply_op(&mut spec, planned);
                    if instance.submit(spec).is_ok() {
                        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
                    }
                }
                for (key, obj) in instance.cluster.api().store().iter_shared() {
                    assert_eq!(
                        entry_digest(key, obj),
                        whole_object_digest(key, obj),
                        "{operator}: {key:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "only {checked} objects checked");
    }

    #[test]
    fn same_fingerprint_never_counts_twice() {
        let mut map = CoverageMap::new();
        assert!(map.observe(CoverageFeature::State(42)));
        assert!(!map.observe(CoverageFeature::State(42)));
        assert_eq!(map.len(), 1);
        let novel = map.observe_all(&[
            CoverageFeature::State(42),
            CoverageFeature::State(7),
            CoverageFeature::State(7),
        ]);
        assert_eq!(novel, vec![CoverageFeature::State(7)]);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn transition_edges_are_order_sensitive() {
        let mut map = CoverageMap::new();
        assert!(map.observe(CoverageFeature::Edge(1, 2)));
        assert!(
            map.observe(CoverageFeature::Edge(2, 1)),
            "reverse edge is new territory"
        );
        assert!(!map.observe(CoverageFeature::Edge(1, 2)));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = CoverageMap::new();
        a.observe(CoverageFeature::State(1));
        a.observe(CoverageFeature::Outcome("converged"));
        let mut b = CoverageMap::new();
        b.observe(CoverageFeature::State(2));
        b.observe(CoverageFeature::Outcome("converged"));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3);
        let before = ab.clone();
        ab.merge(&b);
        assert_eq!(ab, before, "merging a subset changes nothing");
    }

    #[test]
    fn coverage_counts_bucket_by_class() {
        let mut map = CoverageMap::new();
        map.observe(CoverageFeature::State(1));
        map.observe(CoverageFeature::State(2));
        map.observe(CoverageFeature::Edge(1, 2));
        map.observe(CoverageFeature::CrashBoundary(3, "diverged"));
        let counts = map.counts();
        assert_eq!(counts.get("state"), Some(&2));
        assert_eq!(counts.get("edge"), Some(&1));
        assert_eq!(counts.get("crash-boundary"), Some(&1));
        assert_eq!(counts.get("outcome"), None);
    }

    #[test]
    fn input_round_trips_through_json() {
        let mut faults = FaultPlan::new();
        faults.push(
            3,
            simkube::Fault::NodeCrash {
                node: "node-1".to_string(),
                down_for: 9,
            },
        );
        let input = FuzzInput {
            seed: u64::MAX - 5,
            ops: vec![0, 17, 3],
            faults,
            crash: Some((1, 2)),
        };
        let parsed = FuzzInput::from_value(&input.to_value()).expect("round trip");
        assert_eq!(parsed, input);
        // And through the corpus container.
        let corpus = Corpus {
            operator: "ZooKeeperOp".to_string(),
            entries: vec![CorpusEntry {
                id: 0,
                parent: None,
                mutation: "fresh".to_string(),
                exec: 4,
                input,
                new_features: vec!["state:0000000000000001".to_string()],
            }],
        };
        let parsed = Corpus::from_json_str(&corpus.to_json_string()).expect("corpus round trip");
        assert_eq!(parsed, corpus);
    }

    #[test]
    fn foreign_corpus_is_refused_naming_both_operators() {
        let saved = Corpus {
            operator: "ZooKeeperOp".to_string(),
            entries: Vec::new(),
        };
        let cfg = FuzzConfig::new("RabbitMQOp");
        for err in [
            replay_corpus(&cfg, &saved).unwrap_err(),
            run_fuzz_resumed(&cfg, &saved).unwrap_err(),
        ] {
            assert!(err.contains("ZooKeeperOp"), "names its operator: {err}");
            assert!(err.contains("RabbitMQOp"), "names the config's: {err}");
        }
    }

    fn corpus_json_with(version: i64, new_features: Option<Value>) -> String {
        let mut entry = persist::corpus_entry_to_value(&CorpusEntry {
            id: 0,
            parent: None,
            mutation: "fresh".to_string(),
            exec: 0,
            input: FuzzInput {
                seed: 1,
                ops: vec![0],
                faults: FaultPlan::new(),
                crash: None,
            },
            new_features: Vec::new(),
        });
        match new_features {
            Some(features) => entry.set_path(&"new_features".parse().unwrap(), features),
            None => entry.remove_path(&"new_features".parse().unwrap()),
        };
        let root = Value::object([
            ("version", Value::Integer(version)),
            ("operator", Value::String("ZooKeeperOp".to_string())),
            ("entries", Value::array([entry])),
        ]);
        crdspec::json::to_string_pretty(&root)
    }

    #[test]
    fn corpus_reader_refuses_an_unsupported_version() {
        let features = Some(Value::array([Value::String("state:01".to_string())]));
        assert!(Corpus::from_json_str(&corpus_json_with(1, features.clone())).is_ok());
        let err = Corpus::from_json_str(&corpus_json_with(2, features)).unwrap_err();
        assert!(err.contains("version 2"), "names the bad version: {err}");
    }

    #[test]
    fn corpus_reader_refuses_missing_or_non_string_features() {
        let err = Corpus::from_json_str(&corpus_json_with(1, None)).unwrap_err();
        assert!(err.contains("new_features"), "names the field: {err}");
        let mixed = Value::array([Value::String("state:01".to_string()), Value::Integer(7)]);
        let err = Corpus::from_json_str(&corpus_json_with(1, Some(mixed))).unwrap_err();
        assert!(err.contains("entry 0"), "names the bad entry: {err}");
    }

    /// Shrink-safety: every mutated input must stay consumable — op
    /// indices inside the pool, sequences non-empty and bounded, crash
    /// points inside the sequence — so `minimize` can replay and shrink
    /// any corpus entry's declaration sequence.
    #[test]
    fn mutated_inputs_stay_schema_valid() {
        let cfg = FuzzConfig::new("ZooKeeperOp");
        let operator = operator_by_name("ZooKeeperOp");
        let pool = plan_operator(&*operator, Mode::Whitebox);
        let initial = operator.initial_cr();
        let mut rng = SplitMix64::new(7);
        let mut current = random_input(&mut rng, pool.len(), &cfg);
        for step in 0..300 {
            let donor = random_input(&mut rng, pool.len(), &cfg);
            let (child, name) = mutate_input(&current, &donor, &mut rng, pool.len(), &cfg);
            assert!(
                !child.ops.is_empty(),
                "step {step} ({name}): empty sequence"
            );
            assert!(
                child.ops.len() <= cfg.max_seq * 4,
                "step {step} ({name}): sequence over bound"
            );
            assert!(
                child.ops.iter().all(|&i| i < pool.len()),
                "step {step} ({name}): op index out of pool"
            );
            if let Some((pos, k)) = child.crash {
                assert!(
                    pos < child.ops.len(),
                    "step {step} ({name}): crash past end"
                );
                assert!(
                    (1..=cfg.crash_writes_max).contains(&k),
                    "step {step} ({name}): crash boundary out of range"
                );
            }
            let decls = child.declarations(&pool, &initial);
            assert_eq!(decls.len(), child.ops.len());
            assert!(
                decls.iter().all(Value::is_object),
                "step {step} ({name}): non-object declaration"
            );
            current = child;
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let cfg = FuzzConfig::new("ZooKeeperOp");
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let parent = random_input(&mut a, 50, &cfg);
        let parent2 = random_input(&mut b, 50, &cfg);
        assert_eq!(parent, parent2);
        let donor = random_input(&mut a, 50, &cfg);
        let donor2 = random_input(&mut b, 50, &cfg);
        let (x, nx) = mutate_input(&parent, &donor, &mut a, 50, &cfg);
        let (y, ny) = mutate_input(&parent2, &donor2, &mut b, 50, &cfg);
        assert_eq!(x, y);
        assert_eq!(nx, ny);
    }
}
