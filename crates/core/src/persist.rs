//! `acto::persist` — a versioned, crash-hardened on-disk run store so
//! interrupted campaigns and fuzz runs resume and complete with a
//! transcript byte-identical to an uninterrupted run at any worker count.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/manifest.json         # version, run kind, operator, mode, parameters
//! <dir>/journal.jsonl         # append-only; one CRC-framed JSON object per line
//! <dir>/corpus.json           # (fuzz) final corpus, written on completion
//! <dir>/minimized.json        # (fuzz, minimize flag) shrunk alarm reproductions
//! <dir>/recovery_report.json  # written when a resume found damaged records
//! ```
//!
//! The journal is the unit of durability. A work-stealing campaign appends
//! one `{segment, trials}` line as each plan segment completes (in claim
//! order — resume sorts by segment index); a fuzz run appends one
//! `{round, executed, rng_state, replay, records, corpus_added}` line at
//! each batch barrier. Because the fuzz barrier is the *only* place the
//! coordinating thread mutates coverage/corpus/records, replaying the
//! journal rebuilds exactly the state an uninterrupted run would hold at
//! that barrier, and the saved random-stream state lets generation
//! continue mid-stream.
//!
//! Durability discipline (the same one Acto demands of operators):
//!
//! - Every journal record is framed `LLLLLLLL CCCCCCCC {json}\n` — payload
//!   byte length and CRC-32 in fixed-width hex — and appended with a
//!   *single* buffered write followed by `sync_data`, so a kill can tear
//!   at most one record and any torn or bit-flipped record is detected by
//!   frame or checksum mismatch, never half-parsed.
//! - `manifest.json`, `corpus.json`, `minimized.json`, journal rewrites,
//!   and `recovery_report.json` are written atomically: tmp file, fsync,
//!   rename into place, directory fsync. Store creation writes the journal
//!   first and the manifest last, so the manifest's existence is the
//!   commit point — a crash mid-create leaves no manifest and the store
//!   can simply be created again.
//! - Recovery classifies every damaged record. A bad *final* line is a
//!   torn tail — the expected remnant of a kill mid-append — and is
//!   silently discarded, re-executing at most one segment or round,
//!   exactly as before. A bad *mid-file* line is corruption: it is
//!   quarantined into `recovery_report.json` and the resume refuses
//!   ([`RecoveryPolicy::Refuse`], the default) or salvages
//!   ([`RecoveryPolicy::Salvage`]) — dropping only the damaged segment
//!   record for campaigns (segments are independent), truncating at the
//!   first damaged round for fuzz runs (rounds are cumulative). Either
//!   way the salvaged resume re-executes the lost work and its transcript
//!   stays byte-identical; it never panics or silently diverges.
//!
//! All filesystem mutations go through [`StoreIo`], which doubles as a
//! deterministic fault injector ([`IoFaultPlan`]): crash after the k-th
//! mutating IO (freezing the store exactly as a kill would), transient
//! `EIO`/`ENOSPC`-style failures absorbed by bounded exponential backoff,
//! and seeded bit flips. The `persist_sweep` harness
//! ([`crate::durability`]) uses it to crash the store at *every* IO
//! boundary and prove resume stays byte-identical — the paper's
//! crash-point sweep turned on our own persistence layer. Reads and file
//! opens are not fault points: a kill during a read mutates nothing, so
//! crash boundaries are exactly the mutating operations.
//!
//! All serialization rides on the crdspec-owned JSON codec
//! ([`crdspec::json`]); nothing here introduces a second serialization
//! dialect.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crdspec::Value;
use simkube::SplitMix64;

use crate::campaign::{plan_operator, resolve_operator, CampaignConfig};
use crate::fuzz::{
    run_fuzz_hooked, Corpus, CorpusEntry, CoverageFeature, CoverageMap, ExecRecord, FuzzConfig,
    FuzzHooks, FuzzResult, Guidance, RestoredFuzz,
};
use crate::minimize::minimize;
use crate::model::{Expectation, Mode, PlannedOp, Trial, TrialOutcome};
use crate::oracles::AlarmKind;
use crate::parallel::{run_work_stealing_core, ParallelResult, SnapshotDepot};
use crate::report::Alarm;

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

/// What went wrong in the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistErrorKind {
    /// A real filesystem operation failed (after retries, if retryable).
    Io,
    /// The seeded fault injector crashed the store at an IO boundary; the
    /// on-disk state is frozen exactly as a kill would leave it.
    InjectedCrash,
    /// A stored artifact failed to parse or has an unsupported layout.
    Format,
    /// A mid-file journal record is damaged (bad frame, CRC mismatch, or
    /// unparseable JSON) and [`RecoveryPolicy::Refuse`] is in force.
    Corrupt,
    /// The resume configuration does not match the store manifest.
    Mismatch,
    /// The store directory already holds a run.
    Conflict,
    /// The underlying run itself failed (propagated from the fuzz loop).
    Run,
}

/// A persistence failure: kind, offending path (when one exists), and a
/// human-readable detail. `Display` renders the same message the old
/// `Result<_, String>` API produced, and `From<PersistError> for String`
/// keeps legacy call sites (`tests/api_guard.rs` pins both).
#[derive(Debug, Clone)]
pub struct PersistError {
    /// Failure class.
    pub kind: PersistErrorKind,
    /// Path the failure is about, when one exists.
    pub path: Option<PathBuf>,
    /// Human-readable description.
    pub detail: String,
}

impl PersistError {
    fn new(kind: PersistErrorKind, detail: impl Into<String>) -> PersistError {
        PersistError {
            kind,
            path: None,
            detail: detail.into(),
        }
    }

    fn with_path(kind: PersistErrorKind, path: &Path, detail: impl Into<String>) -> PersistError {
        PersistError {
            kind,
            path: Some(path.to_path_buf()),
            detail: detail.into(),
        }
    }

    fn format(detail: impl Into<String>) -> PersistError {
        PersistError::new(PersistErrorKind::Format, detail)
    }
}

/// Resolves a run's operator before its store is created or reopened, so
/// an unknown name fails as a [`PersistErrorKind::Run`] and leaves no run
/// directory behind.
fn registered(name: &str) -> Result<Box<dyn operators::Operator>, PersistError> {
    resolve_operator(name).map_err(|e| PersistError::new(PersistErrorKind::Run, e))
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.path {
            Some(p) => write!(f, "{} [{}]", self.detail, p.display()),
            None => f.write_str(&self.detail),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<PersistError> for String {
    fn from(e: PersistError) -> String {
        e.to_string()
    }
}

// ---------------------------------------------------------------------------
// Record framing (length + CRC-32)
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) — bitwise, no tables,
/// no dependencies. Journal records are short, so throughput is irrelevant
/// next to the simulated cluster work they describe.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// `"LLLLLLLL CCCCCCCC "` — 8 hex digits of payload length, a space,
/// 8 hex digits of payload CRC-32, a space.
const FRAME_HEADER: usize = 18;

/// Frames one JSON record for the journal, trailing newline included, so
/// the whole record is a single buffer for a single write.
fn frame_record(json: &str) -> String {
    format!("{:08x} {:08x} {json}\n", json.len(), crc32(json.as_bytes()))
}

fn parse_hex(bytes: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for &b in bytes {
        v = v * 16 + u64::from((b as char).to_digit(16)?);
    }
    Some(v)
}

/// Validates one framed journal line: frame shape, declared length, CRC,
/// then JSON. Returns the classified damage on any failure.
fn parse_frame(line: &str) -> Result<Value, (RecoveryClass, String)> {
    let bytes = line.as_bytes();
    if bytes.len() < FRAME_HEADER || bytes[8] != b' ' || bytes[FRAME_HEADER - 1] != b' ' {
        return Err((
            RecoveryClass::BadFrame,
            "missing length/CRC frame header".to_string(),
        ));
    }
    let (Some(len), Some(crc)) = (parse_hex(&bytes[..8]), parse_hex(&bytes[9..17])) else {
        return Err((
            RecoveryClass::BadFrame,
            "frame header is not hexadecimal".to_string(),
        ));
    };
    // The header is pure ASCII, so byte 18 is a char boundary.
    let payload = &line[FRAME_HEADER..];
    if payload.len() as u64 != len {
        return Err((
            RecoveryClass::BadFrame,
            format!("framed length {len} != payload length {}", payload.len()),
        ));
    }
    let actual = crc32(payload.as_bytes());
    if u64::from(actual) != crc {
        return Err((
            RecoveryClass::CrcMismatch,
            format!("stored CRC {crc:08x} != computed {actual:08x}"),
        ));
    }
    crdspec::json::from_str(payload).map_err(|e| {
        (
            RecoveryClass::BadJson,
            format!("checksummed payload is not JSON: {e:?}"),
        )
    })
}

// ---------------------------------------------------------------------------
// StoreIo: all filesystem mutations, with deterministic fault injection
// ---------------------------------------------------------------------------

/// A seeded, plan-driven IO fault schedule. Operation indices are 1-based
/// and count only *mutating* operations (appends, writes, fsyncs, renames)
/// — reads cannot lose data to a kill, so they are not boundaries.
#[derive(Debug, Clone, Default)]
pub struct IoFaultPlan {
    /// Seed for torn-write lengths and bit-flip positions.
    pub seed: u64,
    /// Crash at this mutating operation: the operation takes partial
    /// effect (a torn prefix for writes, nothing for renames/syncs), the
    /// store is frozen, and every later operation fails with
    /// [`PersistErrorKind::InjectedCrash`] — exactly the disk state a
    /// process kill at that boundary leaves behind.
    pub crash_at: Option<u64>,
    /// Operations whose first attempt fails with a transient `EIO`; the
    /// bounded-backoff retry loop must absorb it.
    pub transient_at: BTreeSet<u64>,
    /// Flip one seeded bit of this operation's payload before writing —
    /// silent media corruption the CRC frame must catch.
    pub flip_at: Option<u64>,
}

/// Counters a [`StoreIo`] accumulates; the durability sweep reads them to
/// size its crash-point enumeration and assert retries happened.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoStats {
    /// Mutating operations issued (the crash-boundary count `N`).
    pub ops: u64,
    /// Journal record appends.
    pub appends: u64,
    /// Completed atomic write sequences (tmp + fsync + rename + dir sync).
    pub atomic_writes: u64,
    /// Retries taken by the backoff loop (injected or real).
    pub retries: u64,
    /// Operation index of the first journal append, if any happened.
    pub first_append_op: Option<u64>,
    /// Operation index of the last journal append, if any happened.
    pub last_append_op: Option<u64>,
    /// Whether an injected crash fired.
    pub crashed: bool,
}

#[derive(Debug)]
struct IoState {
    plan: IoFaultPlan,
    stats: IoStats,
    dead: bool,
    rng: SplitMix64,
}

struct OpGate {
    index: u64,
    crash: bool,
    transient: bool,
    flip: Option<u64>,
    partial_draw: u64,
}

const IO_RETRY_ATTEMPTS: u32 = 4;
const IO_RETRY_BASE: Duration = Duration::from_millis(1);
const IO_RETRY_CAP: Duration = Duration::from_millis(16);

fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(5) | Some(28)) // EIO, ENOSPC
}

fn flip_bit(buf: &mut [u8], draw: u64) {
    if buf.is_empty() {
        return;
    }
    let bit = (draw as usize) % (buf.len() * 8);
    buf[bit / 8] ^= 1 << (bit % 8);
}

/// The store's window onto the filesystem. Cloning shares the same fault
/// plan and counters, so a caller can keep a handle for [`StoreIo::stats`]
/// after moving a clone into a [`RunStore`].
#[derive(Debug, Clone)]
pub struct StoreIo {
    inner: Arc<Mutex<IoState>>,
}

impl Default for StoreIo {
    fn default() -> StoreIo {
        StoreIo::clean()
    }
}

impl StoreIo {
    /// Plain IO: no injected faults (real transient errors still retry).
    pub fn clean() -> StoreIo {
        StoreIo::with_plan(IoFaultPlan::default())
    }

    /// IO driven by a fault plan.
    pub fn with_plan(plan: IoFaultPlan) -> StoreIo {
        let rng = SplitMix64::new(plan.seed);
        StoreIo {
            inner: Arc::new(Mutex::new(IoState {
                plan,
                stats: IoStats::default(),
                dead: false,
                rng,
            })),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, IoState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts one mutating operation: refuses if the store already
    /// crashed, counts the boundary, and resolves which faults fire here.
    fn begin_mutation(&self, path: &Path) -> Result<OpGate, PersistError> {
        let mut st = self.lock();
        if st.dead {
            return Err(PersistError::with_path(
                PersistErrorKind::InjectedCrash,
                path,
                "store crashed at an injected IO boundary; further IO refused",
            ));
        }
        st.stats.ops += 1;
        let index = st.stats.ops;
        let crash = st.plan.crash_at == Some(index);
        let flip = (st.plan.flip_at == Some(index)).then(|| st.rng.next_u64());
        let partial_draw = if crash { st.rng.next_u64() } else { 0 };
        Ok(OpGate {
            index,
            crash,
            transient: st.plan.transient_at.contains(&index),
            flip,
            partial_draw,
        })
    }

    /// Marks the store dead and returns the injected-crash error. Every
    /// later mutation short-circuits, freezing the disk exactly as the
    /// kill left it (the in-memory run may continue and even return Ok;
    /// the sweep discards it and resumes from disk).
    fn kill(&self, path: &Path, index: u64) -> PersistError {
        let mut st = self.lock();
        st.dead = true;
        st.stats.crashed = true;
        PersistError::with_path(
            PersistErrorKind::InjectedCrash,
            path,
            format!("injected crash at IO boundary {index}"),
        )
    }

    /// Runs one IO attempt with bounded exponential backoff: transient
    /// failures (injected, or real `EIO`/`ENOSPC`/interrupt-class errors)
    /// retry up to [`IO_RETRY_ATTEMPTS`] times with 1ms-doubling capped
    /// delays; anything else (or exhaustion) surfaces as an IO error.
    fn with_retries(
        &self,
        transient: bool,
        path: &Path,
        what: &str,
        mut f: impl FnMut() -> std::io::Result<()>,
    ) -> Result<(), PersistError> {
        let mut pending_injection = transient;
        let mut delay = IO_RETRY_BASE;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let outcome = if pending_injection {
                pending_injection = false;
                Err(std::io::Error::from_raw_os_error(5)) // injected EIO
            } else {
                f()
            };
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) if retryable(&e) && attempt < IO_RETRY_ATTEMPTS => {
                    self.lock().stats.retries += 1;
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(IO_RETRY_CAP);
                }
                Err(e) => {
                    return Err(PersistError::with_path(
                        PersistErrorKind::Io,
                        path,
                        format!("{what}: {e}"),
                    ))
                }
            }
        }
    }

    /// Appends one framed record with a **single** buffered write followed
    /// by `sync_data`. The single write is the torn-record invariant: a
    /// kill during the append can tear at most this one record, never
    /// interleave two, so recovery only ever sees one damaged line per
    /// interruption. Counted as one crash boundary.
    fn append(
        &self,
        journal: &Mutex<std::fs::File>,
        path: &Path,
        record: &str,
    ) -> Result<(), PersistError> {
        let gate = self.begin_mutation(path)?;
        let mut buf = record.as_bytes().to_vec();
        if let Some(draw) = gate.flip {
            flip_bit(&mut buf, draw);
        }
        let mut file = journal.lock().unwrap_or_else(|e| e.into_inner());
        if gate.crash {
            // Torn append: a seeded strict prefix of the record reaches
            // the file, then the "process" dies.
            let keep = (gate.partial_draw as usize) % buf.len().max(1);
            let _ = file.write_all(&buf[..keep]);
            let _ = file.flush();
            return Err(self.kill(path, gate.index));
        }
        self.with_retries(gate.transient, path, "append journal record", || {
            file.write_all(&buf)?;
            file.sync_data()
        })?;
        let mut st = self.lock();
        st.stats.appends += 1;
        st.stats.first_append_op.get_or_insert(gate.index);
        st.stats.last_append_op = Some(gate.index);
        Ok(())
    }

    /// Atomically replaces `path`: write a sibling tmp file, fsync it,
    /// rename over `path`, fsync the directory. Four crash boundaries; a
    /// crash before the rename leaves `path` untouched (old content or
    /// absent), a crash after it leaves the new content committed — never
    /// a half-written file at `path`.
    fn write_atomic(&self, path: &Path, contents: &str) -> Result<(), PersistError> {
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);

        let gate = self.begin_mutation(&tmp)?;
        let mut buf = contents.as_bytes().to_vec();
        if let Some(draw) = gate.flip {
            flip_bit(&mut buf, draw);
        }
        if gate.crash {
            let keep = (gate.partial_draw as usize) % buf.len().max(1);
            let _ = std::fs::write(&tmp, &buf[..keep]);
            return Err(self.kill(&tmp, gate.index));
        }
        self.with_retries(gate.transient, &tmp, "write temp file", || {
            std::fs::write(&tmp, &buf)
        })?;

        let gate = self.begin_mutation(&tmp)?;
        if gate.crash {
            return Err(self.kill(&tmp, gate.index));
        }
        self.with_retries(gate.transient, &tmp, "sync temp file", || {
            std::fs::File::open(&tmp).and_then(|f| f.sync_all())
        })?;

        let gate = self.begin_mutation(path)?;
        if gate.crash {
            return Err(self.kill(path, gate.index));
        }
        self.with_retries(gate.transient, path, "rename into place", || {
            std::fs::rename(&tmp, path)
        })?;

        let gate = self.begin_mutation(path)?;
        if gate.crash {
            return Err(self.kill(path, gate.index));
        }
        if let Some(parent) = path.parent() {
            self.with_retries(gate.transient, parent, "sync directory", || {
                std::fs::File::open(parent).and_then(|f| f.sync_all())
            })?;
        }
        self.lock().stats.atomic_writes += 1;
        Ok(())
    }

    /// Creates (or truncates) an empty file. One crash boundary.
    fn create_empty(&self, path: &Path) -> Result<(), PersistError> {
        let gate = self.begin_mutation(path)?;
        if gate.crash {
            return Err(self.kill(path, gate.index));
        }
        self.with_retries(gate.transient, path, "create file", || {
            std::fs::write(path, "")
        })
    }

    /// Creates the store directory. One crash boundary.
    fn create_dir_all(&self, path: &Path) -> Result<(), PersistError> {
        let gate = self.begin_mutation(path)?;
        if gate.crash {
            return Err(self.kill(path, gate.index));
        }
        self.with_retries(gate.transient, path, "create directory", || {
            std::fs::create_dir_all(path)
        })
    }

    /// Reads a file that must exist. Reads are not crash boundaries.
    fn read_to_string(&self, path: &Path) -> Result<String, PersistError> {
        std::fs::read_to_string(path)
            .map_err(|e| PersistError::with_path(PersistErrorKind::Io, path, format!("read: {e}")))
    }

    /// Reads raw bytes, mapping "not found" to `None`. Journal recovery
    /// reads bytes, not UTF-8: a bit flip can produce invalid UTF-8, and
    /// that must classify as a damaged record, not fail the whole read.
    fn read_optional_bytes(&self, path: &Path) -> Result<Option<Vec<u8>>, PersistError> {
        match std::fs::read(path) {
            Ok(raw) => Ok(Some(raw)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PersistError::with_path(
                PersistErrorKind::Io,
                path,
                format!("read: {e}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery classification
// ---------------------------------------------------------------------------

/// What a resume does when it finds a *mid-file* damaged journal record
/// (a damaged final line is always a torn tail and always discarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Refuse to resume with a classified [`PersistErrorKind::Corrupt`]
    /// error; the journal is left untouched for inspection. The default.
    #[default]
    Refuse,
    /// Quarantine the damaged records into `recovery_report.json` and
    /// resume from the salvageable remainder: campaigns drop only the
    /// damaged segment records (segments are independent), fuzz runs
    /// truncate at the first damaged round (rounds are cumulative). The
    /// lost work re-executes, so the transcript stays byte-identical.
    Salvage,
}

impl RecoveryPolicy {
    /// Stable name, used in `recovery_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Refuse => "refuse",
            RecoveryPolicy::Salvage => "salvage",
        }
    }
}

/// How a damaged journal record was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryClass {
    /// A damaged *final* line: the expected remnant of a kill mid-append.
    TornTail,
    /// The length/CRC frame header is missing or inconsistent.
    BadFrame,
    /// The frame parsed but the payload fails its checksum.
    CrcMismatch,
    /// The checksum passed but the payload is not valid JSON.
    BadJson,
}

impl RecoveryClass {
    /// Stable name, used in `recovery_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryClass::TornTail => "torn-tail",
            RecoveryClass::BadFrame => "bad-frame",
            RecoveryClass::CrcMismatch => "crc-mismatch",
            RecoveryClass::BadJson => "bad-json",
        }
    }
}

/// One damaged journal record, as quarantined in `recovery_report.json`.
#[derive(Debug, Clone)]
pub struct QuarantinedRecord {
    /// 1-based journal line number.
    pub line: usize,
    /// Damage classification.
    pub class: RecoveryClass,
    /// What exactly failed to validate.
    pub detail: String,
    /// The first bytes of the damaged line, for forensics.
    pub prefix: String,
}

/// What journal recovery salvaged and what it set aside.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// The validated records resume proceeds from.
    pub lines: Vec<Value>,
    /// Whether a torn tail was discarded.
    pub torn_tail: bool,
    /// Every damaged record (the torn tail included, class
    /// [`RecoveryClass::TornTail`]).
    pub quarantined: Vec<QuarantinedRecord>,
    /// Intact records dropped because they depend on a damaged earlier
    /// record (fuzz rounds after the first corruption).
    pub dropped_dependent: usize,
}

impl JournalRecovery {
    /// Whether recovery set aside anything worse than a torn tail.
    pub fn has_corruption(&self) -> bool {
        self.quarantined
            .iter()
            .any(|q| q.class != RecoveryClass::TornTail)
    }
}

/// Schema version stamped into `recovery_report.json`.
pub const RECOVERY_REPORT_VERSION: i64 = 1;

/// On-disk format version; bumped on any incompatible layout change.
/// Version 2 introduced length+CRC record framing and the extended
/// manifest fingerprint.
pub const STORE_VERSION: i64 = 2;

/// What kind of run a store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A segmented work-stealing campaign.
    WorkStealing,
    /// A coverage-guided (or random-baseline) fuzz run.
    Fuzz,
}

impl RunKind {
    fn name(self) -> &'static str {
        match self {
            RunKind::WorkStealing => "work-stealing",
            RunKind::Fuzz => "fuzz",
        }
    }

    fn from_name(name: &str) -> Option<RunKind> {
        match name {
            "work-stealing" => Some(RunKind::WorkStealing),
            "fuzz" => Some(RunKind::Fuzz),
            _ => None,
        }
    }
}

/// The run manifest: enough to refuse a resume under a different
/// configuration (the journal is only meaningful for the exact run
/// parameters that produced it). The fingerprint covers every
/// seed/budget/plan-shaping field; deliberately excluded are the injected
/// bug/platform/fault toggles and topology, which have no compact stable
/// rendering — the operator/mode/budget fields catch the realistic
/// mix-ups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Store format version.
    pub version: i64,
    /// Run kind.
    pub kind: RunKind,
    /// Operator (or composed label) under test.
    pub operator: String,
    /// Acto usage mode.
    pub mode: Mode,
    /// Fuzz master seed (0 for campaigns, which are seedless).
    pub seed: u64,
    /// Campaign segment size (0 for fuzz runs).
    pub segment_ops: usize,
    /// Fuzz execution budget (0 for campaigns).
    pub execs: usize,
    /// Fuzz batch size (0 for campaigns).
    pub batch: usize,
    /// Campaign plan budget cap (`None` = the full plan).
    pub max_ops: Option<usize>,
    /// Whether differential oracles were on.
    pub differential: bool,
    /// Whether the crash-point sweep was on.
    pub crash_sweep: bool,
    /// Fuzz maximum declaration-sequence length (0 for campaigns).
    pub max_seq: usize,
    /// Fuzz crash-sweep write budget (0 for campaigns).
    pub crash_writes_max: u32,
    /// When set on a fuzz store, a completed resume also delta-debugs
    /// every alarm-raising corpus entry into a minimal declaration
    /// sequence (`minimized.json`).
    pub minimize: bool,
}

impl Manifest {
    fn to_value(&self) -> Value {
        Value::object([
            ("version", Value::Integer(self.version)),
            ("kind", Value::String(self.kind.name().to_string())),
            ("operator", Value::String(self.operator.clone())),
            ("mode", Value::String(self.mode.name().to_string())),
            ("seed", Value::Integer(self.seed as i64)),
            ("segment_ops", Value::Integer(self.segment_ops as i64)),
            ("execs", Value::Integer(self.execs as i64)),
            ("batch", Value::Integer(self.batch as i64)),
            (
                "max_ops",
                self.max_ops
                    .map_or(Value::Null, |n| Value::Integer(n as i64)),
            ),
            ("differential", Value::Bool(self.differential)),
            ("crash_sweep", Value::Bool(self.crash_sweep)),
            ("max_seq", Value::Integer(self.max_seq as i64)),
            (
                "crash_writes_max",
                Value::Integer(i64::from(self.crash_writes_max)),
            ),
            ("minimize", Value::Bool(self.minimize)),
        ])
    }

    fn from_value(v: &Value) -> Result<Manifest, PersistError> {
        let version = req_i64(v, "version").map_err(PersistError::format)?;
        if version != STORE_VERSION {
            return Err(PersistError::format(format!(
                "run store version {version} is not the supported version {STORE_VERSION}"
            )));
        }
        let kind = RunKind::from_name(req_str(v, "kind").map_err(PersistError::format)?)
            .ok_or_else(|| PersistError::format("manifest has unknown run kind"))?;
        let mode = mode_from_name(req_str(v, "mode").map_err(PersistError::format)?)
            .map_err(PersistError::format)?;
        let max_ops = opt_usize(v, "max_ops").map_err(PersistError::format)?;
        Ok(Manifest {
            version,
            kind,
            operator: req_str(v, "operator")
                .map_err(PersistError::format)?
                .to_string(),
            mode,
            seed: req_i64(v, "seed").map_err(PersistError::format)? as u64,
            segment_ops: req_usize(v, "segment_ops").map_err(PersistError::format)?,
            execs: req_usize(v, "execs").map_err(PersistError::format)?,
            batch: req_usize(v, "batch").map_err(PersistError::format)?,
            max_ops,
            differential: v
                .get("differential")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            crash_sweep: v
                .get("crash_sweep")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            max_seq: v
                .get("max_seq")
                .and_then(Value::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(0),
            crash_writes_max: v
                .get("crash_writes_max")
                .and_then(Value::as_i64)
                .and_then(|n| u32::try_from(n).ok())
                .unwrap_or(0),
            minimize: v.get("minimize").and_then(Value::as_bool).unwrap_or(false),
        })
    }

    /// Field-by-field comparison against the manifest the resume
    /// configuration would produce; the error names the first differing
    /// field with both values. `version`, `kind` (checked separately with
    /// a friendlier message), and `minimize` (a resume-side output option,
    /// not a run parameter) are not compared.
    fn ensure_matches(&self, expected: &Manifest) -> Result<(), PersistError> {
        fn diff<T: std::fmt::Debug + PartialEq>(
            field: &str,
            store: &T,
            resume: &T,
        ) -> Result<(), PersistError> {
            if store == resume {
                return Ok(());
            }
            Err(PersistError::new(
                PersistErrorKind::Mismatch,
                format!(
                    "store manifest does not match the resume configuration: \
                     field `{field}` differs (store {store:?}, resume {resume:?})"
                ),
            ))
        }
        diff("operator", &self.operator, &expected.operator)?;
        diff("mode", &self.mode.name(), &expected.mode.name())?;
        diff("seed", &self.seed, &expected.seed)?;
        diff("segment_ops", &self.segment_ops, &expected.segment_ops)?;
        diff("execs", &self.execs, &expected.execs)?;
        diff("batch", &self.batch, &expected.batch)?;
        diff("max_ops", &self.max_ops, &expected.max_ops)?;
        diff("differential", &self.differential, &expected.differential)?;
        diff("crash_sweep", &self.crash_sweep, &expected.crash_sweep)?;
        diff("max_seq", &self.max_seq, &expected.max_seq)?;
        diff(
            "crash_writes_max",
            &self.crash_writes_max,
            &expected.crash_writes_max,
        )?;
        Ok(())
    }
}

/// A run store rooted at one directory; every filesystem mutation goes
/// through its [`StoreIo`].
pub struct RunStore {
    dir: PathBuf,
    io: StoreIo,
}

impl RunStore {
    /// Creates a fresh store with plain IO. Refuses to clobber an
    /// existing manifest.
    pub fn create(dir: &Path, manifest: &Manifest) -> Result<RunStore, PersistError> {
        RunStore::create_io(dir, manifest, StoreIo::clean())
    }

    /// Creates a fresh store through `io`: truncates the journal first,
    /// then atomically writes the manifest. The manifest lands *last*, so
    /// its existence is the creation commit point — a crash anywhere in
    /// here leaves no manifest, and recovery is simply creating the store
    /// again.
    pub fn create_io(
        dir: &Path,
        manifest: &Manifest,
        io: StoreIo,
    ) -> Result<RunStore, PersistError> {
        io.create_dir_all(dir)?;
        let store = RunStore {
            dir: dir.to_path_buf(),
            io,
        };
        if store.manifest_path().exists() {
            return Err(PersistError::with_path(
                PersistErrorKind::Conflict,
                dir,
                format!(
                    "run store already exists at {}; use resume instead",
                    dir.display()
                ),
            ));
        }
        store.io.create_empty(&store.journal_path())?;
        store.io.write_atomic(
            &store.manifest_path(),
            &crdspec::json::to_string_pretty(&manifest.to_value()),
        )?;
        Ok(store)
    }

    /// Opens an existing store with plain IO and returns its manifest.
    pub fn open(dir: &Path) -> Result<(RunStore, Manifest), PersistError> {
        RunStore::open_io(dir, StoreIo::clean())
    }

    /// Opens an existing store through `io` and returns its manifest.
    pub fn open_io(dir: &Path, io: StoreIo) -> Result<(RunStore, Manifest), PersistError> {
        let store = RunStore {
            dir: dir.to_path_buf(),
            io,
        };
        let raw = store.io.read_to_string(&store.manifest_path())?;
        let v = crdspec::json::from_str(&raw).map_err(|e| {
            PersistError::with_path(
                PersistErrorKind::Format,
                &store.manifest_path(),
                format!("parse manifest: {e:?}"),
            )
        })?;
        let manifest = Manifest::from_value(&v)?;
        Ok((store, manifest))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    fn corpus_path(&self) -> PathBuf {
        self.dir.join("corpus.json")
    }

    fn minimized_path(&self) -> PathBuf {
        self.dir.join("minimized.json")
    }

    fn recovery_report_path(&self) -> PathBuf {
        self.dir.join("recovery_report.json")
    }

    /// Validates every journal line (frame, CRC, JSON) and classifies the
    /// damage. A damaged final line is a torn tail — discarded, exactly
    /// as an unframed truncated line was before. Damaged mid-file lines
    /// are corruption: quarantined into `recovery_report.json`, then
    /// refused or salvaged per `policy` (campaigns drop only the damaged
    /// records; fuzz runs truncate at the first one, because later rounds
    /// depend on it).
    fn recover_journal(
        &self,
        kind: RunKind,
        policy: RecoveryPolicy,
    ) -> Result<JournalRecovery, PersistError> {
        let Some(raw) = self.io.read_optional_bytes(&self.journal_path())? else {
            return Ok(JournalRecovery::default());
        };
        // Decode per line, lossily: a bit flip that lands in a UTF-8
        // continuation byte must classify as a damaged record (the
        // replacement character breaks its CRC), not abort the read.
        let rows: Vec<(usize, String)> = raw
            .split(|&b| b == b'\n')
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut good: Vec<(usize, Value)> = Vec::new();
        let mut bad: Vec<(usize, QuarantinedRecord)> = Vec::new();
        for (pos, (lineno, line)) in rows.iter().enumerate() {
            match parse_frame(line) {
                Ok(v) => good.push((pos, v)),
                Err((class, detail)) => bad.push((
                    pos,
                    QuarantinedRecord {
                        line: lineno + 1,
                        class,
                        detail,
                        prefix: line.chars().take(48).collect(),
                    },
                )),
            }
        }

        let mut recovery = JournalRecovery::default();
        // A damaged final line is where a kill tears; reclassify it as the
        // torn tail whatever validation step it failed.
        if let Some(&(pos, _)) = bad.last() {
            if !rows.is_empty() && pos == rows.len() - 1 {
                let (_, mut tail) = bad.pop().expect("checked non-empty");
                tail.class = RecoveryClass::TornTail;
                recovery.torn_tail = true;
                recovery.quarantined.push(tail);
            }
        }

        if bad.is_empty() {
            recovery.lines = good.into_iter().map(|(_, v)| v).collect();
            if recovery.torn_tail {
                self.write_recovery_report(kind, policy, &recovery)?;
            }
            return Ok(recovery);
        }

        // Mid-file corruption.
        let first_bad = bad[0].0;
        let first = QuarantinedRecord {
            line: bad[0].1.line,
            class: bad[0].1.class,
            detail: bad[0].1.detail.clone(),
            prefix: bad[0].1.prefix.clone(),
        };
        let torn = recovery.quarantined.pop();
        recovery.quarantined = bad.into_iter().map(|(_, q)| q).collect();
        recovery.quarantined.extend(torn);
        match (policy, kind) {
            (RecoveryPolicy::Refuse, _) => {
                recovery.lines = good.into_iter().map(|(_, v)| v).collect();
                self.write_recovery_report(kind, policy, &recovery)?;
                Err(PersistError::with_path(
                    PersistErrorKind::Corrupt,
                    &self.journal_path(),
                    format!(
                        "journal line {} is corrupt ({}: {}); refusing to resume under \
                         RecoveryPolicy::Refuse — the record is quarantined in \
                         recovery_report.json; resume with RecoveryPolicy::Salvage to \
                         drop it and re-execute the lost work",
                        first.line,
                        first.class.name(),
                        first.detail
                    ),
                ))
            }
            (RecoveryPolicy::Salvage, RunKind::WorkStealing) => {
                // Segment records are independent; keep every intact one.
                recovery.lines = good.into_iter().map(|(_, v)| v).collect();
                self.write_recovery_report(kind, policy, &recovery)?;
                Ok(recovery)
            }
            (RecoveryPolicy::Salvage, RunKind::Fuzz) => {
                // Rounds are cumulative: a round after the corruption was
                // generated from state the damaged record helped build, so
                // the journal is only trustworthy up to the first damage.
                recovery.dropped_dependent =
                    good.iter().filter(|(pos, _)| *pos > first_bad).count();
                recovery.lines = good
                    .into_iter()
                    .filter(|(pos, _)| *pos < first_bad)
                    .map(|(_, v)| v)
                    .collect();
                self.write_recovery_report(kind, policy, &recovery)?;
                Ok(recovery)
            }
        }
    }

    /// Writes `recovery_report.json` (atomically) describing what a
    /// recovery pass discarded or quarantined.
    fn write_recovery_report(
        &self,
        kind: RunKind,
        policy: RecoveryPolicy,
        recovery: &JournalRecovery,
    ) -> Result<(), PersistError> {
        let root = Value::object([
            ("schema_version", Value::Integer(RECOVERY_REPORT_VERSION)),
            ("run_kind", Value::String(kind.name().to_string())),
            ("policy", Value::String(policy.name().to_string())),
            ("good_records", Value::Integer(recovery.lines.len() as i64)),
            ("torn_tail", Value::Bool(recovery.torn_tail)),
            (
                "quarantined",
                Value::array(recovery.quarantined.iter().map(|q| {
                    Value::object([
                        ("line", Value::Integer(q.line as i64)),
                        ("class", Value::String(q.class.name().to_string())),
                        ("detail", Value::String(q.detail.clone())),
                        ("prefix", Value::String(q.prefix.clone())),
                    ])
                })),
            ),
            (
                "dropped_dependent",
                Value::Integer(recovery.dropped_dependent as i64),
            ),
        ]);
        self.io.write_atomic(
            &self.recovery_report_path(),
            &crdspec::json::to_string_pretty(&root),
        )
    }

    /// Appends one record as a single framed, fsynced write. Called from
    /// worker-thread sinks, which cannot propagate errors — after an
    /// injected crash the store is dead and appends silently no-op,
    /// freezing the disk exactly as a kill would.
    fn append_record(&self, journal: &Mutex<std::fs::File>, value: &Value) {
        let line = frame_record(&crdspec::json::to_string(value));
        let _ = self.io.append(journal, &self.journal_path(), &line);
    }

    fn open_journal_append(&self) -> Result<Mutex<std::fs::File>, PersistError> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())
            .map(Mutex::new)
            .map_err(|e| {
                PersistError::with_path(
                    PersistErrorKind::Io,
                    &self.journal_path(),
                    format!("open journal for append: {e}"),
                )
            })
    }

    /// Atomically rewrites the journal to exactly `lines` (re-framed),
    /// dropping any torn tail or quarantined record so subsequent appends
    /// start on a clean line boundary.
    fn rewrite_journal(&self, lines: &[Value]) -> Result<(), PersistError> {
        let mut out = String::new();
        for v in lines {
            out.push_str(&frame_record(&crdspec::json::to_string(v)));
        }
        self.io.write_atomic(&self.journal_path(), &out)
    }
}

// ---------------------------------------------------------------------------
// Work-stealing campaigns
// ---------------------------------------------------------------------------

/// The manifest a campaign configuration fingerprints to.
fn campaign_manifest(config: &CampaignConfig, segment_ops: usize) -> Manifest {
    Manifest {
        version: STORE_VERSION,
        kind: RunKind::WorkStealing,
        operator: config.operator().to_string(),
        mode: config.mode,
        seed: 0,
        segment_ops,
        execs: 0,
        batch: 0,
        max_ops: config.max_ops,
        differential: config.differential,
        crash_sweep: config.crash_sweep,
        max_seq: 0,
        crash_writes_max: 0,
        minimize: false,
    }
}

/// Runs a work-stealing campaign journaling each completed segment to
/// `dir`, so an interrupted run can [`resume_work_stealing_with`]. All
/// store IO goes through `io` ([`StoreIo::clean`] for real disk IO; the
/// durability sweep injects crashes here).
pub fn run_work_stealing_persistent_io(
    config: &CampaignConfig,
    workers: usize,
    segment_ops: usize,
    dir: &Path,
    io: StoreIo,
) -> Result<ParallelResult, PersistError> {
    registered(config.operator())?;
    let manifest = campaign_manifest(config, segment_ops);
    let store = RunStore::create_io(dir, &manifest, io)?;
    run_campaign_against(config, workers, segment_ops, &store, BTreeMap::new())
}

/// Resumes an interrupted work-stealing campaign from its store: already
/// journaled segments are spliced back in, only missing segments execute,
/// and the returned transcript is byte-identical to an uninterrupted run
/// at any worker count. `policy` decides what mid-file journal corruption
/// does ([`RecoveryPolicy::Refuse`] fails the resume); all store IO goes
/// through `io`.
pub fn resume_work_stealing_with(
    config: &CampaignConfig,
    workers: usize,
    dir: &Path,
    policy: RecoveryPolicy,
    io: StoreIo,
) -> Result<ParallelResult, PersistError> {
    registered(config.operator())?;
    let expected = |stored: &Manifest| campaign_manifest(config, stored.segment_ops);
    let segment = |line: &Value| -> Result<(usize, Vec<Trial>), String> {
        let index = req_usize(line, "segment")?;
        let trials = req_array(line, "trials")?.iter().map(trial_from_value);
        Ok((index, trials.collect::<Result<_, _>>()?))
    };
    let (store, manifest, completed) = reopen(dir, io, policy, expected, |lines| {
        (lines.iter().enumerate())
            .map(|(i, line)| segment(line).map_err(|e| format!("journal line {i}: {e}")))
            .collect::<Result<BTreeMap<usize, Vec<Trial>>, String>>()
    })?;
    run_campaign_against(config, workers, manifest.segment_ops, &store, completed)
}

/// The one resume path: opens the store at `dir`, checks its run kind and
/// manifest against `expected` (built from the stored manifest, for the
/// fields a resume inherits), recovers the journal under `policy`, decodes
/// the validated lines, and only then re-anchors the journal to them so
/// later appends start on a clean line boundary.
fn reopen<T>(
    dir: &Path,
    io: StoreIo,
    policy: RecoveryPolicy,
    expected: impl FnOnce(&Manifest) -> Manifest,
    decode: impl FnOnce(&[Value]) -> Result<T, String>,
) -> Result<(RunStore, Manifest, T), PersistError> {
    let (store, manifest) = RunStore::open_io(dir, io)?;
    let expected = expected(&manifest);
    if manifest.kind != expected.kind {
        return Err(PersistError::with_path(
            PersistErrorKind::Mismatch,
            dir,
            format!(
                "store at {} holds a {} run, not a {} run",
                dir.display(),
                manifest.kind.name(),
                expected.kind.name()
            ),
        ));
    }
    manifest.ensure_matches(&expected)?;
    let recovery = store.recover_journal(manifest.kind, policy)?;
    let decoded = decode(&recovery.lines).map_err(PersistError::format)?;
    store.rewrite_journal(&recovery.lines)?;
    Ok((store, manifest, decoded))
}

fn run_campaign_against(
    config: &CampaignConfig,
    workers: usize,
    segment_ops: usize,
    store: &RunStore,
    completed: BTreeMap<usize, Vec<Trial>>,
) -> Result<ParallelResult, PersistError> {
    let journal = store.open_journal_append()?;
    let sink = |seg: crate::exec::Segment, trials: &[Trial]| {
        let line = Value::object([
            ("segment", Value::Integer(seg.index as i64)),
            ("trials", Value::array(trials.iter().map(trial_to_value))),
        ]);
        store.append_record(&journal, &line);
    };
    Ok(run_work_stealing_core(
        config,
        workers,
        segment_ops,
        &SnapshotDepot::new(),
        completed,
        Some(&sink),
    ))
}

// ---------------------------------------------------------------------------
// Fuzz runs
// ---------------------------------------------------------------------------

/// The manifest a fuzz configuration fingerprints to.
fn fuzz_manifest(cfg: &FuzzConfig, minimize_alarms: bool) -> Manifest {
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
        minimize: minimize_alarms,
    }
}

/// Runs a coverage-guided fuzz campaign journaling each batch barrier to
/// `dir`, so an interrupted run can [`resume_fuzz_with`]. On completion the
/// final corpus is written to `corpus.json`. With `minimize_alarms` the
/// store's `minimize` flag is set: when the run (or any later resume)
/// completes, every alarm-raising corpus entry is also delta-debugged into
/// a minimal declaration sequence, written to `minimized.json`. All store
/// IO goes through `io` ([`StoreIo::clean`] for real disk IO).
pub fn run_fuzz_persistent_io(
    cfg: &FuzzConfig,
    dir: &Path,
    minimize_alarms: bool,
    io: StoreIo,
) -> Result<FuzzResult, PersistError> {
    registered(cfg.campaign.operator())?;
    let manifest = fuzz_manifest(cfg, minimize_alarms);
    let store = RunStore::create_io(dir, &manifest, io)?;
    run_fuzz_against(cfg, &store, &manifest, None)
}

/// Resumes an interrupted fuzz run from its store: the journal
/// fast-forwards coverage, corpus, records, the dedup set, and the random
/// stream to the last completed batch barrier, then the guided loop
/// continues. The returned transcript, corpus JSON, and coverage digest
/// are byte-identical to an uninterrupted run at any worker count.
/// `policy` decides what mid-file journal corruption does; all store IO
/// goes through `io`.
pub fn resume_fuzz_with(
    cfg: &FuzzConfig,
    dir: &Path,
    policy: RecoveryPolicy,
    io: StoreIo,
) -> Result<FuzzResult, PersistError> {
    let expected = |stored: &Manifest| fuzz_manifest(cfg, stored.minimize);
    let (store, manifest, restored) = reopen(dir, io, policy, expected, |lines| {
        restore_from_rounds(cfg, lines)
    })?;
    run_fuzz_against(cfg, &store, &manifest, restored)
}

/// Reads and validates a store's final `corpus.json`. Not needed for
/// resume (the journal alone rebuilds the corpus); exists so tooling —
/// and the corruption proptest — reads the artifact through a checked
/// path that classifies damage instead of panicking.
pub fn load_corpus(dir: &Path) -> Result<Corpus, PersistError> {
    let path = dir.join("corpus.json");
    let raw = StoreIo::clean().read_to_string(&path)?;
    Corpus::from_json_str(&raw)
        .map_err(|e| PersistError::with_path(PersistErrorKind::Format, &path, e))
}

fn run_fuzz_against(
    cfg: &FuzzConfig,
    store: &RunStore,
    manifest: &Manifest,
    restored: Option<RestoredFuzz>,
) -> Result<FuzzResult, PersistError> {
    let journal = store.open_journal_append()?;
    let mut on_round = |delta: &crate::fuzz::RoundDelta<'_>| {
        let line = Value::object([
            ("round", Value::Integer(delta.round as i64)),
            ("executed", Value::Integer(delta.executed as i64)),
            ("rng_state", Value::Integer(delta.rng_state as i64)),
            ("replay", Value::Bool(delta.replay)),
            (
                "records",
                Value::array(delta.records.iter().map(exec_record_to_value)),
            ),
            (
                "corpus_added",
                Value::array(delta.corpus_added.iter().map(corpus_entry_to_value)),
            ),
        ]);
        store.append_record(&journal, &line);
    };
    let result = run_fuzz_hooked(
        cfg,
        Guidance::Coverage,
        None,
        FuzzHooks {
            restore: restored,
            on_round: Some(&mut on_round),
        },
    )
    .map_err(|e| PersistError::new(PersistErrorKind::Run, e))?;
    store
        .io
        .write_atomic(&store.corpus_path(), &result.corpus.to_json_string())?;
    if manifest.minimize {
        write_minimized(cfg, store, &result)?;
    }
    Ok(result)
}

/// Rebuilds the fuzz-run state at the last journaled batch barrier. The
/// dedup set is the keys of every executed input (every drawn candidate
/// executes, so the two sets coincide); the coverage map is the union of
/// the per-record novel features (observation is idempotent, so the union
/// of first sightings *is* the map).
fn restore_from_rounds(cfg: &FuzzConfig, lines: &[Value]) -> Result<Option<RestoredFuzz>, String> {
    let Some(last) = lines.last() else {
        return Ok(None);
    };
    let mut coverage = CoverageMap::new();
    let mut corpus = Corpus {
        operator: cfg.campaign.operator().to_string(),
        entries: Vec::new(),
    };
    let mut records: Vec<ExecRecord> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (i, line) in lines.iter().enumerate() {
        for rv in req_array(line, "records").map_err(|e| format!("journal line {i}: {e}"))? {
            let record =
                exec_record_from_value(rv).map_err(|e| format!("journal line {i}: {e}"))?;
            seen.insert(record.input.key());
            for f in &record.novel {
                coverage.observe(*f);
            }
            records.push(record);
        }
        for cv in req_array(line, "corpus_added").map_err(|e| format!("journal line {i}: {e}"))? {
            corpus
                .entries
                .push(corpus_entry_from_value(cv).map_err(|e| format!("journal line {i}: {e}"))?);
        }
    }
    Ok(Some(RestoredFuzz {
        coverage,
        corpus,
        records,
        seen,
        rng_state: req_i64(last, "rng_state")? as u64,
        executed: req_usize(last, "executed")?,
        rounds: req_usize(last, "round")?,
    }))
}

/// Delta-debugs every alarm-raising corpus entry into a minimal
/// declaration sequence and writes the result set to `minimized.json`.
/// Returns the number of entries shrunk.
pub fn write_minimized(
    cfg: &FuzzConfig,
    store: &RunStore,
    result: &FuzzResult,
) -> Result<usize, PersistError> {
    let name = cfg.campaign.operator();
    let operator = registered(name)?;
    let pool = plan_operator(&*operator, cfg.campaign.mode);
    let initial_cr = operator.initial_cr();
    let mut shrunk = Vec::new();
    for entry in &result.corpus.entries {
        let Some(record) = result.records.get(entry.exec) else {
            continue;
        };
        let Some(kind) = record
            .trials
            .iter()
            .flat_map(|t| t.alarms.iter())
            .map(|a| a.kind)
            .next()
        else {
            continue;
        };
        let declarations = entry.input.declarations(&pool, &initial_cr);
        let minimal = minimize(
            name,
            &cfg.campaign.bugs,
            cfg.campaign.platform,
            &declarations,
            kind,
        );
        shrunk.push(Value::object([
            ("entry", Value::Integer(entry.id as i64)),
            ("kind", Value::String(kind.name().to_string())),
            ("original_len", Value::Integer(declarations.len() as i64)),
            ("declarations", Value::array(minimal)),
        ]));
    }
    let count = shrunk.len();
    let root = Value::object([
        ("version", Value::Integer(STORE_VERSION)),
        ("operator", Value::String(name.to_string())),
        ("entries", Value::array(shrunk)),
    ]);
    store.io.write_atomic(
        &store.minimized_path(),
        &crdspec::json::to_string_pretty(&root),
    )?;
    Ok(count)
}

// ---------------------------------------------------------------------------
// Value codecs (crdspec::Value <-> run data)
// ---------------------------------------------------------------------------

pub(crate) fn req_i64(v: &Value, key: &str) -> Result<i64, String> {
    v.get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

pub(crate) fn req_usize(v: &Value, key: &str) -> Result<usize, String> {
    req_i64(v, key)
        .and_then(|n| usize::try_from(n).map_err(|_| format!("field {key:?} is negative")))
}

/// An optional non-negative integer field: absent or `null` is `None`.
fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n
            .as_i64()
            .and_then(|n| usize::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("bad {key}")),
    }
}

pub(crate) fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

pub(crate) fn req_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field {key:?}"))
}

fn mode_from_name(name: &str) -> Result<Mode, String> {
    match name {
        "Acto-blackbox" => Ok(Mode::Blackbox),
        "Acto-whitebox" => Ok(Mode::Whitebox),
        other => Err(format!("unknown mode {other:?}")),
    }
}

/// Interns a string, leaking each distinct value once. Journal vocabulary
/// (scenario names, outcome classes) is a small closed set in practice, so
/// the leak is bounded; the pool exists because [`PlannedOp::scenario`]
/// and [`CoverageFeature`] hold `&'static str` for zero-cost in-run use.
fn intern(s: &str) -> &'static str {
    use std::sync::OnceLock;
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = pool.lock().unwrap();
    if let Some(&existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// The payload-free outcome classes, for re-pinning parsed features to
/// the statics the running process uses.
const OUTCOME_CLASSES: &[&str] = &[
    "rejected-by-api",
    "rejected-by-operator",
    "converged",
    "error-state",
    "operator-crash",
    "livelock",
    "stuck",
];

const CRASH_VERDICTS: &[&str] = &["consistent", "diverged", "unfired"];

fn pin_static(s: &str, catalog: &[&'static str]) -> &'static str {
    catalog
        .iter()
        .find(|&&c| c == s)
        .copied()
        .unwrap_or_else(|| intern(s))
}

fn expectation_name(e: Expectation) -> &'static str {
    match e {
        Expectation::NormalTransition => "normal",
        Expectation::Misoperation => "misoperation",
    }
}

fn expectation_from_name(name: &str) -> Result<Expectation, String> {
    match name {
        "normal" => Ok(Expectation::NormalTransition),
        "misoperation" => Ok(Expectation::Misoperation),
        other => Err(format!("unknown expectation {other:?}")),
    }
}

fn planned_op_to_value(op: &PlannedOp) -> Value {
    Value::object([
        ("index", Value::Integer(op.index as i64)),
        ("property", Value::String(op.property.to_string())),
        ("scenario", Value::String(op.scenario.to_string())),
        ("value", op.value.clone()),
        (
            "deps",
            Value::array(
                op.dependency_assignments
                    .iter()
                    .map(|(p, v)| Value::array([Value::String(p.to_string()), v.clone()])),
            ),
        ),
        (
            "expectation",
            Value::String(expectation_name(op.expectation).to_string()),
        ),
    ])
}

fn planned_op_from_value(v: &Value) -> Result<PlannedOp, String> {
    let property = req_str(v, "property")?
        .parse::<crdspec::Path>()
        .map_err(|e| format!("bad property path: {e}"))?;
    let mut dependency_assignments = Vec::new();
    for d in req_array(v, "deps")? {
        let pair = d
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| "dependency assignment must be a [path, value] pair".to_string())?;
        let path = pair[0]
            .as_str()
            .ok_or_else(|| "dependency path must be a string".to_string())?
            .parse::<crdspec::Path>()
            .map_err(|e| format!("bad dependency path: {e}"))?;
        dependency_assignments.push((path, pair[1].clone()));
    }
    Ok(PlannedOp {
        index: req_usize(v, "index")?,
        property,
        scenario: intern(req_str(v, "scenario")?),
        value: v.get("value").cloned().unwrap_or(Value::Null),
        dependency_assignments,
        expectation: expectation_from_name(req_str(v, "expectation")?)?,
    })
}

fn outcome_to_value(o: &TrialOutcome) -> Value {
    let (class, detail) = match o {
        TrialOutcome::RejectedByApi(d) => ("rejected-by-api", Some(d)),
        TrialOutcome::RejectedByOperator => ("rejected-by-operator", None),
        TrialOutcome::Converged => ("converged", None),
        TrialOutcome::ErrorState(d) => ("error-state", Some(d)),
        TrialOutcome::OperatorCrash(d) => ("operator-crash", Some(d)),
        TrialOutcome::Livelock => ("livelock", None),
        TrialOutcome::Stuck => ("stuck", None),
    };
    let mut fields = vec![("class", Value::String(class.to_string()))];
    if let Some(d) = detail {
        fields.push(("detail", Value::String(d.clone())));
    }
    Value::object(fields)
}

fn outcome_from_value(v: &Value) -> Result<TrialOutcome, String> {
    let class = req_str(v, "class")?;
    let detail = || -> Result<String, String> { Ok(req_str(v, "detail")?.to_string()) };
    Ok(match class {
        "rejected-by-api" => TrialOutcome::RejectedByApi(detail()?),
        "rejected-by-operator" => TrialOutcome::RejectedByOperator,
        "converged" => TrialOutcome::Converged,
        "error-state" => TrialOutcome::ErrorState(detail()?),
        "operator-crash" => TrialOutcome::OperatorCrash(detail()?),
        "livelock" => TrialOutcome::Livelock,
        "stuck" => TrialOutcome::Stuck,
        other => return Err(format!("unknown outcome class {other:?}")),
    })
}

fn alarm_to_value(a: &Alarm) -> Value {
    Value::object([
        ("kind", Value::String(a.kind.name().to_string())),
        ("detail", Value::String(a.detail.clone())),
    ])
}

fn alarm_from_value(v: &Value) -> Result<Alarm, String> {
    let kind = req_str(v, "kind")?;
    Ok(Alarm {
        kind: AlarmKind::from_name(kind).ok_or_else(|| format!("unknown alarm kind {kind:?}"))?,
        detail: req_str(v, "detail")?.to_string(),
    })
}

fn trial_to_value(t: &Trial) -> Value {
    Value::object([
        ("op", planned_op_to_value(&t.op)),
        ("declaration", t.declaration.clone()),
        ("outcome", outcome_to_value(&t.outcome)),
        ("alarms", Value::array(t.alarms.iter().map(alarm_to_value))),
        (
            "rollback_recovered",
            match t.rollback_recovered {
                None => Value::Null,
                Some(b) => Value::Bool(b),
            },
        ),
        ("sim_seconds", Value::Integer(t.sim_seconds as i64)),
        (
            "fault_events",
            Value::array(t.fault_events.iter().map(|s| Value::String(s.clone()))),
        ),
        (
            "crash_points_swept",
            Value::Integer(i64::from(t.crash_points_swept)),
        ),
    ])
}

fn trial_from_value(v: &Value) -> Result<Trial, String> {
    let alarms = req_array(v, "alarms")?
        .iter()
        .map(alarm_from_value)
        .collect::<Result<Vec<Alarm>, String>>()?;
    let fault_events = req_array(v, "fault_events")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| "fault event must be a string".to_string())
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok(Trial {
        op: planned_op_from_value(
            v.get("op")
                .ok_or_else(|| "missing field \"op\"".to_string())?,
        )?,
        declaration: v.get("declaration").cloned().unwrap_or(Value::Null),
        outcome: outcome_from_value(
            v.get("outcome")
                .ok_or_else(|| "missing field \"outcome\"".to_string())?,
        )?,
        alarms,
        rollback_recovered: v.get("rollback_recovered").and_then(Value::as_bool),
        sim_seconds: req_i64(v, "sim_seconds")? as u64,
        fault_events,
        crash_points_swept: req_i64(v, "crash_points_swept")
            .and_then(|n| u32::try_from(n).map_err(|_| "bad crash_points_swept".to_string()))?,
    })
}

fn feature_from_render(s: &str) -> Result<CoverageFeature, String> {
    if let Some(rest) = s.strip_prefix("state:") {
        return u64::from_str_radix(rest, 16)
            .map(CoverageFeature::State)
            .map_err(|_| format!("bad state feature {s:?}"));
    }
    if let Some(rest) = s.strip_prefix("edge:") {
        let (a, b) = rest
            .split_once("->")
            .ok_or_else(|| format!("bad edge feature {s:?}"))?;
        let a = u64::from_str_radix(a, 16).map_err(|_| format!("bad edge feature {s:?}"))?;
        let b = u64::from_str_radix(b, 16).map_err(|_| format!("bad edge feature {s:?}"))?;
        return Ok(CoverageFeature::Edge(a, b));
    }
    if let Some(rest) = s.strip_prefix("outcome:") {
        return Ok(CoverageFeature::Outcome(pin_static(rest, OUTCOME_CLASSES)));
    }
    if let Some(rest) = s.strip_prefix("alarm:") {
        let pinned = AlarmKind::from_name(rest)
            .map(|k| k.name())
            .unwrap_or_else(|| intern(rest));
        return Ok(CoverageFeature::Alarm(pinned));
    }
    if let Some(rest) = s.strip_prefix("crash:") {
        let (k, verdict) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad crash feature {s:?}"))?;
        let k = k
            .parse::<u32>()
            .map_err(|_| format!("bad crash feature {s:?}"))?;
        return Ok(CoverageFeature::CrashBoundary(
            k,
            pin_static(verdict, CRASH_VERDICTS),
        ));
    }
    Err(format!("unknown coverage feature {s:?}"))
}

fn exec_record_to_value(r: &ExecRecord) -> Value {
    Value::object([
        ("index", Value::Integer(r.index as i64)),
        ("input", r.input.to_value()),
        ("mutation", Value::String(r.mutation.clone())),
        (
            "parent",
            r.parent.map_or(Value::Null, |p| Value::Integer(p as i64)),
        ),
        ("trials", Value::array(r.trials.iter().map(trial_to_value))),
        (
            "novel",
            Value::array(r.novel.iter().map(|f| Value::String(f.render()))),
        ),
        ("sim_seconds", Value::Integer(r.sim_seconds as i64)),
    ])
}

fn exec_record_from_value(v: &Value) -> Result<ExecRecord, String> {
    let parent = opt_usize(v, "parent")?;
    Ok(ExecRecord {
        index: req_usize(v, "index")?,
        input: crate::fuzz::FuzzInput::from_value(
            v.get("input")
                .ok_or_else(|| "missing field \"input\"".to_string())?,
        )?,
        mutation: req_str(v, "mutation")?.to_string(),
        parent,
        trials: req_array(v, "trials")?
            .iter()
            .map(trial_from_value)
            .collect::<Result<Vec<Trial>, String>>()?,
        novel: req_array(v, "novel")?
            .iter()
            .map(|f| {
                f.as_str()
                    .ok_or_else(|| "novel feature must be a string".to_string())
                    .and_then(feature_from_render)
            })
            .collect::<Result<Vec<CoverageFeature>, String>>()?,
        sim_seconds: req_i64(v, "sim_seconds")? as u64,
    })
}

pub(crate) fn corpus_entry_to_value(e: &CorpusEntry) -> Value {
    Value::object([
        ("id", Value::Integer(e.id as i64)),
        (
            "parent",
            e.parent.map_or(Value::Null, |p| Value::Integer(p as i64)),
        ),
        ("mutation", Value::String(e.mutation.clone())),
        ("exec", Value::Integer(e.exec as i64)),
        ("input", e.input.to_value()),
        (
            "new_features",
            Value::array(e.new_features.iter().map(|f| Value::String(f.clone()))),
        ),
    ])
}

pub(crate) fn corpus_entry_from_value(v: &Value) -> Result<CorpusEntry, String> {
    let parent = opt_usize(v, "parent")?;
    Ok(CorpusEntry {
        id: req_usize(v, "id")?,
        parent,
        mutation: req_str(v, "mutation")?.to_string(),
        exec: req_usize(v, "exec")?,
        input: crate::fuzz::FuzzInput::from_value(
            v.get("input")
                .ok_or_else(|| "missing field \"input\"".to_string())?,
        )?,
        new_features: req_array(v, "new_features")?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "feature must be a string".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_with_exact_payloads() {
        let outcomes = [
            TrialOutcome::RejectedByApi("field x: out of range".to_string()),
            TrialOutcome::RejectedByOperator,
            TrialOutcome::Converged,
            TrialOutcome::ErrorState("pod wedged: CrashLoopBackOff".to_string()),
            TrialOutcome::OperatorCrash("panic: index out of bounds".to_string()),
            TrialOutcome::Livelock,
            TrialOutcome::Stuck,
        ];
        for o in &outcomes {
            let round = outcome_from_value(&outcome_to_value(o)).expect("round trip");
            assert_eq!(&round, o);
        }
    }

    #[test]
    fn feature_rendering_round_trips() {
        let features = [
            CoverageFeature::State(0xdead_beef_0000_0001),
            CoverageFeature::Edge(1, 2),
            CoverageFeature::Outcome("converged"),
            CoverageFeature::Alarm("consistency"),
            CoverageFeature::CrashBoundary(3, "diverged"),
        ];
        for f in &features {
            let parsed = feature_from_render(&f.render()).expect("parses");
            assert_eq!(parsed, *f);
        }
    }

    fn test_manifest(kind: RunKind) -> Manifest {
        Manifest {
            version: STORE_VERSION,
            kind,
            operator: "ZooKeeperOp".to_string(),
            mode: Mode::Whitebox,
            seed: 0xfeed,
            segment_ops: if kind == RunKind::WorkStealing { 8 } else { 0 },
            execs: 24,
            batch: 8,
            max_ops: Some(14),
            differential: false,
            crash_sweep: false,
            max_seq: 6,
            crash_writes_max: 2,
            minimize: true,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acto-persist-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_round_trips_and_rejects_future_versions() {
        let m = test_manifest(RunKind::Fuzz);
        let round = Manifest::from_value(&m.to_value()).expect("round trip");
        assert_eq!(round, m);
        let mut v = m.to_value();
        if let Value::Object(fields) = &mut v {
            fields.insert("version".to_string(), Value::Integer(STORE_VERSION + 1));
        }
        assert!(Manifest::from_value(&v).is_err());
    }

    #[test]
    fn manifest_mismatch_names_the_differing_field() {
        let stored = test_manifest(RunKind::Fuzz);
        let mut resumed = stored.clone();
        resumed.seed = 0xdead;
        let err = stored.ensure_matches(&resumed).expect_err("seed differs");
        assert_eq!(err.kind, PersistErrorKind::Mismatch);
        assert!(err.detail.contains("`seed`"), "names the field: {err}");
        assert!(err.detail.contains("does not match"), "message: {err}");

        let mut resumed = stored.clone();
        resumed.max_ops = None;
        let err = stored
            .ensure_matches(&resumed)
            .expect_err("max_ops differs");
        assert!(err.detail.contains("`max_ops`"), "names the field: {err}");

        // `minimize` is an output option, not a run parameter.
        let mut resumed = stored.clone();
        resumed.minimize = !stored.minimize;
        stored
            .ensure_matches(&resumed)
            .expect("minimize is not fingerprinted");
    }

    #[test]
    fn framed_records_round_trip_and_classify_damage() {
        let json = "{\"segment\": 3, \"trials\": []}";
        let framed = frame_record(json);
        let line = framed.trim_end_matches('\n');
        let v = parse_frame(line).expect("intact frame parses");
        assert_eq!(req_usize(&v, "segment").unwrap(), 3);

        // Torn mid-payload: the frame length no longer matches.
        let torn = &line[..line.len() - 4];
        assert_eq!(parse_frame(torn).unwrap_err().0, RecoveryClass::BadFrame);

        // One flipped payload bit: caught by the checksum.
        let mut flipped = line.as_bytes().to_vec();
        let n = flipped.len();
        flipped[n - 2] ^= 0x10;
        let flipped = String::from_utf8(flipped).unwrap();
        assert_eq!(
            parse_frame(&flipped).unwrap_err().0,
            RecoveryClass::CrcMismatch
        );

        // No frame header at all (a legacy or hand-edited line).
        assert_eq!(
            parse_frame("{\"segment\": 0}").unwrap_err().0,
            RecoveryClass::BadFrame
        );
    }

    #[test]
    fn torn_tail_is_discarded_but_midfile_damage_is_classified() {
        let dir = scratch_dir("recover");
        let store = RunStore::create(&dir, &test_manifest(RunKind::WorkStealing)).expect("create");
        let good: Vec<String> = (0..3)
            .map(|i| frame_record(&format!("{{\"segment\": {i}, \"trials\": []}}")))
            .collect();

        // Intact journal + torn tail: salvaged silently under Refuse.
        std::fs::write(
            store.journal_path(),
            format!(
                "{}{}{}{}",
                good[0], good[1], good[2], "00000042 deadbeef {\"segment\": 9"
            ),
        )
        .expect("write");
        let rec = store
            .recover_journal(RunKind::WorkStealing, RecoveryPolicy::Refuse)
            .expect("torn tail never refuses");
        assert_eq!(rec.lines.len(), 3);
        assert!(rec.torn_tail);
        assert!(!rec.has_corruption());
        assert!(store.recovery_report_path().exists());

        // Mid-file CRC damage: Refuse classifies, Salvage drops only it.
        let mut corrupt = good[1].clone().into_bytes();
        let n = corrupt.len();
        corrupt[n - 3] ^= 0x01;
        let corrupt = String::from_utf8(corrupt).unwrap();
        std::fs::write(
            store.journal_path(),
            format!("{}{}{}", good[0], corrupt, good[2]),
        )
        .expect("write");
        let err = store
            .recover_journal(RunKind::WorkStealing, RecoveryPolicy::Refuse)
            .expect_err("mid-file damage refuses by default");
        assert_eq!(err.kind, PersistErrorKind::Corrupt);
        assert!(err.detail.contains("crc-mismatch"), "classified: {err}");

        let rec = store
            .recover_journal(RunKind::WorkStealing, RecoveryPolicy::Salvage)
            .expect("salvage proceeds");
        assert_eq!(rec.lines.len(), 2, "only the damaged record is dropped");
        assert_eq!(rec.quarantined.len(), 1);
        assert_eq!(rec.quarantined[0].class, RecoveryClass::CrcMismatch);

        // Fuzz stores truncate at the first damage instead.
        let rec = store
            .recover_journal(RunKind::Fuzz, RecoveryPolicy::Salvage)
            .expect("salvage proceeds");
        assert_eq!(rec.lines.len(), 1, "rounds after the damage are dropped");
        assert_eq!(rec.dropped_dependent, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_freezes_the_store_and_counts_boundaries() {
        let dir = scratch_dir("crash");
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: 7,
            crash_at: Some(7), // dir, journal, manifest x4, then the first append
            ..IoFaultPlan::default()
        });
        let store = RunStore::create_io(&dir, &test_manifest(RunKind::WorkStealing), io.clone())
            .expect("create survives (crash is later)");
        let journal = store.open_journal_append().expect("open");
        let rec = frame_record("{\"segment\": 0, \"trials\": []}");
        let err = store
            .io
            .append(&journal, &store.journal_path(), &rec)
            .expect_err("append hits the crash boundary");
        assert_eq!(err.kind, PersistErrorKind::InjectedCrash);
        assert!(io.stats().crashed);
        // The torn prefix is strictly shorter than the record.
        let on_disk = std::fs::read_to_string(store.journal_path()).expect("read");
        assert!(on_disk.len() < rec.len());
        // Every later mutation short-circuits without touching disk.
        let err = store
            .io
            .append(&journal, &store.journal_path(), &rec)
            .expect_err("store is dead");
        assert_eq!(err.kind, PersistErrorKind::InjectedCrash);
        assert_eq!(
            std::fs::read_to_string(store.journal_path()).expect("read"),
            on_disk,
            "the disk stays frozen exactly as the kill left it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_errors_are_absorbed_by_backoff() {
        let dir = scratch_dir("transient");
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: 7,
            transient_at: [2u64, 4].into_iter().collect(),
            ..IoFaultPlan::default()
        });
        let store = RunStore::create_io(&dir, &test_manifest(RunKind::WorkStealing), io.clone())
            .expect("transient faults must not fail the create");
        assert!(store.manifest_path().exists());
        let stats = io.stats();
        assert!(
            stats.retries >= 2,
            "both injected faults retried: {stats:?}"
        );
        assert!(!stats.crashed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let dir = scratch_dir(&format!("flip-{seed}"));
            let io = StoreIo::with_plan(IoFaultPlan {
                seed,
                flip_at: Some(7),
                ..IoFaultPlan::default()
            });
            let store = RunStore::create_io(&dir, &test_manifest(RunKind::WorkStealing), io)
                .expect("create");
            let journal = store.open_journal_append().expect("open");
            store.append_record(&journal, &Value::object([("segment", Value::Integer(0))]));
            let raw = std::fs::read_to_string(store.journal_path()).expect("read");
            let _ = std::fs::remove_dir_all(&dir);
            raw
        };
        let a = run(41);
        let b = run(41);
        assert_eq!(a, b, "equal seeds flip the same bit");
        let clean = frame_record(&crdspec::json::to_string(&Value::object([(
            "segment",
            Value::Integer(0),
        )])));
        assert_ne!(a, clean, "the flip corrupted the record");
        assert!(
            parse_frame(a.trim_end_matches('\n')).is_err(),
            "the frame catches the flip"
        );
    }
}
