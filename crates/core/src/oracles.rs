//! Acto's automated test oracles (paper §5.3).
//!
//! After every converged transition the campaign consults four oracles:
//!
//! - **Regular error checks**: operator panics in the logs, explicit
//!   managed-system error states, pods stuck in failure reasons, and
//!   convergence timeouts.
//! - **Consistency oracle** (§5.3.1): does the system state reflect the
//!   declaration? Two sub-checks: (a) the declared change must cause *some*
//!   system-state transition (a silently ignored property indicates the
//!   operator's view diverging from the platform's), and (b) declared
//!   values must match the correspondingly named fields in state-object
//!   spec sections, labels, annotations, and configuration data.
//! - **Differential oracle for normal transitions** (§5.3.2): by level
//!   triggering, the state reached via history `S_{i-1} → S_i` must match
//!   the state reached fresh, `S_0 → S'_i`; deterministic fields are
//!   compared after masking.
//! - **Differential oracle for rollback transitions**: after an error
//!   state, rolling back to `D_{i-1}` must restore the pre-error state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crdspec::{diff, DiffEntry, DiffKind, Path, Value};
use managed::Health;
use operators::{Composition, Instance, InterferenceEvent};
use simkube::cluster::LogLevel;
use simkube::pmap::DiffItem;

use crate::report::Alarm;

/// Which oracle raised an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlarmKind {
    /// Consistency oracle (declaration vs state objects).
    Consistency,
    /// Differential oracle on a normal state transition.
    DifferentialNormal,
    /// Differential oracle on a rollback transition.
    DifferentialRollback,
    /// Regular error check (exception, error code, crash, timeout).
    ErrorCheck,
    /// Recovery oracle: the system failed to re-converge to its pre-fault
    /// state after injected faults cleared.
    Recovery,
    /// Crash-consistency oracle: after an operator crash at write boundary
    /// *k* plus a restart, the system failed to reconverge to the
    /// uninterrupted reference end state.
    CrashConsistency,
    /// Composition oracle: operators sharing one cluster reached into each
    /// other's namespaces, starved each other on shared nodes, or degraded
    /// a bystander member during another member's transition.
    Composition,
}

impl AlarmKind {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            AlarmKind::Consistency => "consistency",
            AlarmKind::DifferentialNormal => "differential-normal",
            AlarmKind::DifferentialRollback => "differential-rollback",
            AlarmKind::ErrorCheck => "error-check",
            AlarmKind::Recovery => "recovery",
            AlarmKind::CrashConsistency => "crash-consistency",
            AlarmKind::Composition => "composition",
        }
    }

    /// Inverse of [`AlarmKind::name`], used when deserializing persisted
    /// run journals.
    pub fn from_name(name: &str) -> Option<AlarmKind> {
        Some(match name {
            "consistency" => AlarmKind::Consistency,
            "differential-normal" => AlarmKind::DifferentialNormal,
            "differential-rollback" => AlarmKind::DifferentialRollback,
            "error-check" => AlarmKind::ErrorCheck,
            "recovery" => AlarmKind::Recovery,
            "crash-consistency" => AlarmKind::CrashConsistency,
            "composition" => AlarmKind::Composition,
            _ => return None,
        })
    }
}

pub use simkube::{mask_value, SnapEntry, MASKED_FIELDS};

/// A state snapshot: object id (`kind/ns/name`) to its [`SnapEntry`], in
/// id order.
///
/// It is a clone of the store's [`simkube::StateIndex`], so taking one is
/// O(1), and [`StateSnapshot::diff`] skips every subtree two snapshots
/// share: comparing them costs O(objects that differ), not O(objects).
#[derive(Debug, Clone, Default)]
pub struct StateSnapshot(simkube::StateIndex);

/// One object on which two snapshots differ, from [`StateSnapshot::diff`].
#[derive(Debug, Clone, Copy)]
pub enum SnapDelta<'a> {
    /// Only in the left snapshot.
    Left(&'a str, &'a SnapEntry),
    /// Only in the right snapshot.
    Right(&'a str, &'a SnapEntry),
    /// In both, as different store objects (their masked values may
    /// still be equal).
    Both(&'a str, &'a SnapEntry, &'a SnapEntry),
}

impl StateSnapshot {
    /// Entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SnapEntry)> {
        self.0.iter().map(|(id, entry)| (id, &**entry))
    }

    /// Entries from the first id `>= from`, in id order.
    pub fn range_from<'a>(
        &'a self,
        from: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a SnapEntry)> {
        self.0
            .range_from_by(move |id| id.as_str().cmp(from))
            .map(|(id, entry)| (id, &**entry))
    }

    /// Object ids in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.0.keys()
    }

    /// The entry for `id`.
    pub fn get(&self, id: &str) -> Option<&SnapEntry> {
        self.0.get(id).map(|entry| &**entry)
    }

    /// Whether `id` is in the snapshot.
    pub fn contains_key(&self, id: &str) -> bool {
        self.0.contains_key(id)
    }

    /// Adds or replaces an entry.
    pub fn insert(&mut self, id: String, entry: SnapEntry) {
        self.0.insert(id, Arc::new(entry));
    }

    /// Removes an entry, returning whether it was present.
    pub fn remove(&mut self, id: &str) -> bool {
        self.0.remove(id).is_some()
    }

    /// The objects on which `self` (left) and `other` (right) differ, in
    /// id order: ids on one side only, and ids whose entries are not the
    /// same store object. Shared subtrees and shared entries are skipped
    /// unvisited; see [`simkube::pmap::Diff`].
    pub fn diff<'a>(&'a self, other: &'a StateSnapshot) -> impl Iterator<Item = SnapDelta<'a>> {
        self.0.diff(&other.0).filter_map(|item| match item {
            DiffItem::Left(id, e) => Some(SnapDelta::Left(id, e)),
            DiffItem::Right(id, e) => Some(SnapDelta::Right(id, e)),
            DiffItem::Both(_, l, r) if Arc::ptr_eq(l, r) || l.same_object(r) => None,
            DiffItem::Both(id, l, r) => Some(SnapDelta::Both(id, l, r)),
        })
    }
}

impl SnapDelta<'_> {
    /// The object id.
    pub fn id(&self) -> &str {
        match *self {
            SnapDelta::Left(id, _) | SnapDelta::Right(id, _) | SnapDelta::Both(id, ..) => id,
        }
    }
}

impl From<simkube::StateIndex> for StateSnapshot {
    fn from(index: simkube::StateIndex) -> StateSnapshot {
        StateSnapshot(index)
    }
}

impl FromIterator<(String, SnapEntry)> for StateSnapshot {
    fn from_iter<I: IntoIterator<Item = (String, SnapEntry)>>(iter: I) -> StateSnapshot {
        let mut snapshot = StateSnapshot::default();
        for (id, entry) in iter {
            snapshot.insert(id, entry);
        }
        snapshot
    }
}

/// Whether `pre` and `post` differ on any object whose id does not start
/// with `skip`: an id on one side only, or unequal masked values.
pub(crate) fn changed_outside(pre: &StateSnapshot, post: &StateSnapshot, skip: &str) -> bool {
    pre.diff(post)
        .filter(|delta| !delta.id().starts_with(skip))
        .any(|delta| match delta {
            SnapDelta::Both(_, l, r) => l.masked() != r.masked(),
            SnapDelta::Left(..) | SnapDelta::Right(..) => true,
        })
}

/// The alarms of a comparing oracle, from the deltas between `left` (the
/// reference side) and `right`: one per differing masked field of a
/// changed object and one per lost object, in id order, then — when
/// `appeared` is given — one per object only on the right, in id order.
/// Retained persistent volume claims are skipped: the platform keeps them
/// by design.
fn compare(
    kind: AlarmKind,
    left: &StateSnapshot,
    right: &StateSnapshot,
    changed: impl Fn(&str, &DiffEntry) -> String,
    lost: impl Fn(&str) -> String,
    appeared: Option<&dyn Fn(&str) -> String>,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    let mut appeared_alarms = Vec::new();
    for delta in left.diff(right) {
        match delta {
            d if d.id().starts_with("PersistentVolumeClaim/") => {}
            SnapDelta::Both(id, l, r) => alarms.extend(
                diff(l.masked(), r.masked())
                    .iter()
                    .map(|entry| Alarm::new(kind, changed(id, entry))),
            ),
            SnapDelta::Left(id, _) => alarms.push(Alarm::new(kind, lost(id))),
            SnapDelta::Right(id, _) => {
                if let Some(appeared) = appeared {
                    appeared_alarms.push(Alarm::new(kind, appeared(id)));
                }
            }
        }
    }
    alarms.extend(appeared_alarms);
    alarms
}

/// An unmasked snapshot: object id to raw rendered value.
pub type RawSnapshot = BTreeMap<String, Value>;

/// A user-provided, domain-specific oracle (paper §5.3: "Acto also has an
/// interface to allow users to add custom oracles, e.g. domain-specific
/// oracles to check managed systems").
///
/// Custom oracles run after the built-in ones on every converged trial and
/// see both the oracle context and the live instance (for stronger
/// managed-system observability than state objects provide).
pub trait CustomOracle: Send + Sync {
    /// The oracle's name (appears in alarm details).
    fn name(&self) -> &str;

    /// Checks one converged transition; returned alarms join the trial's.
    fn check(&self, ctx: &OracleContext<'_>, instance: &Instance) -> Vec<Alarm>;
}

/// Context handed to oracles for one trial.
pub struct OracleContext<'a> {
    /// The property changed by the trial (schema path form).
    pub property: &'a Path,
    /// The value the property was set to (`Null` = removed).
    pub declared: &'a Value,
    /// The full declaration submitted.
    pub declaration: &'a Value,
    /// Masked state before the operation.
    pub pre_state: &'a StateSnapshot,
    /// Masked state after convergence.
    pub post_state: &'a StateSnapshot,
    /// The CR object id prefix (excluded from matching).
    pub cr_id: &'a str,
}

/// Takes a masked snapshot of an instance's state objects: an O(1) clone
/// of the store's state index. Masked values render lazily, once per
/// object version, and only for objects an oracle compares by value.
pub fn masked_snapshot(instance: &Instance) -> StateSnapshot {
    instance.state_handles().into()
}

/// Counts the deterministic (kept) and masked leaf fields of a snapshot —
/// the denominator behind the paper's "71.4%–80.5% of all fields are
/// deterministic".
pub fn field_determinism(snapshot_raw: &RawSnapshot) -> (usize, usize) {
    let mut kept = 0usize;
    let mut masked = 0usize;
    for v in snapshot_raw.values() {
        for path in v.leaf_paths() {
            let is_masked = path
                .steps()
                .iter()
                .any(|s| matches!(s, crdspec::Step::Key(k) if MASKED_FIELDS.contains(&k.as_str())));
            if is_masked {
                masked += 1;
            } else {
                kept += 1;
            }
        }
    }
    (kept, masked)
}

/// Regular error checks over the instance after convergence.
pub fn error_checks(instance: &Instance, since: u64) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    if instance.operator_crashed() {
        let detail = instance
            .cluster
            .logs()
            .iter()
            .rev()
            .find(|l| l.level == LogLevel::Panic)
            .map(|l| l.message.clone())
            .unwrap_or_else(|| "operator crash".to_string());
        alarms.push(Alarm::new(
            AlarmKind::ErrorCheck,
            format!("operator panic: {detail}"),
        ));
    }
    if let Some(reason) = instance.last_health.reason() {
        if matches!(instance.last_health, managed::Health::Down(_)) {
            alarms.push(Alarm::new(
                AlarmKind::ErrorCheck,
                format!("managed system down: {reason}"),
            ));
        }
    }
    // Pods stuck in explicit failure reasons.
    for (name, _phase, _ready, reason) in instance.pod_failures() {
        alarms.push(Alarm::new(
            AlarmKind::ErrorCheck,
            format!("pod {name} in error state: {reason}"),
        ));
    }
    // Unexpected error-level log lines (excluding graceful rejections,
    // which are counted separately).
    let _ = since;
    alarms
}

/// Returns `true` when the operator logged a graceful rejection during the
/// window (an intentional refusal, not a bug signal).
pub fn operator_rejected(instance: &Instance, since: u64) -> bool {
    instance
        .cluster
        .error_logs_since(since)
        .iter()
        .any(|l| l.level == LogLevel::Error && l.source == instance.operator().name())
}

/// Consistency sub-check (a): the declared change must cause some system
/// state transition. Compares masked pre/post states excluding the CR
/// itself.
pub fn transition_occurred(ctx: &OracleContext<'_>) -> bool {
    changed_outside(ctx.pre_state, ctx.post_state, ctx.cr_id)
}

/// Values compare as consistent when they are structurally equal, equal as
/// quantities, or equal after string rendering (config maps store strings).
fn values_match(declared: &Value, observed: &Value) -> bool {
    if crdspec::diff::semantically_equal(declared, observed) {
        return true;
    }
    let render = |v: &Value| -> String {
        match v {
            Value::String(s) => s.clone(),
            other => other.to_string(),
        }
    };
    let (d, o) = (render(declared), render(observed));
    if d == o {
        return true;
    }
    if let (Ok(dq), Ok(oq)) = (
        d.parse::<simkube::Quantity>(),
        o.parse::<simkube::Quantity>(),
    ) {
        return dq == oq;
    }
    false
}

/// Returns `true` when a declared value and an observed field are of
/// comparable shapes: same scalar class, or the observed field lives in
/// config-map `data` (where everything is stringly typed).
fn type_compatible(declared: &Value, observed: &Value, observed_path: &Path) -> bool {
    let in_config_data = matches!(
        observed_path.steps().first(),
        Some(crdspec::Step::Key(k)) if k == "data"
    );
    if in_config_data {
        return true;
    }
    matches!(
        (declared, observed),
        (Value::Bool(_), Value::Bool(_))
            | (
                Value::Integer(_) | Value::Float(_),
                Value::Integer(_) | Value::Float(_)
            )
            | (Value::String(_), Value::String(_))
            | (Value::Array(_), Value::Array(_))
            | (Value::Object(_), Value::Object(_))
    )
}

/// Collects candidate fields in the post-state whose final key matches
/// `key` (case-insensitive), searching spec sections, labels, annotations,
/// and config-map data. The CR itself is excluded.
fn candidate_fields<'s>(
    snapshot: &'s StateSnapshot,
    cr_id: &str,
    key: &str,
) -> Vec<(&'s str, Path, &'s Value)> {
    let needle = key.to_ascii_lowercase();
    let mut out = Vec::new();
    // The CR itself, cluster infrastructure (nodes), and retained volume
    // claims (platform-kept artifacts of past declarations) are not
    // reflections of the current declaration; claim templates on workloads
    // carry the declared values instead. Node ids are one contiguous run,
    // `Node/` up to `Node0` (`'0'` follows `'/'`), which the scan seeks past.
    let before_nodes = snapshot.iter().take_while(|(id, _)| id.as_str() < "Node/");
    for (obj_id, entry) in before_nodes.chain(snapshot.range_from("Node0")) {
        if obj_id.starts_with(cr_id) || obj_id.starts_with("PersistentVolumeClaim/") {
            continue;
        }
        for section in ["spec", "metadata"] {
            let Some(root) = entry.masked().get(section) else {
                continue;
            };
            for leaf in root.leaf_paths() {
                let last = leaf
                    .last_key()
                    .map(str::to_ascii_lowercase)
                    .unwrap_or_default();
                if last == needle {
                    // Metadata matches only under labels/annotations.
                    if section == "metadata" {
                        let head = leaf.steps().first();
                        let ok = matches!(
                            head,
                            Some(crdspec::Step::Key(k)) if k == "labels" || k == "annotations"
                        );
                        if !ok {
                            continue;
                        }
                    }
                    if let Some(v) = root.get_path(&leaf) {
                        out.push((obj_id.as_str(), leaf, v));
                    }
                }
            }
        }
    }
    out
}

/// Consistency sub-check (b): declared leaf values must match
/// correspondingly named state-object fields.
///
/// For composite declared values every leaf is checked individually;
/// entries removed relative to `previous` are checked for staleness (the
/// deletion-path bugs of §6.1.4). A leaf with no matching field anywhere is
/// skipped — insufficient observability, not a mismatch.
pub fn consistency_check(ctx: &OracleContext<'_>, previous: Option<&Value>) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    // Flatten the declared value into leaves relative to the property.
    let leaves: Vec<(Path, Value)> = match ctx.declared {
        Value::Object(_) | Value::Array(_) => ctx
            .declared
            .leaf_paths()
            .into_iter()
            .filter_map(|p| ctx.declared.get_path(&p).map(|v| (p, v.clone())))
            .collect(),
        other => vec![(Path::root(), other.clone())],
    };
    for (leaf, value) in &leaves {
        if value.is_null() {
            continue;
        }
        let key = leaf
            .last_key()
            .map(str::to_string)
            .or_else(|| ctx.property.last_key().map(str::to_string));
        let Some(key) = key else { continue };
        let candidates: Vec<_> = candidate_fields(ctx.post_state, ctx.cr_id, &key)
            .into_iter()
            .filter(|(_, path, v)| type_compatible(value, v, path))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        // Candidates that disagree among themselves cannot be localized to
        // this property (e.g. `replicas` fields of sibling components).
        let mut distinct: Vec<&Value> = Vec::new();
        for (_, _, v) in &candidates {
            if !distinct.iter().any(|d| values_match(d, v)) {
                distinct.push(v);
            }
        }
        if distinct.len() > 1 {
            continue;
        }
        if !candidates.iter().any(|(_, _, v)| values_match(value, v)) {
            let (obj, path, observed) = &candidates[0];
            alarms.push(Alarm::new(
                AlarmKind::Consistency,
                format!(
                    "declared {}{}{} = {} but {} has {} = {}",
                    ctx.property,
                    if leaf.is_root() { "" } else { "." },
                    leaf,
                    value,
                    obj,
                    path,
                    observed
                ),
            ));
        }
    }
    // Deletion staleness: keys present before but not in the declaration
    // must disappear from the state.
    if let Some(prev) = previous {
        let prev_leaves: Vec<(Path, Value)> = match prev {
            Value::Object(_) | Value::Array(_) => prev
                .leaf_paths()
                .into_iter()
                .filter_map(|p| prev.get_path(&p).map(|v| (p, v.clone())))
                .collect(),
            _ => Vec::new(),
        };
        let declared_keys: Vec<String> = leaves
            .iter()
            .filter_map(|(p, _)| p.last_key().map(str::to_string))
            .collect();
        for (leaf, old_value) in prev_leaves {
            let Some(key) = leaf.last_key() else { continue };
            if declared_keys.iter().any(|k| k == key) {
                continue;
            }
            if old_value.is_null() {
                continue;
            }
            // The key was removed: it must no longer carry the old value
            // anywhere a sibling's key matches.
            let stale: Vec<_> = candidate_fields(ctx.post_state, ctx.cr_id, key)
                .into_iter()
                .filter(|(_, _, v)| values_match(&old_value, v))
                .collect();
            if let Some((obj, path, _)) = stale.first() {
                alarms.push(Alarm::new(
                    AlarmKind::Consistency,
                    format!(
                        "removed {}.{} = {} still present at {} {}",
                        ctx.property, leaf, old_value, obj, path
                    ),
                ));
            }
        }
    }
    alarms
}

/// Differential oracle for normal transitions: compares the state reached
/// through campaign history against the state a fresh deployment reaches
/// for the same declaration.
///
/// Retained persistent volume claims are tolerated (the platform keeps
/// them by design); any other object present on one side only, or any
/// differing field on common objects, raises an alarm.
pub fn differential_normal(campaign: &StateSnapshot, fresh: &StateSnapshot) -> Vec<Alarm> {
    compare(
        AlarmKind::DifferentialNormal,
        campaign,
        fresh,
        |id, entry| match &entry.kind {
            DiffKind::Changed { left, right } => format!(
                "{id} {}: history-reached {} vs fresh {}",
                entry.path, left, right
            ),
            DiffKind::OnlyLeft(v) => format!("{id} {}: only after history = {v}", entry.path),
            DiffKind::OnlyRight(v) => {
                format!("{id} {}: only in fresh deployment = {v}", entry.path)
            }
        },
        |id| format!("{id} exists after history but not in a fresh deployment"),
        Some(&|id| format!("{id} missing after history (fresh deployment has it)")),
    )
}

/// Differential oracle for rollback transitions: after an error state,
/// rolling back must restore the pre-error state.
pub fn differential_rollback(
    before_error: &StateSnapshot,
    after_rollback: &StateSnapshot,
    healthy: bool,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    if !healthy {
        alarms.push(Alarm::new(
            AlarmKind::DifferentialRollback,
            "system still unhealthy after rollback".to_string(),
        ));
    }
    alarms.extend(compare(
        AlarmKind::DifferentialRollback,
        before_error,
        after_rollback,
        |id, entry| format!("{id} {}: not restored by rollback", entry.path),
        |id| format!("{id} lost across rollback"),
        None,
    ));
    alarms
}

/// Recovery oracle for error-state campaign starts: after injected faults
/// fire and clear, the operator must restore the managed system to the
/// state it held before the faults — same objects, same deterministic
/// fields, healthy and converged.
pub fn recovery_check(
    before_fault: &StateSnapshot,
    after_recovery: &StateSnapshot,
    healthy: bool,
    converged: bool,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    if !converged {
        alarms.push(Alarm::new(
            AlarmKind::Recovery,
            "system did not converge after faults cleared".to_string(),
        ));
    }
    if !healthy {
        alarms.push(Alarm::new(
            AlarmKind::Recovery,
            "system still unhealthy after faults cleared".to_string(),
        ));
    }
    alarms.extend(compare(
        AlarmKind::Recovery,
        before_fault,
        after_recovery,
        |id, entry| format!("{id} {}: not restored after faults", entry.path),
        |id| format!("{id} lost across fault recovery"),
        Some(&|id| format!("{id} appeared during fault recovery")),
    ));
    alarms
}

/// Crash-consistency oracle: a reconcile pass interrupted by a process
/// crash after its *k*-th state-changing write, followed by a restart, must
/// still reconverge to the same masked end state as the uninterrupted
/// reference run — level-triggered reconciliation promises exactly that.
///
/// Divergence attributes to non-idempotent or non-atomic reconcile logic
/// (a half-applied pass the restarted process cannot complete or repair).
/// The replay's store descends from the same checkpoint as the
/// reference's, so the snapshots share every object neither run rewrote
/// and the comparison costs O(crash-induced delta), not O(cluster size).
pub fn crash_consistency_check(
    crash_at: u32,
    reference: &StateSnapshot,
    after_restart: &StateSnapshot,
    healthy: bool,
    converged: bool,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    if !converged {
        alarms.push(Alarm::new(
            AlarmKind::CrashConsistency,
            format!("crash at write {crash_at}: system did not reconverge after restart"),
        ));
    }
    if !healthy {
        alarms.push(Alarm::new(
            AlarmKind::CrashConsistency,
            format!("crash at write {crash_at}: system still unhealthy after restart"),
        ));
    }
    alarms.extend(compare(
        AlarmKind::CrashConsistency,
        reference,
        after_restart,
        |id, entry| match &entry.kind {
            DiffKind::Changed { left, right } => format!(
                "crash at write {crash_at}: {id} {} diverged: reference {} vs after restart {}",
                entry.path, left, right
            ),
            DiffKind::OnlyLeft(v) => format!(
                "crash at write {crash_at}: {id} {} missing after restart (reference has {v})",
                entry.path
            ),
            DiffKind::OnlyRight(v) => format!(
                "crash at write {crash_at}: {id} {} only after restart = {v}",
                entry.path
            ),
        },
        |id| format!("crash at write {crash_at}: {id} lost across crash/restart"),
        Some(&|id| format!("crash at write {crash_at}: {id} appeared only in the crashed run")),
    ));
    alarms
}

/// Composition oracle: cross-operator checks over a multi-operator
/// composition after one member's transition converged (or failed to).
///
/// Three classes of violation:
/// - **Garbage-collection interference**: a member deleted an object in
///   another member's namespace (e.g. an overly broad cleanup pass
///   collecting a sibling's live configuration — the seeded
///   `SEED-COMPOSE-1` shape).
/// - **Write interference**: a member created or modified objects in a
///   sibling's namespace through the shared control plane.
/// - **Recovery-ordering / collateral damage**: a bystander member whose
///   declaration the trial did not touch left `Healthy` during the acting
///   member's transition, or a bystander member's pod *newly* became
///   `Unschedulable` on the shared nodes during that transition. The
///   acting member starving its own pods is the single-operator error
///   ladder's territory (a misoperation probe requesting absurd resources
///   must not read as cross-operator interference), and a condition that
///   predates the transition was already reported when it arose —
///   `unschedulable_before` (see [`unschedulable_pods`]) carries the
///   pre-transition set.
pub fn composition_check(
    comp: &Composition,
    interference: &[InterferenceEvent],
    acting_member: usize,
    healths_before: &[Health],
    unschedulable_before: &BTreeSet<(String, String)>,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    // Interference repeats every reconcile pass while the conflict
    // persists; alarm once per (actor, object, verb).
    let mut seen: BTreeSet<(&str, &str, bool)> = BTreeSet::new();
    for ev in interference {
        if !seen.insert((&ev.actor, &ev.key, ev.deleted)) {
            continue;
        }
        let (class, action) = if ev.deleted {
            ("cross-operator GC", "deleted")
        } else {
            ("cross-operator write", "wrote")
        };
        alarms.push(Alarm::new(
            AlarmKind::Composition,
            format!(
                "{class}: {} {action} {} owned by the {} member",
                ev.actor, ev.key, ev.victim_namespace
            ),
        ));
    }
    // Bystander health: a member whose declaration was untouched must not
    // leave Healthy during another member's transition (a dependency of
    // its managed system recovered in the wrong order, or not at all).
    for (i, member) in comp.members().iter().enumerate() {
        if i == acting_member {
            continue;
        }
        let was_healthy = healths_before
            .get(i)
            .map(Health::is_healthy)
            .unwrap_or(true);
        if was_healthy && !member.last_health.is_healthy() {
            alarms.push(Alarm::new(
                AlarmKind::Composition,
                format!(
                    "collateral damage: member {i} ({}) went {:?} during a transition on member {acting_member}",
                    member.operator().name(),
                    member.last_health
                ),
            ));
        }
    }
    // Shared-node starvation: a bystander pod that was scheduled (or
    // absent) before this transition and sits Unschedulable after it —
    // the acting member's requests squeezed a sibling off the shared
    // nodes.
    for (i, member) in comp.members().iter().enumerate() {
        if i == acting_member {
            continue;
        }
        for (name, _, _, reason) in comp.cluster().pod_summaries(&member.namespace) {
            if reason == "Unschedulable"
                && !unschedulable_before.contains(&(member.namespace.clone(), name.clone()))
            {
                alarms.push(Alarm::new(
                    AlarmKind::Composition,
                    format!(
                        "shared-node interference: pod {}/{name} of member {i} unschedulable on the shared cluster",
                        member.namespace
                    ),
                ));
            }
        }
    }
    alarms
}

/// The set of `(namespace, pod name)` pairs currently Unschedulable across
/// all members — captured before a transition so [`composition_check`]
/// alarms only on conditions that transition created.
pub fn unschedulable_pods(comp: &Composition) -> BTreeSet<(String, String)> {
    let mut set = BTreeSet::new();
    for member in comp.members() {
        for (name, _, _, reason) in comp.cluster().pod_summaries(&member.namespace) {
            if reason == "Unschedulable" {
                set.insert((member.namespace.clone(), name));
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: &[(&str, Value)]) -> StateSnapshot {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), SnapEntry::from_value(v.clone())))
            .collect()
    }

    fn raw_snapshot(entries: &[(&str, Value)]) -> RawSnapshot {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn obj(spec: Value) -> Value {
        Value::object([
            ("kind", Value::from("StatefulSet")),
            (
                "metadata",
                Value::object([("labels", Value::empty_object())]),
            ),
            ("spec", spec),
            ("status", Value::empty_object()),
        ])
    }

    #[test]
    fn masking_removes_nondeterministic_fields() {
        let v = Value::object([
            ("uid", Value::from(3)),
            ("spec", Value::object([("replicas", Value::from(2))])),
            (
                "status",
                Value::object([
                    ("nodeName", Value::from("node-1")),
                    ("ready", Value::from(true)),
                ]),
            ),
        ]);
        let masked = mask_value(&v);
        assert!(masked.get("uid").is_none());
        assert!(masked
            .get_path(&"status.nodeName".parse().unwrap())
            .is_none());
        assert!(masked.get_path(&"status.ready".parse().unwrap()).is_some());
    }

    #[test]
    fn consistency_flags_value_mismatch() {
        let post = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(2))])),
        )]);
        let pre = snapshot(&[]);
        let property: Path = "replicas".parse().unwrap();
        let declared = Value::from(5);
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/test-cluster",
        };
        let alarms = consistency_check(&ctx, None);
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].detail.contains("declared replicas"));
        // A matching field silences the oracle.
        let post = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(5))])),
        )]);
        let ctx = OracleContext {
            post_state: &post,
            ..ctx
        };
        assert!(consistency_check(&ctx, None).is_empty());
    }

    #[test]
    fn consistency_tolerates_unobservable_properties() {
        let post = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(2))])),
        )]);
        let pre = snapshot(&[]);
        let property: Path = "internalKnob".parse().unwrap();
        let declared = Value::from("anything");
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        assert!(consistency_check(&ctx, None).is_empty());
    }

    #[test]
    fn consistency_quantities_compare_canonically() {
        assert!(values_match(&Value::from("1024Mi"), &Value::from("1Gi")));
        assert!(values_match(&Value::from(3), &Value::from("3")));
        assert!(values_match(&Value::from(true), &Value::from("true")));
        assert!(!values_match(&Value::from("2Gi"), &Value::from("1Gi")));
    }

    #[test]
    fn consistency_detects_stale_deleted_entries() {
        // The label `team` was removed from the declaration but the pod
        // still carries it.
        let post = snapshot(&[(
            "Pod/acto/app-0",
            Value::object([
                ("kind", Value::from("Pod")),
                (
                    "metadata",
                    Value::object([(
                        "labels",
                        Value::object([("team", Value::from("infra")), ("app", Value::from("a"))]),
                    )]),
                ),
                ("spec", Value::empty_object()),
                ("status", Value::empty_object()),
            ]),
        )]);
        let pre = snapshot(&[]);
        let property: Path = "podLabels".parse().unwrap();
        let declared = Value::empty_object();
        let previous = Value::object([("team", Value::from("infra"))]);
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        let alarms = consistency_check(&ctx, Some(&previous));
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].detail.contains("still present"));
    }

    #[test]
    fn differential_normal_flags_divergence_and_tolerates_pvcs() {
        let campaign = snapshot(&[
            (
                "StatefulSet/acto/app",
                obj(Value::object([("replicas", Value::from(3))])),
            ),
            (
                "PersistentVolumeClaim/acto/data-app-3",
                obj(Value::empty_object()),
            ),
            ("Deployment/acto/stale-proxy", obj(Value::empty_object())),
        ]);
        let fresh = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(3))])),
        )]);
        let alarms = differential_normal(&campaign, &fresh);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(alarms[0].detail.contains("stale-proxy"));
        // Field-level divergence on common objects.
        let fresh = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(4))])),
        )]);
        let campaign = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(3))])),
        )]);
        let alarms = differential_normal(&campaign, &fresh);
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].detail.contains("history-reached"));
    }

    #[test]
    fn rollback_oracle_requires_restoration_and_health() {
        let before = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("image", Value::from("v1"))])),
        )]);
        let after_ok = before.clone();
        assert!(differential_rollback(&before, &after_ok, true).is_empty());
        let after_bad = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("image", Value::from("v2"))])),
        )]);
        let alarms = differential_rollback(&before, &after_bad, true);
        assert_eq!(alarms.len(), 1);
        let alarms = differential_rollback(&before, &after_ok, false);
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].detail.contains("unhealthy"));
    }

    #[test]
    fn recovery_oracle_requires_full_restoration() {
        let before = snapshot(&[
            (
                "StatefulSet/acto/app",
                obj(Value::object([("replicas", Value::from(3))])),
            ),
            (
                "PersistentVolumeClaim/acto/data-app-0",
                obj(Value::empty_object()),
            ),
        ]);
        // Full restoration (PVC drift is tolerated in both directions).
        let mut after_ok = before.clone();
        after_ok.remove("PersistentVolumeClaim/acto/data-app-0");
        after_ok.insert(
            "PersistentVolumeClaim/acto/data-app-1".to_string(),
            SnapEntry::from_value(obj(Value::empty_object())),
        );
        assert!(recovery_check(&before, &after_ok, true, true).is_empty());
        // Field drift alarms.
        let after_drift = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(2))])),
        )]);
        let alarms = recovery_check(&before, &after_drift, true, true);
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].detail.contains("not restored"));
        // Lost and spurious objects alarm.
        let after_changed = snapshot(&[("Deployment/acto/ghost", obj(Value::empty_object()))]);
        let alarms = recovery_check(&before, &after_changed, true, true);
        assert_eq!(alarms.len(), 2);
        // Unhealthy or non-converged ends alarm even when state matches.
        assert_eq!(recovery_check(&before, &before, false, true).len(), 1);
        assert_eq!(recovery_check(&before, &before, true, false).len(), 1);
    }

    #[test]
    fn crash_consistency_flags_divergence_and_tolerates_pvcs() {
        let reference = snapshot(&[
            (
                "StatefulSet/acto/app",
                obj(Value::object([("replicas", Value::from(3))])),
            ),
            (
                "PersistentVolumeClaim/acto/data-app-0",
                obj(Value::empty_object()),
            ),
        ]);
        // Exact reconvergence (modulo PVC drift) is silent.
        let mut after_ok = reference.clone();
        after_ok.remove("PersistentVolumeClaim/acto/data-app-0");
        assert!(crash_consistency_check(2, &reference, &after_ok, true, true).is_empty());
        // Field drift alarms with the crash boundary in the detail.
        let after_drift = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("replicas", Value::from(2))])),
        )]);
        let alarms = crash_consistency_check(2, &reference, &after_drift, true, true);
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].detail.contains("crash at write 2"));
        // Lost and spurious objects alarm.
        let after_changed = snapshot(&[("ConfigMap/acto/zk-init-bad", obj(Value::empty_object()))]);
        let alarms = crash_consistency_check(1, &reference, &after_changed, true, true);
        assert_eq!(alarms.len(), 2);
        // Unhealthy or non-reconverged ends alarm even when state matches.
        assert_eq!(
            crash_consistency_check(1, &reference, &reference, false, true).len(),
            1
        );
        assert_eq!(
            crash_consistency_check(1, &reference, &reference, true, false).len(),
            1
        );
    }

    #[test]
    fn consistency_skips_infrastructure_and_retained_claims() {
        // A mismatching `cpu` on a Node and a mismatching `size` on a PVC
        // must not raise alarms: neither reflects the declaration.
        let post = snapshot(&[
            (
                "Node//node-0",
                Value::object([
                    ("kind", Value::from("Node")),
                    ("metadata", Value::empty_object()),
                    (
                        "spec",
                        Value::object([("capacity", Value::object([("cpu", Value::from("16"))]))]),
                    ),
                    ("status", Value::empty_object()),
                ]),
            ),
            (
                "PersistentVolumeClaim/acto/data-app-0",
                obj(Value::object([("size", Value::from("4Gi"))])),
            ),
        ]);
        let pre = snapshot(&[]);
        let property: Path = "resources.requests.cpu".parse().unwrap();
        let declared = Value::from("64");
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        assert!(consistency_check(&ctx, None).is_empty());
        let property: Path = "persistence.size".parse().unwrap();
        let declared = Value::from("64Gi");
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        assert!(consistency_check(&ctx, None).is_empty());
    }

    #[test]
    fn consistency_requires_type_compatible_candidates() {
        // Declared integer 4 must not be compared against a string-typed
        // quantity field of the same name.
        let post = snapshot(&[(
            "StatefulSet/acto/app",
            obj(Value::object([("size", Value::from("50Gi"))])),
        )]);
        let pre = snapshot(&[]);
        let property: Path = "proxysql.size".parse().unwrap();
        let declared = Value::from(4);
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        assert!(consistency_check(&ctx, None).is_empty());
        // Config-map `data` entries are stringly typed and still compare.
        let post = snapshot(&[(
            "ConfigMap/acto/app-config",
            obj(Value::object([(
                "data",
                Value::object([("size", Value::from("3"))]),
            )])),
        )]);
        let declared = Value::from(4);
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        assert_eq!(consistency_check(&ctx, None).len(), 1);
    }

    #[test]
    fn consistency_skips_disagreeing_candidates() {
        // `replicas` fields of sibling components disagree: the oracle
        // cannot localize the declared property and stays silent.
        let post = snapshot(&[
            (
                "StatefulSet/acto/app-pd",
                obj(Value::object([("replicas", Value::from(3))])),
            ),
            (
                "StatefulSet/acto/app-tidb",
                obj(Value::object([("replicas", Value::from(2))])),
            ),
        ]);
        let pre = snapshot(&[]);
        let property: Path = "pump.replicas".parse().unwrap();
        let declared = Value::from(0);
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &pre,
            post_state: &post,
            cr_id: "Widget/acto/x",
        };
        assert!(consistency_check(&ctx, None).is_empty());
    }

    #[test]
    fn differential_skips_retained_claims_entirely() {
        let campaign = snapshot(&[(
            "PersistentVolumeClaim/acto/data-0",
            obj(Value::object([("size", Value::from("2Gi"))])),
        )]);
        let fresh = snapshot(&[(
            "PersistentVolumeClaim/acto/data-0",
            obj(Value::object([("size", Value::from("8Gi"))])),
        )]);
        assert!(differential_normal(&campaign, &fresh).is_empty());
        assert!(differential_rollback(&campaign, &fresh, true).is_empty());
    }

    #[test]
    fn field_determinism_counts() {
        let raw = raw_snapshot(&[(
            "Pod/acto/p",
            Value::object([
                (
                    "metadata",
                    Value::object([("uid", Value::from(1)), ("name", Value::from("p"))]),
                ),
                (
                    "status",
                    Value::object([("nodeName", Value::from("n")), ("ready", Value::from(true))]),
                ),
            ]),
        )]);
        let (kept, masked) = field_determinism(&raw);
        assert_eq!(kept, 2);
        assert_eq!(masked, 2);
    }
}
