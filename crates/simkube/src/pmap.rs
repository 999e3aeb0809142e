//! Persistent ordered map with structural sharing.
//!
//! A hand-rolled B-tree whose nodes live behind `Arc`, so cloning the map is
//! an O(1) pointer bump and every clone shares the entire tree. Mutation uses
//! `Arc::make_mut` to copy only the nodes along the root-to-leaf path that is
//! actually touched (O(log n) small nodes), leaving the rest of the tree
//! shared with older clones. This is what makes `ObjectStore::snapshot`
//! cheap: a snapshot and its parent diverge lazily, one path at a time.
//!
//! Deliberate simplifications, fine for our workload:
//! - no underflow rebalancing on `remove`: emptied nodes are pruned and the
//!   root collapses, so the tree height never grows on delete, it just may
//!   stay taller than strictly necessary until enough keys are removed;
//! - iteration order is the key order (`K: Ord`), same as `BTreeMap`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::Arc;
use std::sync::OnceLock;

/// Max entries per leaf / max children per branch before a split.
const MAX_ENTRIES: usize = 16;

/// Result of a recursive insert: the replaced value, if any, plus an
/// optional split (separator key and the new right sibling).
type InsertResult<K, V> = (Option<V>, Option<(K, Arc<Node<K, V>>)>);

/// A tree node plus a lazily-computed digest of its subtree.
///
/// The digest cache turns the B-tree into a merkle tree for
/// [`PMap::digest_sum`]: once a subtree's digest is computed it is reused
/// until a write copies (and thereby invalidates) the path through it, so
/// re-digesting a map after k point-writes touches only the k modified
/// root-to-leaf paths. Cloning keeps the cached digest — the clone holds the
/// same content — and `touch` clears it on the copy-on-write mutation path.
#[derive(Clone)]
struct Node<K, V> {
    digest: OnceLock<u64>,
    body: Body<K, V>,
}

#[derive(Clone)]
enum Body<K, V> {
    Leaf(Vec<(K, V)>),
    Branch {
        /// `keys[i]` is the minimum key reachable under `children[i + 1]`.
        keys: Vec<K>,
        children: Vec<Arc<Node<K, V>>>,
    },
}

impl<K, V> Node<K, V> {
    fn leaf(entries: Vec<(K, V)>) -> Arc<Self> {
        Arc::new(Node {
            digest: OnceLock::new(),
            body: Body::Leaf(entries),
        })
    }

    fn branch(keys: Vec<K>, children: Vec<Arc<Node<K, V>>>) -> Arc<Self> {
        Arc::new(Node {
            digest: OnceLock::new(),
            body: Body::Branch { keys, children },
        })
    }

    /// `Arc::make_mut` plus digest-cache invalidation: every mutation path
    /// must go through here so stale subtree digests can never be observed.
    fn touch(node: &mut Arc<Self>) -> &mut Body<K, V>
    where
        K: Clone,
        V: Clone,
    {
        let inner = Arc::make_mut(node);
        inner.digest = OnceLock::new();
        &mut inner.body
    }
}

/// Persistent ordered map: `clone()` is O(1), writes copy only the touched
/// root-to-leaf path.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K: Ord + Clone + std::fmt::Debug, V: Clone + std::fmt::Debug> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Structurally-shared maps (clones, unchanged checkpoints) compare
        // in O(1).
        match (&self.root, &other.root) {
            (None, None) => return true,
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => return true,
            _ => {}
        }
        self.iter().eq(other.iter())
    }
}

impl<K: Ord + Clone, V: Clone + Eq> Eq for PMap<K, V> {}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks a key up by any borrowed form of it, like `BTreeMap::get`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match &node.body {
                Body::Leaf(entries) => {
                    return entries
                        .binary_search_by(|(k, _)| k.borrow().cmp(key))
                        .ok()
                        .map(|i| &entries[i].1);
                }
                Body::Branch { keys, children } => {
                    let idx = keys.partition_point(|sep| sep.borrow() <= key);
                    node = &children[idx];
                }
            }
        }
    }

    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.get(key).is_some()
    }

    /// Mutable access to a value; copies the path to the value's leaf if it
    /// is shared with another clone of the map. A miss copies nothing.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        // Probe first so a miss never triggers a path copy.
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut()?;
        Some(Self::get_mut_rec(root, key))
    }

    /// Descends with `Node::touch` per level. The key must exist.
    fn get_mut_rec<'a>(node: &'a mut Arc<Node<K, V>>, key: &K) -> &'a mut V {
        match Node::touch(node) {
            Body::Leaf(entries) => {
                let i = entries
                    .binary_search_by(|(k, _)| k.cmp(key))
                    .expect("get_mut_rec: key checked present");
                &mut entries[i].1
            }
            Body::Branch { keys, children } => {
                let idx = keys.partition_point(|sep| sep <= key);
                Self::get_mut_rec(&mut children[idx], key)
            }
        }
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.root.as_mut() {
            None => {
                self.root = Some(Node::leaf(vec![(key, value)]));
                self.len = 1;
                None
            }
            Some(root) => {
                let (replaced, split) = Self::insert_rec(root, key, value);
                if let Some((sep, right)) = split {
                    let left = self.root.take().unwrap();
                    self.root = Some(Node::branch(vec![sep], vec![left, right]));
                }
                if replaced.is_none() {
                    self.len += 1;
                }
                replaced
            }
        }
    }

    /// Returns (replaced value, optional split: (separator, new right sibling)).
    fn insert_rec(node: &mut Arc<Node<K, V>>, key: K, value: V) -> InsertResult<K, V> {
        match Node::touch(node) {
            Body::Leaf(entries) => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => (Some(std::mem::replace(&mut entries[i].1, value)), None),
                Err(i) => {
                    entries.insert(i, (key, value));
                    if entries.len() > MAX_ENTRIES {
                        let right = entries.split_off(entries.len() / 2);
                        let sep = right[0].0.clone();
                        (None, Some((sep, Node::leaf(right))))
                    } else {
                        (None, None)
                    }
                }
            },
            Body::Branch { keys, children } => {
                let idx = keys.partition_point(|sep| *sep <= key);
                let (replaced, split) = Self::insert_rec(&mut children[idx], key, value);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if children.len() > MAX_ENTRIES + 1 {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid + 1);
                        let sep_up = keys.pop().unwrap();
                        let right_children = children.split_off(mid + 1);
                        let sibling = Node::branch(right_keys, right_children);
                        return (replaced, Some((sep_up, sibling)));
                    }
                }
                (replaced, None)
            }
        }
    }

    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let root = self.root.as_mut()?;
        let (removed, now_empty) = Self::remove_rec(root, key);
        if removed.is_some() {
            self.len -= 1;
            if now_empty {
                self.root = None;
            } else if let Body::Branch { children, .. } = &self.root.as_ref().unwrap().body {
                if children.len() == 1 {
                    let only = children[0].clone();
                    self.root = Some(only);
                }
            }
        }
        removed
    }

    /// Returns (removed value, whether this node is now empty).
    fn remove_rec<Q: Ord + ?Sized>(node: &mut Arc<Node<K, V>>, key: &Q) -> (Option<V>, bool)
    where
        K: Borrow<Q>,
    {
        // Probe before make_mut so a miss leaves sharing intact.
        let hit = match &node.body {
            Body::Leaf(entries) => entries
                .binary_search_by(|(k, _)| k.borrow().cmp(key))
                .is_ok(),
            Body::Branch { .. } => true,
        };
        if !hit {
            return (None, false);
        }
        match Node::touch(node) {
            Body::Leaf(entries) => {
                let i = match entries.binary_search_by(|(k, _)| k.borrow().cmp(key)) {
                    Ok(i) => i,
                    Err(_) => return (None, false),
                };
                let (_, v) = entries.remove(i);
                (Some(v), entries.is_empty())
            }
            Body::Branch { keys, children } => {
                let idx = keys.partition_point(|sep| sep.borrow() <= key);
                let (removed, child_empty) = Self::remove_rec(&mut children[idx], key);
                if removed.is_some() && child_empty {
                    children.remove(idx);
                    if !keys.is_empty() {
                        keys.remove(idx.saturating_sub(1));
                    }
                }
                (removed, children.is_empty())
            }
        }
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        if let Some(root) = self.root.as_deref() {
            stack.push((root, 0));
        }
        Iter { stack }
    }

    /// Iterate entries starting from the first key for which `f` returns
    /// `Ordering::Equal` or `Ordering::Greater` (i.e. `f(k) = k.cmp(bound)`
    /// yields the usual lower-bound scan from `bound`).
    pub fn range_from_by<F: FnMut(&K) -> Ordering>(&self, mut f: F) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        let mut node = match self.root.as_deref() {
            Some(root) => root,
            None => return Iter { stack },
        };
        loop {
            match &node.body {
                Body::Leaf(entries) => {
                    let idx = entries.partition_point(|(k, _)| f(k) == Ordering::Less);
                    stack.push((node, idx));
                    return Iter { stack };
                }
                Body::Branch { keys, children } => {
                    let idx = keys.partition_point(|sep| f(sep) != Ordering::Greater);
                    stack.push((node, idx + 1));
                    node = &children[idx];
                }
            }
        }
    }

    /// Commutative digest of the whole map: the wrapping sum of
    /// `entry_digest(k, v)` over every entry.
    ///
    /// Summation (rather than an order-sensitive fold) makes the digest
    /// independent of tree shape, which lets each node cache its subtree's
    /// partial sum: unchanged subtrees — everything outside the write paths
    /// since the last call — are re-used from the cache, so the cost is
    /// O(modified paths), not O(len). It also gives cheap exclusion: callers
    /// can `wrapping_sub` the digest of entries they want to leave out.
    ///
    /// The cache is keyed by nothing: all calls against a map (and its
    /// clones, which share nodes and therefore cached digests) must use the
    /// same `entry_digest` function, and `entry_digest` must be a pure
    /// function of the entry. Mix per-entry structure into the digest (the
    /// current users hash the key and finalize with a strong mixer) so the
    /// sum doesn't collapse colliding entries.
    pub fn digest_sum<F: Fn(&K, &V) -> u64>(&self, entry_digest: &F) -> u64 {
        fn walk<K, V, F: Fn(&K, &V) -> u64>(node: &Arc<Node<K, V>>, f: &F) -> u64 {
            *node.digest.get_or_init(|| match &node.body {
                Body::Leaf(entries) => entries
                    .iter()
                    .fold(0u64, |acc, (k, v)| acc.wrapping_add(f(k, v))),
                Body::Branch { children, .. } => children
                    .iter()
                    .fold(0u64, |acc, child| acc.wrapping_add(walk(child, f))),
            })
        }
        match &self.root {
            Some(root) => walk(root, entry_digest),
            None => 0,
        }
    }

    /// Counts values shared with other clones of the map versus uniquely
    /// owned: `(shared, owned)`. A value is shared when any ancestor node is
    /// referenced by more than one tree version (structural sharing), or
    /// when `value_shared` reports the entry's value itself as shared (e.g.
    /// an `Arc` payload still referenced by a diverged snapshot).
    pub fn sharing_stats<F: Fn(&K, &V) -> bool>(&self, value_shared: F) -> (usize, usize) {
        fn walk<K, V, F: Fn(&K, &V) -> bool>(
            node: &Arc<Node<K, V>>,
            ancestor_shared: bool,
            value_shared: &F,
            shared: &mut usize,
            owned: &mut usize,
        ) {
            let node_shared = ancestor_shared || Arc::strong_count(node) > 1;
            match &node.body {
                Body::Leaf(entries) => {
                    for (k, v) in entries {
                        if node_shared || value_shared(k, v) {
                            *shared += 1;
                        } else {
                            *owned += 1;
                        }
                    }
                }
                Body::Branch { children, .. } => {
                    for child in children {
                        walk(child, node_shared, value_shared, shared, owned);
                    }
                }
            }
        }
        let mut shared = 0;
        let mut owned = 0;
        if let Some(root) = &self.root {
            walk(root, false, &value_shared, &mut shared, &mut owned);
        }
        (shared, owned)
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Walks the keys on which `self` (left) and `other` (right) may
    /// differ, in key order; see [`Diff`]. Subtrees the two maps share by
    /// pointer are skipped whole, so after k writes since a common clone
    /// the walk visits O(k · log n) entries instead of all of them.
    pub fn diff<'a>(&'a self, other: &'a PMap<K, V>) -> Diff<'a, K, V> {
        Diff {
            left: Cursor::new(self),
            right: Cursor::new(other),
        }
    }
}

/// In-order iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    /// Stack of (node, next child/entry index to visit).
    stack: Vec<(&'a Node<K, V>, usize)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, idx) = {
                let last = self.stack.last_mut()?;
                let out = (last.0, last.1);
                last.1 += 1;
                out
            };
            match &node.body {
                Body::Leaf(entries) => {
                    if let Some((k, v)) = entries.get(idx) {
                        return Some((k, v));
                    }
                    self.stack.pop();
                }
                Body::Branch { children, .. } => {
                    if let Some(child) = children.get(idx) {
                        self.stack.push((child, 0));
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

/// One key a [`Diff`] walk reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffItem<'a, K, V> {
    /// The key is only in the left map.
    Left(&'a K, &'a V),
    /// The key is only in the right map.
    Right(&'a K, &'a V),
    /// The key is in both maps, outside any subtree they share. The values
    /// may still be equal: comparing them is the caller's call.
    Both(&'a K, &'a V, &'a V),
}

/// A merge walk over two maps that skips the subtrees they share.
///
/// Pruning is sound because a node is never mutated while more than one
/// map holds it (`Node::touch` copies a shared node first): two maps that
/// hold the same node pointer hold the same entries under it. Each side
/// keeps a cursor — a stack of pending subtrees and entries, next item on
/// top. At every step the walk either skips a pointer-equal pair of
/// subtrees, opens (descends into) the subtree that starts first or is
/// taller, or emits the smaller entry, so it returns exactly what a full
/// merge of both key sequences would, minus the common entries inside
/// shared subtrees. Where node shapes differ (splits, pruned leaves) the
/// walk falls back to merging entries until the cursors meet on a shared
/// node again.
pub struct Diff<'a, K, V> {
    left: Cursor<'a, K, V>,
    right: Cursor<'a, K, V>,
}

impl<K, V> Diff<'_, K, V> {
    /// Nodes and entries the walk has popped so far: its cost, countable
    /// without timing it.
    pub fn visited(&self) -> usize {
        self.left.popped + self.right.popped
    }
}

/// A pending subtree (with its height above the leaves) or entry.
enum Pending<'a, K, V> {
    Node(&'a Node<K, V>, usize),
    Entry(&'a K, &'a V),
}

impl<K, V> Clone for Pending<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for Pending<'_, K, V> {}

impl<'a, K, V> Pending<'a, K, V> {
    /// The smallest key at or under this item (`None` for an empty node).
    fn min_key(self) -> Option<&'a K> {
        let mut node = match self {
            Pending::Entry(k, _) => return Some(k),
            Pending::Node(node, _) => node,
        };
        loop {
            match &node.body {
                Body::Leaf(entries) => return entries.first().map(|(k, _)| k),
                Body::Branch { children, .. } => node = children.first()?,
            }
        }
    }
}

struct Cursor<'a, K, V> {
    stack: Vec<Pending<'a, K, V>>,
    /// Items taken off the stack.
    popped: usize,
}

impl<'a, K, V> Cursor<'a, K, V> {
    fn new(map: &'a PMap<K, V>) -> Self {
        let mut stack = Vec::new();
        if let Some(root) = map.root.as_deref() {
            let mut height = 0;
            let mut node = root;
            while let Body::Branch { children, .. } = &node.body {
                height += 1;
                node = &children[0];
            }
            stack.push(Pending::Node(root, height));
        }
        Cursor { stack, popped: 0 }
    }

    fn peek(&self) -> Option<Pending<'a, K, V>> {
        self.stack.last().copied()
    }

    fn pop(&mut self) {
        self.stack.pop();
        self.popped += 1;
    }

    /// Replaces the node on top with its children or entries.
    fn open(&mut self) {
        let Some(Pending::Node(node, height)) = self.stack.pop() else {
            unreachable!("open: top of the cursor is a node");
        };
        self.popped += 1;
        match &node.body {
            Body::Leaf(entries) => self
                .stack
                .extend(entries.iter().rev().map(|(k, v)| Pending::Entry(k, v))),
            Body::Branch { children, .. } => self.stack.extend(
                children
                    .iter()
                    .rev()
                    .map(|c| Pending::Node(c, height.saturating_sub(1))),
            ),
        }
    }
}

impl<'a, K: Ord, V> Iterator for Diff<'a, K, V> {
    type Item = DiffItem<'a, K, V>;

    fn next(&mut self) -> Option<Self::Item> {
        use Pending::{Entry, Node};
        loop {
            let (a, b) = (self.left.peek(), self.right.peek());
            // Every key below both cursors' next keys has been walked on
            // both sides, so the side whose next key is smaller holds that
            // key alone. An exhausted side sorts last; an empty node sorts
            // first, so that opening drops it.
            let order = match (a, b) {
                (None, None) => return None,
                (Some(Node(x, _)), Some(Node(y, _))) if std::ptr::eq(x, y) => {
                    self.left.pop();
                    self.right.pop();
                    continue;
                }
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(a), Some(b)) => match (a.min_key(), b.min_key()) {
                    (Some(ka), Some(kb)) => ka.cmp(kb),
                    (None, _) => Ordering::Less,
                    (_, None) => Ordering::Greater,
                },
            };
            match (order, a, b) {
                (Ordering::Less, Some(Entry(k, v)), _) => {
                    self.left.pop();
                    return Some(DiffItem::Left(k, v));
                }
                (Ordering::Greater, _, Some(Entry(k, v))) => {
                    self.right.pop();
                    return Some(DiffItem::Right(k, v));
                }
                (Ordering::Equal, Some(Entry(k, va)), Some(Entry(_, vb))) => {
                    self.left.pop();
                    self.right.pop();
                    return Some(DiffItem::Both(k, va, vb));
                }
                // Same first key: open the taller node (both on a tie), so
                // a subtree shared at some height meets its twin there.
                (Ordering::Equal, Some(Node(_, ha)), Some(Node(_, hb))) => {
                    if ha >= hb {
                        self.left.open();
                    }
                    if hb >= ha {
                        self.right.open();
                    }
                }
                (Ordering::Less | Ordering::Equal, Some(Node(..)), _) => self.left.open(),
                // What is left: the right side's next item is a node that
                // starts first, or at the left side's next entry.
                _ => self.right.open(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = PMap::new();
        // 7 is coprime with 199, so i*7 % 199 enumerates all 199 keys once.
        for i in 0..199u32 {
            assert_eq!(m.insert(i * 7 % 199, i), None);
        }
        assert_eq!(m.len(), 199);
        for i in 0..199u32 {
            assert!(m.contains_key(&(i * 7 % 199)), "missing key {i}");
        }
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.remove(&0), None);
        assert_eq!(m.len(), 198);
    }

    #[test]
    fn matches_btreemap_model_under_random_ops() {
        let mut m: PMap<u64, u64> = PMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for step in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 257;
            match x % 3 {
                0 | 1 => {
                    assert_eq!(m.insert(key, step), model.insert(key, step));
                }
                _ => {
                    assert_eq!(m.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(m.len(), model.len());
        }
        let got: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn clone_is_independent_and_shares_structure() {
        let mut a: PMap<u32, String> = PMap::new();
        for i in 0..100 {
            a.insert(i, format!("v{i}"));
        }
        let b = a.clone();
        a.insert(7, "changed".into());
        a.remove(&50);
        assert_eq!(b.get(&7).unwrap(), "v7");
        assert!(b.contains_key(&50));
        assert_eq!(a.get(&7).unwrap(), "changed");
        assert!(!a.contains_key(&50));
        assert_eq!(b.len(), 100);
        assert_eq!(a.len(), 99);
    }

    #[test]
    fn range_from_by_is_a_lower_bound_scan() {
        let mut m: PMap<u32, u32> = PMap::new();
        for i in (0..300).step_by(3) {
            m.insert(i, i);
        }
        for bound in [0u32, 1, 2, 3, 149, 150, 298, 299, 1000] {
            let got: Vec<u32> = m
                .range_from_by(|k| k.cmp(&bound))
                .map(|(k, _)| *k)
                .collect();
            let want: Vec<u32> = (0..300).step_by(3).filter(|k| *k >= bound).collect();
            assert_eq!(got, want, "bound {bound}");
        }
    }

    #[test]
    fn get_mut_copies_only_on_hit() {
        let mut a: PMap<u32, u32> = PMap::new();
        for i in 0..50 {
            a.insert(i, i);
        }
        let b = a.clone();
        // Miss: no CoW, roots stay shared.
        assert!(a.get_mut(&999).is_none());
        assert!(Arc::ptr_eq(
            a.root.as_ref().unwrap(),
            b.root.as_ref().unwrap()
        ));
        // Hit: path copied, value changed only in `a`.
        *a.get_mut(&10).unwrap() = 777;
        assert_eq!(*b.get(&10).unwrap(), 10);
        assert_eq!(*a.get(&10).unwrap(), 777);
    }

    #[test]
    fn digest_sum_matches_fresh_recompute_after_mutation() {
        fn entry_digest(k: &u64, v: &u64) -> u64 {
            // splitmix64 over a key/value mix, same mixing idea the store uses.
            let mut x = k.wrapping_mul(0x9e3779b97f4a7c15) ^ v.wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        fn model_digest(m: &PMap<u64, u64>) -> u64 {
            m.iter()
                .fold(0u64, |acc, (k, v)| acc.wrapping_add(entry_digest(k, v)))
        }
        let mut m: PMap<u64, u64> = PMap::new();
        let mut x: u64 = 0x243f6a8885a308d3;
        for step in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 401;
            match x % 4 {
                0 | 1 => {
                    m.insert(key, step);
                }
                2 => {
                    m.remove(&key);
                }
                _ => {
                    if let Some(v) = m.get_mut(&key) {
                        *v = step;
                    }
                }
            }
            if step % 97 == 0 {
                // Cached digest must equal a from-scratch fold at all times,
                // including right after clones force CoW on later writes.
                let snap = m.clone();
                assert_eq!(m.digest_sum(&entry_digest), model_digest(&m), "step {step}");
                assert_eq!(snap.digest_sum(&entry_digest), model_digest(&snap));
            }
        }
        assert_eq!(m.digest_sum(&entry_digest), model_digest(&m));
    }

    /// `(tag, key)` for every key on which `a` and `b` differ, by a full
    /// merge of both key sequences.
    fn naive_diff(a: &PMap<u64, u64>, b: &PMap<u64, u64>) -> Vec<(char, u64)> {
        let (a, b): (BTreeMap<u64, u64>, BTreeMap<u64, u64>) = (
            a.iter().map(|(k, v)| (*k, *v)).collect(),
            b.iter().map(|(k, v)| (*k, *v)).collect(),
        );
        let keys: std::collections::BTreeSet<u64> = a.keys().chain(b.keys()).copied().collect();
        keys.into_iter()
            .filter_map(|k| match (a.get(&k), b.get(&k)) {
                (Some(_), None) => Some(('<', k)),
                (None, Some(_)) => Some(('>', k)),
                (Some(x), Some(y)) if x != y => Some(('=', k)),
                _ => None,
            })
            .collect()
    }

    fn walked_diff(a: &PMap<u64, u64>, b: &PMap<u64, u64>) -> Vec<(char, u64)> {
        a.diff(b)
            .filter_map(|item| match item {
                DiffItem::Left(k, _) => Some(('<', *k)),
                DiffItem::Right(k, _) => Some(('>', *k)),
                DiffItem::Both(k, x, y) if x != y => Some(('=', *k)),
                DiffItem::Both(..) => None,
            })
            .collect()
    }

    #[test]
    fn diff_matches_a_full_merge_across_forks() {
        let mut x: u64 = 0x2545f4914f6cdd1d;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..40u64 {
            let mut base: PMap<u64, u64> = PMap::new();
            for _ in 0..(next() % 600) {
                base.insert(next() % 1000, round);
            }
            let mut left = base.clone();
            let mut right = base.clone();
            for (side, writes) in [(&mut left, next() % 60), (&mut right, next() % 300)] {
                for w in 0..writes {
                    let key = next() % 1000;
                    match next() % 4 {
                        0 => {
                            side.remove(&key);
                        }
                        1 => {
                            if let Some(v) = side.get_mut(&key) {
                                *v = w;
                            }
                        }
                        _ => {
                            side.insert(key, w);
                        }
                    }
                }
            }
            for (a, b) in [(&base, &left), (&left, &right), (&right, &base)] {
                assert_eq!(walked_diff(a, b), naive_diff(a, b), "round {round}");
            }
        }
    }

    #[test]
    fn diff_skips_shared_subtrees() {
        let mut a: PMap<u32, u32> = PMap::new();
        for i in 0..5000 {
            a.insert(i, i);
        }
        let mut b = a.clone();
        let mut walk = a.diff(&b);
        assert_eq!(walk.by_ref().count(), 0);
        assert_eq!(walk.visited(), 2, "a clone shares its root");
        *b.get_mut(&2500).unwrap() = 0;
        let mut walk = a.diff(&b);
        let items: Vec<_> = walk
            .by_ref()
            .filter(|i| matches!(i, DiffItem::Both(_, x, y) if x != y))
            .collect();
        assert_eq!(items, [DiffItem::Both(&2500, &2500, &0)]);
        assert!(walk.visited() < 200, "visited {}", walk.visited());
    }

    #[test]
    fn iter_order_after_heavy_deletes() {
        let mut m: PMap<u32, u32> = PMap::new();
        for i in 0..500 {
            m.insert(i, i);
        }
        for i in 0..500 {
            if i % 5 != 0 {
                assert_eq!(m.remove(&i), Some(i));
            }
        }
        let got: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        let want: Vec<u32> = (0..500).filter(|i| i % 5 == 0).collect();
        assert_eq!(got, want);
    }
}
