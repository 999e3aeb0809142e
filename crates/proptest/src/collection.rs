//! Collection strategies: `vec` and `btree_map`.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification: an exact `usize` or a half-open `Range<usize>`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        if self.hi <= self.lo + 1 {
            self.lo
        } else {
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> SizeRange {
        SizeRange {
            lo: exact,
            hi: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> SizeRange {
        assert!(range.start < range.end, "empty size range");
        SizeRange {
            lo: range.start,
            hi: range.end,
        }
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements come from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `BTreeMap` with `size`-many generated entries. Duplicate keys collapse,
/// so the realized size may fall below the lower bound — matching upstream's
/// behaviour for small key domains.
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let len = self.size.pick(rng);
        (0..len)
            .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn exact_sizes_are_exact() {
        let mut rng = TestRng::from_seed(11);
        let strat = vec(Just(7u8), 6usize);
        for _ in 0..10 {
            assert_eq!(strat.generate(&mut rng).len(), 6);
        }
    }

    #[test]
    fn ranged_sizes_stay_half_open() {
        let mut rng = TestRng::from_seed(12);
        let strat = vec(0u8..10, 0..5);
        let mut lens = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!(v.len() < 5);
            lens.insert(v.len());
        }
        assert_eq!(lens.len(), 5, "every length in [0,5) occurs");
    }

    #[test]
    fn btree_maps_respect_the_upper_bound() {
        let mut rng = TestRng::from_seed(13);
        let strat = btree_map(0u8..50, 0u8..10, 0..4);
        for _ in 0..100 {
            assert!(strat.generate(&mut rng).len() < 4);
        }
    }
}
