//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// Element-generation retries before a collection draw is abandoned.
const ELEMENT_RETRIES: usize = 8;

/// Inclusive-exclusive length range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn draw(&self, rng: &mut TestRng) -> usize {
        assert!(self.lo < self.hi, "empty collection size range");
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }

    fn min(&self) -> usize {
        self.lo
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() + 1 }
    }
}

/// Strategy for `Vec<S::Value>` (output of [`vec()`]).
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Vector of values from `element`, with length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
        let len = self.size.draw(rng);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let v = (0..ELEMENT_RETRIES).find_map(|_| self.element.gen_value(rng))?;
            out.push(v);
        }
        Some(out)
    }
}

/// Strategy for `BTreeSet<S::Value>` (output of [`btree_set`]).
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Set of values from `element`; duplicates are redrawn, so a narrow
/// element domain may yield fewer than the requested length.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size: size.into() }
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Option<BTreeSet<S::Value>> {
        let target = self.size.draw(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * ELEMENT_RETRIES + ELEMENT_RETRIES {
            attempts += 1;
            if let Some(v) = self.element.gen_value(rng) {
                out.insert(v);
            }
        }
        (out.len() >= self.size.min()).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_and_elements() {
        let mut rng = TestRng::from_seed(4);
        let s = vec(0i32..100, 2..7);
        for _ in 0..100 {
            let v = s.gen_value(&mut rng).unwrap();
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|x| (0..100).contains(x)));
        }
    }

    #[test]
    fn btree_set_is_deduplicated() {
        let mut rng = TestRng::from_seed(5);
        let s = btree_set(0i32..1000, 10..50);
        for _ in 0..50 {
            let set = s.gen_value(&mut rng).unwrap();
            assert!(set.len() >= 10);
        }
    }
}
