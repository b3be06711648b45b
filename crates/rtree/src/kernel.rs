//! Batched MBR filter kernels over SoA rectangle arrays.
//!
//! The per-entry loops in `query.rs` and `join.rs` test one
//! `Rect` at a time through two pointer dereferences and four
//! short-circuiting comparisons — the branchy shape that defeats
//! auto-vectorization. Following *SIMD-ified R-tree Query Processing*
//! (Rayhan & Aref), this module keeps a node's rectangles in a
//! structure-of-arrays view ([`SoaMbrs`]: four contiguous `f64`
//! arrays) and evaluates predicates branch-free over 64-entry chunks,
//! collecting hits into a bitmask so the comparison loop carries no
//! data-dependent branches and LLVM can lower it to packed compares.
//!
//! For node-pair joins the quadratic scan is replaced above
//! [`SWEEP_THRESHOLD`] by sort-by-`min_x` + forward plane-sweep
//! (Tsitsigkos & Mamoulis, *Parallel In-Memory Evaluation of Spatial
//! Joins*): each rectangle only inspects the run of rectangles whose
//! x-interval overlaps its own, so sparse node pairs cost
//! O(n log n + k) instead of O(n·m).
//!
//! ### Degenerate rectangles
//!
//! All kernels treat a rectangle as *valid* only when
//! `min_x <= max_x && min_y <= max_y`. [`Rect::EMPTY`]
//! (`+inf..-inf`) and any rectangle with a NaN coordinate fail that
//! test and never match — including under `WithinDistance`, where
//! `Rect::mindist` would launder NaN into `0.0` via `f64::max`. The
//! kernels are therefore strictly *stricter* than the per-pair
//! [`JoinPredicate::matches`] on garbage input and identical on valid
//! input; `tests/proptest_kernel.rs` checks exactly that rule.

use crate::join::JoinPredicate;
use crate::node::Entry;
use sdo_geom::{axis_mindist, Rect};

/// Entry-count product above which a node-pair join uses the
/// plane-sweep instead of the chunked scan. Below it the sort overhead
/// is not paid back; 256 corresponds to two half-full fanout-32 nodes.
pub const SWEEP_THRESHOLD: usize = 256;

/// A structure-of-arrays view of a run of MBRs: four parallel `f64`
/// arrays. Reused across node visits via [`SoaMbrs::fill`] so the
/// steady-state query loop performs no allocation.
#[derive(Debug, Default, Clone)]
pub struct SoaMbrs {
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
}

impl SoaMbrs {
    /// An empty view; fill it with [`SoaMbrs::fill`] or [`SoaMbrs::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rectangles in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.min_x.len()
    }

    /// True when the view holds no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x.is_empty()
    }

    /// Drop all rectangles, keeping capacity.
    pub fn clear(&mut self) {
        self.min_x.clear();
        self.min_y.clear();
        self.max_x.clear();
        self.max_y.clear();
    }

    /// Append one rectangle.
    #[inline]
    pub fn push(&mut self, r: &Rect) {
        self.min_x.push(r.min_x);
        self.min_y.push(r.min_y);
        self.max_x.push(r.max_x);
        self.max_y.push(r.max_y);
    }

    /// Rebuild the view from an iterator of rectangles (clears first).
    pub fn fill<'a>(&mut self, rects: impl IntoIterator<Item = &'a Rect>) {
        self.clear();
        for r in rects {
            self.push(r);
        }
    }

    /// Rebuild the view from a node's entries (clears first).
    pub fn fill_from_entries<T>(&mut self, entries: &[Entry<T>]) {
        self.fill(entries.iter().map(|e| &e.mbr));
    }

    /// Reassemble rectangle `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Rect {
        Rect::new(self.min_x[i], self.min_y[i], self.max_x[i], self.max_y[i])
    }

    /// `min_x <= max_x && min_y <= max_y` — false for `Rect::EMPTY`
    /// and for any NaN coordinate.
    #[inline]
    fn valid(&self, i: usize) -> bool {
        self.min_x[i] <= self.max_x[i] && self.min_y[i] <= self.max_y[i]
    }

    /// Indices whose rectangles intersect `q`, in ascending order.
    /// Chunked and branch-free: each 64-entry chunk packs its hits
    /// into a bitmask before any data-dependent branch runs. Returns
    /// the number of rectangles tested (== `len()` unless `q` is
    /// degenerate, in which case 0).
    pub fn scan_intersects(&self, q: &Rect, mut emit: impl FnMut(usize)) -> u64 {
        if !(q.min_x <= q.max_x && q.min_y <= q.max_y) {
            return 0;
        }
        let n = self.len();
        let mut base = 0;
        while base < n {
            let chunk = (n - base).min(64);
            let mut mask: u64 = 0;
            for j in 0..chunk {
                let i = base + j;
                // Same four comparisons as `Rect::intersects`; `&`
                // instead of `&&` keeps the loop branch-free. NaN
                // coordinates fail every comparison, so degenerate
                // entries drop out with no extra validity term.
                let hit = (self.min_x[i] <= q.max_x)
                    & (q.min_x <= self.max_x[i])
                    & (self.min_y[i] <= q.max_y)
                    & (q.min_y <= self.max_y[i]);
                mask |= (hit as u64) << j;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                emit(base + j);
                mask &= mask - 1;
            }
            base += chunk;
        }
        n as u64
    }

    /// Indices whose rectangles lie within `mindist <= d` of `q`
    /// (matching `Rect::mindist`'s formula exactly on valid input).
    /// Degenerate entries never match; returns rectangles tested.
    pub fn scan_within(&self, q: &Rect, d: f64, mut emit: impl FnMut(usize)) -> u64 {
        let valid = q.min_x <= q.max_x && q.min_y <= q.max_y;
        if !valid || d.is_nan() || d < 0.0 {
            return 0;
        }
        let n = self.len();
        let mut base = 0;
        while base < n {
            let chunk = (n - base).min(64);
            let mut mask: u64 = 0;
            for j in 0..chunk {
                let i = base + j;
                // `Rect::mindist` via the shared `axis_mindist` clamp,
                // so the kernel is bit-identical to the per-rect test.
                // The validity term rejects EMPTY/NaN entries that the
                // `max` chain would otherwise launder to 0.
                let dx = axis_mindist(q.min_x, q.max_x, self.min_x[i], self.max_x[i]);
                let dy = axis_mindist(q.min_y, q.max_y, self.min_y[i], self.max_y[i]);
                let hit = ((dx * dx + dy * dy).sqrt() <= d)
                    & (self.min_x[i] <= self.max_x[i])
                    & (self.min_y[i] <= self.max_y[i]);
                mask |= (hit as u64) << j;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                emit(base + j);
                mask &= mask - 1;
            }
            base += chunk;
        }
        n as u64
    }

    /// Indices whose rectangles are fully contained in `q` (matching
    /// `q.contains_rect(r)`): the containment side of window queries.
    pub fn scan_contained_in(&self, q: &Rect, mut emit: impl FnMut(usize)) -> u64 {
        let n = self.len();
        let mut base = 0;
        while base < n {
            let chunk = (n - base).min(64);
            let mut mask: u64 = 0;
            for j in 0..chunk {
                let i = base + j;
                let hit = (q.min_x <= self.min_x[i])
                    & (q.min_y <= self.min_y[i])
                    & (self.max_x[i] <= q.max_x)
                    & (self.max_y[i] <= q.max_y)
                    & (self.min_x[i] <= self.max_x[i])
                    & (self.min_y[i] <= self.max_y[i]);
                mask |= (hit as u64) << j;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                emit(base + j);
                mask &= mask - 1;
            }
            base += chunk;
        }
        n as u64
    }

    /// Apply the join predicate against a single probe rectangle —
    /// the scan half of the node-pair join. Dispatches to the
    /// intersect or within-distance kernel.
    #[inline]
    pub fn scan_pred(&self, pred: JoinPredicate, q: &Rect, emit: impl FnMut(usize)) -> u64 {
        match pred {
            JoinPredicate::Intersects => self.scan_intersects(q, emit),
            JoinPredicate::WithinDistance(d) => self.scan_within(q, d, emit),
        }
    }
}

/// Scratch state for [`sweep_pairs`], reused across node pairs so the
/// join loop does not allocate in steady state.
#[derive(Debug, Default)]
pub struct SweepScratch {
    left: Vec<u32>,
    right: Vec<u32>,
}

impl SweepScratch {
    /// Fresh scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sort-by-`min_x` forward plane-sweep over two SoA rectangle sets.
/// Emits every index pair `(i, j)` satisfying `pred`, in sweep order.
/// Degenerate rectangles (EMPTY / NaN) are dropped before the sweep
/// and can never match. Returns the number of candidate pair tests
/// actually performed (the sweep's inner-loop trip count) — the
/// number a quadratic scan would charge is `a.len() * b.len()`.
pub fn sweep_pairs(
    a: &SoaMbrs,
    b: &SoaMbrs,
    pred: JoinPredicate,
    scratch: &mut SweepScratch,
    mut emit: impl FnMut(usize, usize),
) -> u64 {
    let reach = match pred {
        JoinPredicate::Intersects => 0.0,
        JoinPredicate::WithinDistance(d) => {
            if d.is_nan() || d < 0.0 {
                return 0;
            }
            d
        }
    };
    // Sorted index orders: valid rectangles only (EMPTY and NaN entries
    // are dropped here and can never pair), ascending by `min_x`.
    let SweepScratch { left, right } = scratch;
    left.clear();
    right.clear();
    left.extend((0..a.len() as u32).filter(|&i| a.valid(i as usize)));
    right.extend((0..b.len() as u32).filter(|&j| b.valid(j as usize)));
    left.sort_unstable_by(|&x, &y| a.min_x[x as usize].total_cmp(&a.min_x[y as usize]));
    right.sort_unstable_by(|&x, &y| b.min_x[x as usize].total_cmp(&b.min_x[y as usize]));

    let (la, lb) = (left.len(), right.len());
    let mut tests = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < la && j < lb {
        let ai = left[i] as usize;
        let bj = right[j] as usize;
        if a.min_x[ai] <= b.min_x[bj] {
            // `a[ai]` opens first: run forward over the right side
            // while its x-interval (grown by `reach`) still overlaps.
            let stop = a.max_x[ai] + reach;
            for &jj in &right[j..] {
                let bj = jj as usize;
                if b.min_x[bj] > stop {
                    break;
                }
                tests += 1;
                if pair_matches(a, ai, b, bj, pred) {
                    emit(ai, bj);
                }
            }
            i += 1;
        } else {
            let stop = b.max_x[bj] + reach;
            for &ii in &left[i..] {
                let ai = ii as usize;
                if a.min_x[ai] > stop {
                    break;
                }
                tests += 1;
                if pair_matches(a, ai, b, bj, pred) {
                    emit(ai, bj);
                }
            }
            j += 1;
        }
    }
    tests
}

/// The sweep's inner test. X-overlap is implied by the sweep invariant
/// for `Intersects` (both rectangles are valid and the later `min_x`
/// falls inside the earlier interval), so only y remains; distance
/// pairs recompute the full `Rect::mindist` formula, so results are
/// bit-identical to it.
#[inline]
fn pair_matches(a: &SoaMbrs, i: usize, b: &SoaMbrs, j: usize, pred: JoinPredicate) -> bool {
    match pred {
        JoinPredicate::Intersects => a.min_y[i] <= b.max_y[j] && b.min_y[j] <= a.max_y[i],
        JoinPredicate::WithinDistance(d) => {
            let dx = axis_mindist(a.min_x[i], a.max_x[i], b.min_x[j], b.max_x[j]);
            let dy = axis_mindist(a.min_y[i], a.max_y[i], b.min_y[j], b.max_y[j]);
            (dx * dx + dy * dy).sqrt() <= d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soa(rects: &[Rect]) -> SoaMbrs {
        let mut s = SoaMbrs::new();
        s.fill(rects.iter());
        s
    }

    fn rects(n: usize, offset: f64) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = offset + ((i * 2654435761) % 997) as f64 / 3.0;
                let y = ((i * 40503) % 991) as f64 / 3.0;
                Rect::new(x, y, x + 4.0, y + 4.0)
            })
            .collect()
    }

    #[test]
    fn scan_intersects_matches_scalar() {
        let rs = rects(300, 0.0);
        let s = soa(&rs);
        for q in [
            Rect::new(10.0, 10.0, 60.0, 60.0),
            Rect::new(-100.0, -100.0, -50.0, -50.0),
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
        ] {
            let mut got = Vec::new();
            s.scan_intersects(&q, |i| got.push(i));
            let want: Vec<usize> = (0..rs.len()).filter(|&i| rs[i].intersects(&q)).collect();
            assert_eq!(got, want, "window {q}");
        }
    }

    #[test]
    fn scan_within_matches_scalar() {
        let rs = rects(300, 0.0);
        let s = soa(&rs);
        let q = Rect::new(100.0, 100.0, 120.0, 120.0);
        for d in [0.0, 3.5, 40.0] {
            let mut got = Vec::new();
            s.scan_within(&q, d, |i| got.push(i));
            let want: Vec<usize> = (0..rs.len()).filter(|&i| rs[i].mindist(&q) <= d).collect();
            assert_eq!(got, want, "d={d}");
        }
    }

    #[test]
    fn scan_contained_matches_scalar() {
        let rs = rects(300, 0.0);
        let s = soa(&rs);
        let q = Rect::new(20.0, 20.0, 200.0, 200.0);
        let mut got = Vec::new();
        s.scan_contained_in(&q, |i| got.push(i));
        let want: Vec<usize> = (0..rs.len()).filter(|&i| q.contains_rect(&rs[i])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn degenerate_rects_never_match_in_scans() {
        let bad = [
            Rect::EMPTY,
            Rect::new(f64::NAN, 0.0, 1.0, 1.0),
            Rect::new(0.0, f64::NAN, 1.0, 1.0),
            Rect::new(0.0, 0.0, f64::NAN, 1.0),
            Rect::new(0.0, 0.0, 1.0, f64::NAN),
            Rect::new(f64::NAN, f64::NAN, f64::NAN, f64::NAN),
        ];
        let s = soa(&bad);
        let huge = Rect::new(-1e12, -1e12, 1e12, 1e12);
        let mut hits = 0;
        s.scan_intersects(&huge, |_| hits += 1);
        s.scan_within(&huge, 1e12, |_| hits += 1);
        s.scan_contained_in(&huge, |_| hits += 1);
        assert_eq!(hits, 0, "EMPTY/NaN rectangles must never match");
        // Degenerate *query* matches nothing either.
        let good = soa(&[Rect::new(0.0, 0.0, 1.0, 1.0)]);
        for q in [Rect::EMPTY, Rect::new(f64::NAN, 0.0, 1.0, 1.0)] {
            good.scan_intersects(&q, |_| hits += 1);
            good.scan_within(&q, 10.0, |_| hits += 1);
            good.scan_contained_in(&q, |_| hits += 1);
        }
        assert_eq!(hits, 0, "degenerate query windows must match nothing");
    }

    #[test]
    fn sweep_matches_nested_loop() {
        let ra = rects(180, 0.0);
        let rb = rects(140, 55.0);
        let (sa, sb) = (soa(&ra), soa(&rb));
        let mut scratch = SweepScratch::new();
        for pred in [JoinPredicate::Intersects, JoinPredicate::WithinDistance(6.0)] {
            let mut got = Vec::new();
            let tests = sweep_pairs(&sa, &sb, pred, &mut scratch, |i, j| got.push((i, j)));
            got.sort_unstable();
            let mut want = Vec::new();
            for (i, x) in ra.iter().enumerate() {
                for (j, y) in rb.iter().enumerate() {
                    if pred.matches(x, y) {
                        want.push((i, j));
                    }
                }
            }
            assert_eq!(got, want, "{pred:?}");
            assert!(
                tests < (ra.len() * rb.len()) as u64,
                "{pred:?}: sweep should test fewer pairs ({tests}) than quadratic"
            );
        }
    }

    #[test]
    fn sweep_drops_degenerate_rects() {
        let mut ra = rects(40, 0.0);
        ra.push(Rect::EMPTY);
        ra.push(Rect::new(f64::NAN, 0.0, 1e9, 1e9));
        let rb = rects(40, 0.0);
        let (sa, sb) = (soa(&ra), soa(&rb));
        let mut scratch = SweepScratch::new();
        for pred in [JoinPredicate::Intersects, JoinPredicate::WithinDistance(1e9)] {
            let mut got = Vec::new();
            sweep_pairs(&sa, &sb, pred, &mut scratch, |i, j| got.push((i, j)));
            assert!(
                got.iter().all(|&(i, _)| i < 40),
                "{pred:?}: degenerate left rectangles must never pair"
            );
        }
    }

    #[test]
    fn sweep_handles_negative_distance() {
        let ra = rects(20, 0.0);
        let (sa, sb) = (soa(&ra), soa(&ra));
        let mut scratch = SweepScratch::new();
        let mut n = 0;
        sweep_pairs(&sa, &sb, JoinPredicate::WithinDistance(-1.0), &mut scratch, |_, _| n += 1);
        assert_eq!(n, 0);
        let mut m = 0;
        soa(&ra).scan_within(&ra[0], -1.0, |_| m += 1);
        assert_eq!(m, 0);
    }

    #[test]
    fn scan_within_matches_rect_mindist_on_degenerate_rects() {
        // Regression pin: `scan_within` and the per-rect `Rect::mindist`
        // must agree exactly on degenerate (point / axis-parallel line)
        // rectangles, because both sides now share `axis_mindist`.
        // EMPTY entries never match regardless of distance.
        let rs = [
            Rect::new(3.0, 4.0, 3.0, 4.0),   // point
            Rect::new(0.0, 7.0, 10.0, 7.0),  // horizontal line
            Rect::new(-2.0, 0.0, -2.0, 9.0), // vertical line
            Rect::new(1.0, 1.0, 2.0, 2.0),   // ordinary box
            Rect::EMPTY,
        ];
        let s = soa(&rs);
        for q in [
            Rect::new(0.0, 0.0, 0.0, 0.0), // degenerate query point
            Rect::new(0.0, 5.0, 6.0, 5.0), // degenerate query line
            Rect::new(0.0, 0.0, 4.0, 4.0),
        ] {
            for d in [0.0, 1.0, 2.5, 5.0, 100.0] {
                let mut got = Vec::new();
                s.scan_within(&q, d, |i| got.push(i));
                let want: Vec<usize> = (0..4).filter(|&i| rs[i].mindist(&q) <= d).collect();
                assert_eq!(got, want, "q={q} d={d}");
                assert!(!got.contains(&4), "EMPTY must never match");
            }
        }
    }

    #[test]
    fn soa_roundtrip_and_reuse() {
        let rs = rects(70, 0.0);
        let mut s = SoaMbrs::new();
        s.fill(rs.iter());
        assert_eq!(s.len(), 70);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&s.get(i), r);
        }
        s.fill(rs[..3].iter());
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }
}
