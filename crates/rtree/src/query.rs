//! R-tree queries: window, within-distance, and nearest-neighbour.

use crate::kernel::SoaMbrs;
use crate::node::Payload;
use crate::tree::RTree;
use sdo_geom::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

impl<T: Clone> RTree<T> {
    /// Items whose MBRs intersect `window` (the primary filter for
    /// `SDO_FILTER`/`SDO_RELATE` window queries).
    pub fn query_window(&self, window: &Rect) -> Vec<(Rect, T)> {
        let mut out = Vec::new();
        self.query_window_visit(window, &mut |mbr, item| out.push((mbr, item.clone())));
        out
    }

    /// Visitor-form window query, avoiding result materialization.
    ///
    /// Each visited node's MBRs are scanned through the batched SoA
    /// intersection kernel ([`SoaMbrs::scan_intersects`]) rather than
    /// entry-by-entry `Rect::intersects` calls; the SoA scratch view
    /// is reused across nodes so the loop does not allocate after the
    /// first node at each fanout. The entries the kernel tests are
    /// charged to the attached counters' `mbr_tests`.
    pub fn query_window_visit(&self, window: &Rect, visit: &mut impl FnMut(Rect, &T)) {
        if self.is_empty() {
            return;
        }
        let mut soa = SoaMbrs::new();
        let mut stack = vec![self.root_id()];
        let mut tested = 0;
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            soa.fill_from_entries(&n.entries);
            tested += soa.scan_intersects(window, |i| {
                let e = &n.entries[i];
                match &e.payload {
                    Payload::Item(t) => visit(e.mbr, t),
                    Payload::Node(c) => stack.push(*c),
                }
            });
        }
        self.charge_mbr_tests(tested);
    }

    /// Items whose MBRs lie within `d` of `window` (`mindist <= d`),
    /// the primary filter for `SDO_WITHIN_DISTANCE`. Runs the batched
    /// SoA within-distance kernel per node, and charges `mbr_tests`,
    /// like [`RTree::query_window_visit`].
    pub fn query_within_distance(&self, window: &Rect, d: f64) -> Vec<(Rect, T)> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut soa = SoaMbrs::new();
        let mut stack = vec![self.root_id()];
        let mut tested = 0;
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            soa.fill_from_entries(&n.entries);
            tested += soa.scan_within(window, d, |i| {
                let e = &n.entries[i];
                match &e.payload {
                    Payload::Item(t) => out.push((e.mbr, t.clone())),
                    Payload::Node(c) => stack.push(*c),
                }
            });
        }
        self.charge_mbr_tests(tested);
        out
    }

    /// The `k` items whose MBRs are nearest to `q` (by `mindist`),
    /// best-first traversal with a priority queue (Hjaltason & Samet
    /// ranking, cited as \[9\] in the paper).
    pub fn query_knn(&self, q: &Point, k: usize) -> Vec<(f64, Rect, T)> {
        let mut out = Vec::new();
        if k == 0 || self.is_empty() {
            return out;
        }
        let mut heap: BinaryHeap<HeapEntry<T>> = BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, kind: HeapKind::Node(self.root_id()) });
        while let Some(HeapEntry { dist, kind }) = heap.pop() {
            match kind {
                HeapKind::Node(id) => {
                    let n = self.node(id);
                    for e in &n.entries {
                        let d = e.mbr.mindist_point(q);
                        match &e.payload {
                            Payload::Item(t) => heap.push(HeapEntry {
                                dist: d,
                                kind: HeapKind::Item(e.mbr, t.clone()),
                            }),
                            Payload::Node(c) => {
                                heap.push(HeapEntry { dist: d, kind: HeapKind::Node(*c) })
                            }
                        }
                    }
                }
                HeapKind::Item(mbr, t) => {
                    out.push((dist, mbr, t));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        out
    }
}

impl<T: Clone> RTree<T> {
    /// Lazy best-first nearest-neighbour scan ordered by `mindist` to a
    /// query rectangle (Hjaltason & Samet's incremental ranking).
    ///
    /// The filter-refine nearest-neighbour search of `SDO_NN` pulls
    /// from this iterator until the next MBR lower bound exceeds the
    /// current k-th exact distance.
    pub fn nearest_iter(&self, q: Rect) -> NearestIter<'_, T> {
        let mut heap = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(HeapEntry { dist: 0.0, kind: HeapKind::Node(self.root_id()) });
        }
        NearestIter { tree: self, q, heap }
    }
}

/// Iterator over `(mindist, mbr, item)` in ascending `mindist` order.
pub struct NearestIter<'a, T: Clone> {
    tree: &'a RTree<T>,
    q: Rect,
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<'a, T: Clone> Iterator for NearestIter<'a, T> {
    type Item = (f64, Rect, T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(HeapEntry { dist, kind }) = self.heap.pop() {
            match kind {
                HeapKind::Node(id) => {
                    let n = self.tree.node(id);
                    for e in &n.entries {
                        let d = e.mbr.mindist(&self.q);
                        match &e.payload {
                            Payload::Item(t) => self.heap.push(HeapEntry {
                                dist: d,
                                kind: HeapKind::Item(e.mbr, t.clone()),
                            }),
                            Payload::Node(c) => {
                                self.heap.push(HeapEntry { dist: d, kind: HeapKind::Node(*c) })
                            }
                        }
                    }
                }
                HeapKind::Item(mbr, t) => return Some((dist, mbr, t)),
            }
        }
        None
    }
}

struct HeapEntry<T> {
    dist: f64,
    kind: HeapKind<T>,
}

enum HeapKind<T> {
    Node(crate::node::NodeId),
    Item(Rect, T),
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need nearest first.
        other.dist.total_cmp(&self.dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeParams;
    use sdo_storage::Counters;
    use std::sync::Arc;

    fn grid_tree(n: usize) -> (RTree<usize>, Vec<Rect>) {
        let mut t = RTree::new(RTreeParams::with_fanout(8));
        let mut rects = Vec::new();
        for i in 0..n {
            let x = (i % 50) as f64 * 3.0;
            let y = (i / 50) as f64 * 3.0;
            let r = Rect::new(x, y, x + 1.0, y + 1.0);
            t.insert(r, i);
            rects.push(r);
        }
        (t, rects)
    }

    /// Entries in every node a window traversal visits: the root, then
    /// each child whose MBR the window (grown by `d`) reaches.
    fn visited_entries(t: &RTree<usize>, window: &Rect, d: f64) -> u64 {
        let mut stack = vec![t.root_id()];
        let mut tested = 0;
        while let Some(id) = stack.pop() {
            let n = t.node(id);
            tested += n.entries.len() as u64;
            for e in &n.entries {
                if let Payload::Node(c) = e.payload {
                    if e.mbr.mindist(window) <= d {
                        stack.push(c);
                    }
                }
            }
        }
        tested
    }

    fn mbr_tests(c: &Counters) -> u64 {
        Counters::get(&c.mbr_tests)
    }

    #[test]
    fn window_probes_count_the_entries_the_kernel_tests() {
        let (t, _) = grid_tree(1000);
        let c = Arc::new(Counters::new());
        let mut t = t.with_counters(Arc::clone(&c));
        let root_entries = t.node(t.root_id()).entries.len() as u64;

        // Outside the root MBR: only the root's entries are tested.
        let outside = Rect::new(-50.0, -50.0, -40.0, -40.0);
        let before = mbr_tests(&c);
        assert!(t.query_window(&outside).is_empty());
        assert_eq!(mbr_tests(&c) - before, root_entries);
        let before = mbr_tests(&c);
        assert!(t.query_within_distance(&outside, 5.0).is_empty());
        assert_eq!(mbr_tests(&c) - before, root_entries);

        // Inside: exactly the entries of the nodes visited, and the
        // count follows the nodes visited, not the tree size — adding
        // 10 000 far-away items moves it by at most the new levels.
        let window = Rect::new(20.0, 10.0, 35.0, 22.0);
        let count = |t: &RTree<usize>, c: &Counters| {
            let before = mbr_tests(c);
            t.query_window(&window);
            let window_tests = mbr_tests(c) - before;
            assert_eq!(window_tests, visited_entries(t, &window, 0.0));
            let before = mbr_tests(c);
            t.query_within_distance(&window, 2.0);
            assert_eq!(mbr_tests(c) - before, visited_entries(t, &window, 2.0));
            window_tests
        };
        let small = count(&t, &c);
        for i in 0..10_000 {
            let x = 10_000.0 + (i % 100) as f64 * 3.0;
            let y = 10_000.0 + (i / 100) as f64 * 3.0;
            t.insert(Rect::new(x, y, x + 1.0, y + 1.0), 1000 + i);
        }
        let grown = count(&t, &c);
        let fanout = t.params().max_entries as u64;
        assert!(grown <= small + fanout * u64::from(t.height()), "{small} -> {grown}");
    }

    #[test]
    fn window_query_matches_brute_force() {
        let (t, rects) = grid_tree(1000);
        for window in [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(50.0, 20.0, 80.0, 45.0),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
        ] {
            let mut got: Vec<usize> = t.query_window(&window).into_iter().map(|(_, i)| i).collect();
            got.sort_unstable();
            let want: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&window))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "window {window}");
        }
    }

    #[test]
    fn distance_query_matches_brute_force() {
        let (t, rects) = grid_tree(600);
        let q = Rect::new(30.0, 30.0, 31.0, 31.0);
        for d in [0.0, 1.5, 5.0, 20.0] {
            let mut got: Vec<usize> =
                t.query_within_distance(&q, d).into_iter().map(|(_, i)| i).collect();
            got.sort_unstable();
            let want: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.mindist(&q) <= d)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "d={d}");
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (t, rects) = grid_tree(500);
        let q = Point::new(47.3, 12.9);
        for k in [1usize, 5, 20, 100] {
            let got = t.query_knn(&q, k);
            assert_eq!(got.len(), k.min(500));
            // distances non-decreasing
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            // compare distance multiset against brute force
            let mut want: Vec<f64> = rects.iter().map(|r| r.mindist_point(&q)).collect();
            want.sort_by(f64::total_cmp);
            for (i, (d, _, _)) in got.iter().enumerate() {
                assert!((d - want[i]).abs() < 1e-9, "k={k} i={i}: {d} vs {}", want[i]);
            }
        }
    }

    #[test]
    fn queries_on_empty_tree() {
        let t: RTree<usize> = RTree::new(RTreeParams::with_fanout(8));
        assert!(t.query_window(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.query_within_distance(&Rect::new(0.0, 0.0, 1.0, 1.0), 10.0).is_empty());
        assert!(t.query_knn(&Point::new(0.0, 0.0), 5).is_empty());
    }

    #[test]
    fn knn_k_zero() {
        let (t, _) = grid_tree(10);
        assert!(t.query_knn(&Point::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn nearest_iter_is_sorted_and_complete() {
        let (t, rects) = grid_tree(300);
        let q = Rect::new(70.0, 40.0, 72.0, 41.0);
        let seq: Vec<(f64, Rect, usize)> = t.nearest_iter(q).collect();
        assert_eq!(seq.len(), 300, "iterator must visit every item");
        assert!(seq.windows(2).all(|w| w[0].0 <= w[1].0), "distances must be non-decreasing");
        let mut want: Vec<f64> = rects.iter().map(|r| r.mindist(&q)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (d, _, _)) in seq.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-9);
        }
        // empty tree yields nothing
        let empty: RTree<usize> = RTree::new(RTreeParams::with_fanout(8));
        assert_eq!(empty.nearest_iter(q).count(), 0);
    }
}
