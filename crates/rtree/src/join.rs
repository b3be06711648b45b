//! The synchronized-traversal R-tree join.
//!
//! The paper's §4.2: "the subtree roots of the R-tree indexes ... are
//! pushed onto a stack. In each fetch call, the spatial join processing
//! is resumed using the contents of the stack and as many result join
//! rowids are determined as specified in the fetch call."
//!
//! [`JoinCursor`] is exactly that object: an explicit-stack,
//! *restartable* tree-matching traversal (Brinkhoff-style, \[10\])
//! producing candidate pairs in bounded batches. Seed it with the two
//! roots for a serial join, or with a single subtree-root pair per
//! parallel slave for the paper's parallel decomposition (Figure 1).

use crate::kernel::{sweep_pairs, SoaMbrs, SweepScratch, SWEEP_THRESHOLD};
use crate::node::NodeId;
use crate::tree::RTree;
use sdo_geom::Rect;
use sdo_storage::Counters;
use std::collections::VecDeque;
use std::sync::Arc;

fn obs_kernel_sweeps() -> &'static Arc<sdo_obs::Counter> {
    static HANDLE: std::sync::OnceLock<Arc<sdo_obs::Counter>> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| sdo_obs::global().counter("rtree.kernel.sweeps"))
}

fn obs_kernel_scans() -> &'static Arc<sdo_obs::Counter> {
    static HANDLE: std::sync::OnceLock<Arc<sdo_obs::Counter>> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| sdo_obs::global().counter("rtree.kernel.scans"))
}

/// Per-cursor kernel accounting: how many node pairs went through the
/// plane-sweep vs the batch scan, and how many pair tests each ran.
/// Surfaced as `kernel_sweeps` / `kernel_scans` / `kernel_tests`
/// metrics in `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Node pairs matched with the plane-sweep.
    pub sweeps: u64,
    /// Node pairs (or single-rect probes) matched with batch scans.
    pub scans: u64,
    /// Pair tests actually executed by the kernels.
    pub tests: u64,
}

impl KernelStats {
    /// Accumulate another cursor's stats (parallel slaves merge here).
    pub fn merge(&mut self, other: &KernelStats) {
        self.sweeps += other.sweeps;
        self.scans += other.scans;
        self.tests += other.tests;
    }

    /// Count one kernel call: a plane-sweep (`sweep`) or a batch scan
    /// that ran `tests` pair tests.
    pub(crate) fn record(&mut self, sweep: bool, tests: u64) {
        if sweep {
            self.sweeps += 1;
        } else {
            self.scans += 1;
        }
        self.tests += tests;
        if sdo_obs::profiling() {
            if sweep { obs_kernel_sweeps() } else { obs_kernel_scans() }.add(1);
        }
    }
}

/// The MBR-level predicate driving the primary filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinPredicate {
    /// MBRs intersect (candidates for ANYINTERACT and all containment
    /// masks).
    Intersects,
    /// MBRs lie within distance `d` (candidates for
    /// `SDO_WITHIN_DISTANCE` joins).
    WithinDistance(f64),
}

impl JoinPredicate {
    /// Evaluate the predicate on two MBRs.
    #[inline]
    pub fn matches(&self, a: &Rect, b: &Rect) -> bool {
        match self {
            JoinPredicate::Intersects => a.intersects(b),
            JoinPredicate::WithinDistance(d) => a.mindist(b) <= *d,
        }
    }
}

/// Match two SoA rectangle sets pairwise with the batch kernels: the
/// plane-sweep when the pair product reaches [`SWEEP_THRESHOLD`] (the
/// sort pays for itself), one chunked scan of `right` per `left`
/// rectangle otherwise. `emit` receives every matching index pair;
/// the call is charged to `stats`. Shared by the tree join's node
/// pairs and the partitioned join's tile blocks.
pub fn match_pairs(
    left: &SoaMbrs,
    right: &SoaMbrs,
    pred: JoinPredicate,
    sweep: &mut SweepScratch,
    stats: &mut KernelStats,
    mut emit: impl FnMut(usize, usize),
) {
    if left.len() * right.len() >= SWEEP_THRESHOLD {
        let tests = sweep_pairs(left, right, pred, sweep, emit);
        stats.record(true, tests);
    } else {
        let mut tests = 0;
        for i in 0..left.len() {
            tests += right.scan_pred(pred, &left.get(i), |j| emit(i, j));
        }
        stats.record(false, tests);
    }
}

/// A candidate pair produced by the MBR join: both items plus their
/// MBRs (the secondary filter uses the items — rowids — to fetch exact
/// geometries).
pub type CandidatePair<A, B> = (Rect, A, Rect, B);

/// Suspended traversal state: the pending node-pair stack plus
/// undelivered candidates (see [`JoinCursor::into_parts`]).
pub type SuspendedJoin<A, B> = (Vec<(NodeId, NodeId)>, VecDeque<CandidatePair<A, B>>);

/// Restartable synchronized traversal of two R-trees.
pub struct JoinCursor<'a, A: Clone, B: Clone> {
    left: &'a RTree<A>,
    right: &'a RTree<B>,
    pred: JoinPredicate,
    /// Pending node pairs still to be expanded.
    stack: Vec<(NodeId, NodeId)>,
    /// Candidate pairs produced but not yet handed out.
    buf: VecDeque<CandidatePair<A, B>>,
    counters: Option<Arc<Counters>>,
    /// SoA scratch views + sweep order buffers, reused across node
    /// pairs so the steady-state join loop does not allocate.
    soa_left: SoaMbrs,
    soa_right: SoaMbrs,
    sweep: SweepScratch,
    stats: KernelStats,
}

impl<'a, A: Clone, B: Clone> JoinCursor<'a, A, B> {
    /// Join the full trees (single root pair).
    pub fn new(left: &'a RTree<A>, right: &'a RTree<B>, pred: JoinPredicate) -> Self {
        let mut stack = Vec::new();
        if !left.is_empty() && !right.is_empty() {
            stack.push((left.root_id(), right.root_id()));
        }
        Self::from_parts(left, right, pred, stack, VecDeque::new())
    }

    /// Join specific subtree pairs — the parallel decomposition: each
    /// slave receives the cross product slice assigned to it.
    pub fn from_pairs(
        left: &'a RTree<A>,
        right: &'a RTree<B>,
        pred: JoinPredicate,
        pairs: Vec<(NodeId, NodeId)>,
    ) -> Self {
        Self::from_parts(left, right, pred, pairs, VecDeque::new())
    }

    /// Charge MBR tests to shared counters (one add per
    /// [`JoinCursor::next_batch`] call).
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Kernel accounting accumulated so far (sweeps/scans/tests).
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// True when no further candidates can be produced.
    pub fn is_exhausted(&self) -> bool {
        self.stack.is_empty() && self.buf.is_empty()
    }

    /// Suspend the traversal: extract the pending node-pair stack and
    /// undelivered candidates. Together with [`JoinCursor::from_parts`]
    /// this lets a pipelined table function persist join state between
    /// `fetch` calls without holding a borrow of the trees.
    pub fn into_parts(self) -> SuspendedJoin<A, B> {
        (self.stack, self.buf)
    }

    /// Resume a suspended traversal (see [`JoinCursor::into_parts`]).
    pub fn from_parts(
        left: &'a RTree<A>,
        right: &'a RTree<B>,
        pred: JoinPredicate,
        stack: Vec<(NodeId, NodeId)>,
        buf: VecDeque<CandidatePair<A, B>>,
    ) -> Self {
        JoinCursor {
            left,
            right,
            pred,
            stack,
            buf,
            counters: None,
            soa_left: SoaMbrs::new(),
            soa_right: SoaMbrs::new(),
            sweep: SweepScratch::new(),
            stats: KernelStats::default(),
        }
    }

    /// Produce up to `max` candidate pairs, resuming from the stack —
    /// the body of the table function's `fetch`. Returns an empty vec
    /// when the join is complete.
    pub fn next_batch(&mut self, max: usize) -> Vec<CandidatePair<A, B>> {
        let tests_before = self.stats.tests;
        while self.buf.len() < max {
            let Some((l, r)) = self.stack.pop() else { break };
            self.expand(l, r);
        }
        if let Some(c) = &self.counters {
            Counters::add(&c.mbr_tests, self.stats.tests - tests_before);
        }
        let n = self.buf.len().min(max);
        self.buf.drain(..n).collect()
    }

    /// Drain the entire join.
    pub fn collect_all(&mut self) -> Vec<CandidatePair<A, B>> {
        let mut out = Vec::new();
        loop {
            let batch = self.next_batch(4096);
            if batch.is_empty() {
                return out;
            }
            out.extend(batch);
        }
    }

    /// Expand one node pair: emit candidates for leaf/leaf, push child
    /// pairs for equal-level internal nodes (both via [`match_pairs`]),
    /// and otherwise descend whichever node sits higher by scanning its
    /// entries against the lower node's MBR.
    fn expand(&mut self, l: NodeId, r: NodeId) {
        let (ln, rn) = (self.left.node(l), self.right.node(r));
        let JoinCursor { pred, stack, buf, soa_left, soa_right, sweep, stats, .. } = self;
        if ln.level == rn.level {
            soa_left.fill_from_entries(&ln.entries);
            soa_right.fill_from_entries(&rn.entries);
            if ln.is_leaf() {
                match_pairs(soa_left, soa_right, *pred, sweep, stats, |i, j| {
                    let (le, re) = (&ln.entries[i], &rn.entries[j]);
                    buf.push_back((le.mbr, le.item_ref().clone(), re.mbr, re.item_ref().clone()));
                });
            } else {
                match_pairs(soa_left, soa_right, *pred, sweep, stats, |i, j| {
                    stack.push((ln.entries[i].child_id(), rn.entries[j].child_id()));
                });
            }
        } else if ln.level > rn.level {
            soa_left.fill_from_entries(&ln.entries);
            let tests = soa_left.scan_pred(*pred, &rn.mbr(), |i| {
                stack.push((ln.entries[i].child_id(), r));
            });
            stats.record(false, tests);
        } else {
            soa_right.fill_from_entries(&rn.entries);
            let tests = soa_right.scan_pred(*pred, &ln.mbr(), |j| {
                stack.push((l, rn.entries[j].child_id()));
            });
            stats.record(false, tests);
        }
    }
}

/// Build the subtree-pair work list for a parallel join: descend both
/// trees `levels_down` levels and return the MBR-filtered cross product
/// of subtree roots (Figure 1's `(R11,S11) ... (R12,S12)` pairs).
pub fn subtree_pair_tasks<A: Clone, B: Clone>(
    left: &RTree<A>,
    right: &RTree<B>,
    pred: JoinPredicate,
    levels_down: u32,
) -> Vec<(NodeId, NodeId)> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    let ls = left.subtree_roots(levels_down);
    let rs = right.subtree_roots(levels_down);
    let mut pairs = Vec::new();
    for l in &ls {
        for r in &rs {
            if pred.matches(&l.mbr, &r.mbr) {
                pairs.push((l.node, r.node));
            }
        }
    }
    pairs
}

/// Split one join task into finer-grained tasks by expanding the pair
/// a single level, applying the same matching rules as the traversal
/// itself (pairwise children at equal levels, descend the higher side
/// otherwise). Returns `None` for a leaf/leaf pair — that task is
/// already atomic. Used by the work-stealing parallel join to keep
/// task granularity small enough for load balancing: processing the
/// returned tasks yields exactly the candidates the original pair
/// would have produced.
pub fn split_pair<A: Clone, B: Clone>(
    left: &RTree<A>,
    right: &RTree<B>,
    pred: JoinPredicate,
    l: NodeId,
    r: NodeId,
) -> Option<Vec<(NodeId, NodeId)>> {
    let ln = left.node(l);
    let rn = right.node(r);
    let mut out = Vec::new();
    match (ln.is_leaf(), rn.is_leaf()) {
        (true, true) => return None,
        (false, false) if ln.level == rn.level => {
            for le in &ln.entries {
                for re in &rn.entries {
                    if pred.matches(&le.mbr, &re.mbr) {
                        out.push((le.child_id(), re.child_id()));
                    }
                }
            }
        }
        _ => {
            if ln.level > rn.level {
                let rmbr = rn.mbr();
                for le in &ln.entries {
                    if pred.matches(&le.mbr, &rmbr) {
                        out.push((le.child_id(), r));
                    }
                }
            } else {
                let lmbr = ln.mbr();
                for re in &rn.entries {
                    if pred.matches(&lmbr, &re.mbr) {
                        out.push((l, re.child_id()));
                    }
                }
            }
        }
    }
    Some(out)
}

/// Crude upper bound on the leaf-level work of joining the subtrees
/// under a node pair: the product of each side's estimated item count
/// (`len * fanout^level`). Cheap — two node reads, no traversal — and
/// monotone in subtree size, which is all the work-stealing scheduler
/// needs to decide whether a task is worth splitting.
pub fn estimate_pair_work<A: Clone, B: Clone>(
    left: &RTree<A>,
    right: &RTree<B>,
    l: NodeId,
    r: NodeId,
) -> u64 {
    fn est<T: Clone>(tree: &RTree<T>, id: NodeId) -> u64 {
        let node = tree.node(id);
        let fanout = tree.params().max_entries as u64;
        let mut n = node.len() as u64;
        for _ in 0..node.level {
            n = n.saturating_mul(fanout);
        }
        n.max(1)
    }
    est(left, l).saturating_mul(est(right, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeParams;

    fn tree(offset: f64, n: usize, fanout: usize) -> (RTree<usize>, Vec<Rect>) {
        let mut rects = Vec::new();
        for i in 0..n {
            let x = offset + ((i * 2654435761) % 1000) as f64 / 5.0;
            let y = ((i * 40503) % 1000) as f64 / 5.0;
            rects.push(Rect::new(x, y, x + 2.0, y + 2.0));
        }
        let items: Vec<(Rect, usize)> = rects.iter().cloned().zip(0..n).collect();
        (RTree::bulk_load(items, RTreeParams::with_fanout(fanout)), rects)
    }

    fn brute_force(a: &[Rect], b: &[Rect], pred: JoinPredicate) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                if pred.matches(ra, rb) {
                    out.push((i, j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sorted_pairs(c: Vec<super::CandidatePair<usize, usize>>) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = c.into_iter().map(|(_, a, _, b)| (a, b)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn join_matches_nested_loop() {
        let (ta, ra) = tree(0.0, 400, 8);
        let (tb, rb) = tree(50.0, 300, 16); // different fanout => different height
        for pred in [JoinPredicate::Intersects, JoinPredicate::WithinDistance(3.0)] {
            let mut cursor = JoinCursor::new(&ta, &tb, pred);
            let got = sorted_pairs(cursor.collect_all());
            let want = brute_force(&ra, &rb, pred);
            assert_eq!(got, want, "{pred:?}");
        }
    }

    #[test]
    fn self_join_includes_identity_pairs() {
        let (t, r) = tree(0.0, 200, 8);
        let mut cursor = JoinCursor::new(&t, &t, JoinPredicate::Intersects);
        let got = sorted_pairs(cursor.collect_all());
        let want = brute_force(&r, &r, JoinPredicate::Intersects);
        assert_eq!(got, want);
        // identity pairs present
        for i in 0..200 {
            assert!(got.binary_search(&(i, i)).is_ok());
        }
    }

    #[test]
    fn batched_fetches_equal_single_drain() {
        let (ta, _) = tree(0.0, 300, 8);
        let (tb, _) = tree(20.0, 300, 8);
        let mut all = JoinCursor::new(&ta, &tb, JoinPredicate::Intersects);
        let want = sorted_pairs(all.collect_all());
        for batch_size in [1usize, 7, 64, 1000] {
            let mut cursor = JoinCursor::new(&ta, &tb, JoinPredicate::Intersects);
            let mut got = Vec::new();
            loop {
                let b = cursor.next_batch(batch_size);
                if b.is_empty() {
                    break;
                }
                assert!(b.len() <= batch_size);
                got.extend(b);
            }
            assert!(cursor.is_exhausted());
            assert_eq!(sorted_pairs(got), want, "batch_size={batch_size}");
        }
    }

    #[test]
    fn subtree_pairs_cover_full_join() {
        let (ta, ra) = tree(0.0, 500, 8);
        let (tb, rb) = tree(10.0, 500, 8);
        let want = brute_force(&ra, &rb, JoinPredicate::Intersects);
        for levels_down in 0..3 {
            let pairs = subtree_pair_tasks(&ta, &tb, JoinPredicate::Intersects, levels_down);
            let mut got = Vec::new();
            // Emulate slaves: one cursor per pair.
            for (l, r) in pairs {
                let mut c =
                    JoinCursor::from_pairs(&ta, &tb, JoinPredicate::Intersects, vec![(l, r)]);
                got.extend(c.collect_all());
            }
            assert_eq!(sorted_pairs(got), want, "levels_down={levels_down}");
        }
    }

    #[test]
    fn empty_tree_joins_produce_nothing() {
        let (ta, _) = tree(0.0, 50, 8);
        let empty: RTree<usize> = RTree::new(RTreeParams::with_fanout(8));
        let mut c = JoinCursor::new(&ta, &empty, JoinPredicate::Intersects);
        assert!(c.collect_all().is_empty());
        let mut c = JoinCursor::new(&empty, &ta, JoinPredicate::Intersects);
        assert!(c.collect_all().is_empty());
        assert!(subtree_pair_tasks(&empty, &ta, JoinPredicate::Intersects, 1).is_empty());
    }

    #[test]
    fn distance_join_widens_result() {
        let (ta, _) = tree(0.0, 200, 8);
        let (tb, _) = tree(30.0, 200, 8);
        let count = |d: f64| {
            JoinCursor::new(&ta, &tb, JoinPredicate::WithinDistance(d)).collect_all().len()
        };
        let c0 = count(0.0);
        let c5 = count(5.0);
        let c50 = count(50.0);
        assert!(c0 <= c5 && c5 <= c50);
        assert!(c50 > c0, "distance expansion must add pairs on this data");
    }

    #[test]
    fn split_pair_preserves_candidates() {
        let (ta, _) = tree(0.0, 400, 8);
        let (tb, _) = tree(10.0, 300, 16); // unequal heights exercised too
        let pred = JoinPredicate::Intersects;
        let root = (ta.root_id(), tb.root_id());
        let mut whole = JoinCursor::from_pairs(&ta, &tb, pred, vec![root]);
        let want = sorted_pairs(whole.collect_all());

        // Recursively split down to leaf/leaf tasks, then run those.
        let mut atomic = Vec::new();
        let mut todo = vec![root];
        while let Some((l, r)) = todo.pop() {
            match split_pair(&ta, &tb, pred, l, r) {
                None => atomic.push((l, r)),
                Some(children) => todo.extend(children),
            }
        }
        assert!(atomic.len() > 1, "splitting must produce several atomic tasks");
        let mut c = JoinCursor::from_pairs(&ta, &tb, pred, atomic);
        assert_eq!(sorted_pairs(c.collect_all()), want);
    }

    #[test]
    fn work_estimate_shrinks_under_splitting() {
        let (ta, _) = tree(0.0, 600, 8);
        let (tb, _) = tree(5.0, 600, 8);
        let root = (ta.root_id(), tb.root_id());
        let whole = estimate_pair_work(&ta, &tb, root.0, root.1);
        assert!(whole >= 600 * 600 / 4, "estimate must reflect subtree sizes");
        let children = split_pair(&ta, &tb, JoinPredicate::Intersects, root.0, root.1).unwrap();
        for (l, r) in children {
            assert!(estimate_pair_work(&ta, &tb, l, r) < whole);
        }
    }

    #[test]
    fn batch_kernel_matches_brute_force() {
        // Fanout 32 makes leaf pairs cross SWEEP_THRESHOLD, so the
        // plane-sweep runs beside the scans that descend unequal pairs.
        let (ta, ra) = tree(0.0, 500, 32);
        let (tb, rb) = tree(25.0, 400, 32);
        for pred in [JoinPredicate::Intersects, JoinPredicate::WithinDistance(4.0)] {
            let mut c = JoinCursor::new(&ta, &tb, pred);
            assert_eq!(sorted_pairs(c.collect_all()), brute_force(&ra, &rb, pred), "{pred:?}");
            let stats = c.kernel_stats();
            assert!(stats.sweeps > 0, "{pred:?}: expected plane-sweep invocations");
            assert!(stats.tests > 0);
        }
    }

    #[test]
    fn small_nodes_use_scan_fallback() {
        let (ta, ra) = tree(0.0, 60, 4); // 4*4 pairs stay below SWEEP_THRESHOLD
        let (tb, rb) = tree(10.0, 60, 4);
        let mut c = JoinCursor::new(&ta, &tb, JoinPredicate::Intersects);
        let got = sorted_pairs(c.collect_all());
        assert_eq!(got, brute_force(&ra, &rb, JoinPredicate::Intersects));
        let stats = c.kernel_stats();
        assert!(stats.scans > 0 && stats.sweeps == 0);
    }

    #[test]
    fn node_pair_size_picks_sweep_or_scan() {
        // 32*32 leaf pairs sit above SWEEP_THRESHOLD, 8*8 below it: the
        // input's shape alone decides which kernel runs.
        for (fanout, sweeps) in [(32, true), (8, false)] {
            let (ta, ra) = tree(0.0, 500, fanout);
            let (tb, rb) = tree(25.0, 400, fanout);
            let mut c = JoinCursor::new(&ta, &tb, JoinPredicate::Intersects);
            let want = brute_force(&ra, &rb, JoinPredicate::Intersects);
            assert_eq!(sorted_pairs(c.collect_all()), want, "fanout={fanout}");
            let stats = c.kernel_stats();
            assert_eq!(stats.sweeps > 0, sweeps, "fanout={fanout}");
            assert_eq!(stats.scans > 0, !sweeps, "fanout={fanout}");
        }
    }

    #[test]
    fn kernel_stats_merge_covers_all_fields() {
        let mut a = KernelStats { sweeps: 1, scans: 2, tests: 3 };
        a.merge(&a.clone());
        assert_eq!(a, KernelStats { sweeps: 2, scans: 4, tests: 6 });
        a.record(true, 5);
        a.record(false, 1);
        assert_eq!(a, KernelStats { sweeps: 3, scans: 5, tests: 12 });
    }

    #[test]
    fn counters_record_mbr_tests() {
        let c = Arc::new(Counters::new());
        let (ta, _) = tree(0.0, 100, 8);
        let (tb, _) = tree(5.0, 100, 8);
        let mut cursor =
            JoinCursor::new(&ta, &tb, JoinPredicate::Intersects).with_counters(Arc::clone(&c));
        cursor.collect_all();
        assert!(Counters::get(&c.mbr_tests) > 0);
        assert_eq!(Counters::get(&c.mbr_tests), cursor.kernel_stats().tests);
    }
}
