//! The `SPATIAL_JOIN` pipelined table function (paper §4).
//!
//! Evaluation follows §4.2 to the letter:
//!
//! > "In the start method, the metadata of the two R-tree indexes ...
//! > is loaded and the subtree roots ... are pushed onto a stack. In
//! > each fetch call, the spatial join processing is resumed using the
//! > contents of the stack ... First the index-based MBRs are compared
//! > for intersection with each other. An array of candidate pairs of
//! > geometries are computed using the two indexes. The size of this
//! > array is determined by existing memory resources. Once the
//! > candidate array is processed, the array is filled by resuming the
//! > index-based join ... Each candidate pair ... \[is\] processed by
//! > first fetching the exact geometries from the two tables and then
//! > comparing them using a secondary (geometry-geometry) filter. ...
//! > sorting the candidate pair based on the first rowid is much
//! > better"
//!
//! [`SpatialJoin`] holds the explicit stack (via
//! [`sdo_rtree::JoinCursor`]'s suspend/resume parts) and a
//! memory-bounded candidate array. The in-memory form of the rowid
//! sort is: after sorting, fetch each distinct rowid of the array once,
//! in rowid order, under one table lock per side.
//!
//! Both join engines run as [`JoinSlave`]s: the tree join
//! ([`SpatialJoin`], over [`TreePairs`]) and the partition join
//! ([`crate::partjoin::PartitionJoin`]) differ only in their
//! [`CandidateSource`] — the task type, the split rule, and how a task
//! yields candidate arrays. Pulling tasks, the secondary filter and
//! the profile are one code path.

use parking_lot::RwLock;
use sdo_geom::{PreparedGeometry, RelateMask};
use sdo_obs::ProfileNode;
use sdo_rtree::join::{estimate_pair_work, split_pair, subtree_pair_tasks, CandidatePair};
use sdo_rtree::{JoinCursor, JoinPredicate, KernelStats, NodeId, RTree};
use sdo_storage::{Counters, RowId, Snapshot, Table, Value};
use sdo_tablefunc::{Row, TableFunction, TaskQueue, TfError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Per-phase profile nodes for one join slave — the four §4.2 phases,
/// reported under the operator (or slave) node when a
/// [`sdo_obs::ProfileSession`] is active. Absent (`None`) otherwise,
/// so the un-profiled path pays nothing. The partition join's
/// "mbr join" phase is the per-tile kernel pass instead of a tree
/// traversal; the names are the same for both engines, so profiles
/// compare across them.
struct JoinPhases {
    node: ProfileNode,
    mbr: ProfileNode,
    sort: ProfileNode,
    fetch: ProfileNode,
    filter: ProfileNode,
}

impl JoinPhases {
    fn new(node: ProfileNode) -> Self {
        JoinPhases {
            mbr: node.child("mbr join"),
            sort: node.child("candidate sort"),
            fetch: node.child("geometry fetch"),
            filter: node.child("exact filter"),
            node,
        }
    }
}

/// The exact predicate applied by the secondary filter.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactPredicate {
    /// `SDO_RELATE`-style mask union.
    Masks(Vec<RelateMask>),
    /// Within-distance join.
    Distance(f64),
    /// Primary filter only: emit every MBR candidate (mask `FILTER`).
    PrimaryOnly,
}

impl ExactPredicate {
    /// Parse the paper's interaction argument: `'intersect'`,
    /// `'mask=...'` masks, or `'distance=d'`.
    pub fn parse(s: &str) -> Result<ExactPredicate, TfError> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("filter") {
            return Ok(ExactPredicate::PrimaryOnly);
        }
        // Prefix match is case-insensitive, like Oracle keyword syntax
        // ('Distance=2.5' must not fall through to mask parsing).
        let dist_prefix = "distance=".len();
        if t.len() >= dist_prefix
            && t.is_char_boundary(dist_prefix)
            && t[..dist_prefix].eq_ignore_ascii_case("distance=")
        {
            let d = &t[dist_prefix..];
            return d
                .trim()
                .parse()
                .map(ExactPredicate::Distance)
                .map_err(|_| TfError::Execution(format!("bad distance '{d}'")));
        }
        RelateMask::parse_list(t)
            .map(ExactPredicate::Masks)
            .map_err(|e| TfError::Execution(e.to_string()))
    }

    /// The MBR-level predicate implied by this exact predicate.
    pub fn join_predicate(&self) -> JoinPredicate {
        match self {
            ExactPredicate::Distance(d) => JoinPredicate::WithinDistance(*d),
            _ => JoinPredicate::Intersects,
        }
    }
}

/// Tuning for the join function. SQL callers always run the defaults
/// (the paper's memory-bounded candidate array); the fields exist for
/// the benches and property tests.
#[derive(Debug, Clone)]
pub struct SpatialJoinConfig {
    /// Maximum candidate pairs held between primary and secondary
    /// filter — "the size of this array is determined by existing
    /// memory resources".
    pub candidate_array: usize,
    /// Work-stealing granularity: a pulled task whose estimated work
    /// ([`sdo_rtree::join::estimate_pair_work`]) exceeds this is split
    /// one level and re-queued, so a single dense subtree pair cannot
    /// pin one slave.
    pub split_threshold: u64,
    /// MVCC read view for geometry fetches and partition scans. The
    /// SQL layer pins this at pipeline instantiation so a streaming
    /// join never mixes rows from before and after a concurrent
    /// commit; [`Snapshot::LATEST`] (the default) preserves the
    /// non-transactional behavior.
    pub snapshot: Snapshot,
}

impl Default for SpatialJoinConfig {
    fn default() -> Self {
        SpatialJoinConfig {
            candidate_array: 4096,
            // One fanout^2 descent below the default task size: coarse
            // enough that splitting stays rare on uniform data, fine
            // enough that a hot cluster spreads across slaves.
            split_threshold: 32_768,
            snapshot: Snapshot::LATEST,
        }
    }
}

/// One side of the join: table + geometry column + R-tree snapshot.
/// Cloning shares the snapshot; it never copies the tree.
#[derive(Clone)]
pub struct JoinSide {
    /// The side's base table (geometries fetched by rowid).
    pub table: Arc<RwLock<Table>>,
    /// Geometry column index.
    pub column: usize,
    /// Snapshot of the side's R-tree index.
    pub tree: Arc<RTree<RowId>>,
}

/// The secondary-filter engine — §4.2's second half. Sorts one
/// candidate array by rowid pair, fetches each side's distinct rowids
/// once, in rowid order, with one [`Table::get_many_at`] per side,
/// applies the exact predicate, and appends qualifying rowid pairs to
/// `out`. Every [`JoinSlave`] runs its candidate arrays through here,
/// whichever engine produced them, so fetch behavior and exact-test
/// counting are one code path.
///
/// The fetched geometries live for one candidate array only: nothing
/// is cached across arrays, so a geometry is fetched (and, when a
/// predicate needs its segment index, prepared) once per array it
/// appears in.
struct SecondaryFilter {
    /// Each side's table and geometry column.
    inputs: [(Arc<RwLock<Table>>, usize); 2],
    exact: ExactPredicate,
    /// The source's [`CandidateSource::VISIBLE`].
    visible: bool,
    /// MVCC read view: a rowid invisible to the snapshot (uncommitted
    /// insert, or committed after the join was pinned) skips its
    /// candidates, exactly like a deleted row.
    snapshot: Snapshot,
    /// Distinct rows looked up (both sides, summed over arrays).
    rows_fetched: u64,
    /// Segment indexes the exact filter built on fetched geometries.
    shapes_built: u64,
}

impl SecondaryFilter {
    /// Filter one candidate array.
    fn run(
        &mut self,
        mut candidates: Vec<CandidatePair<RowId, RowId>>,
        counters: &Counters,
        phases: Option<&JoinPhases>,
        out: &mut VecDeque<Row>,
    ) {
        // §4.2: sort the candidate array by rowid before fetching
        // geometries.
        let t_sort = phases.map(|_| Instant::now());
        candidates.sort_unstable_by_key(|&(_, l, _, r)| (l, r));
        if let (Some(p), Some(t0)) = (phases, t_sort) {
            p.sort.add_wall(t0.elapsed());
        }
        if self.visible && matches!(self.exact, ExactPredicate::PrimaryOnly) {
            out.extend(
                candidates.iter().map(|&(_, l, _, r)| vec![Value::RowId(l), Value::RowId(r)]),
            );
            return;
        }

        let t_fetch = phases.map(|_| Instant::now());
        let mut lrids: Vec<RowId> = candidates.iter().map(|&(_, l, _, _)| l).collect();
        lrids.dedup();
        let mut rrids: Vec<RowId> = candidates.iter().map(|&(_, _, _, r)| r).collect();
        rrids.sort_unstable();
        rrids.dedup();
        let lgeoms = fetch_geometries(&self.inputs[0], &lrids, &self.snapshot);
        let rgeoms = fetch_geometries(&self.inputs[1], &rrids, &self.snapshot);
        self.rows_fetched += (lrids.len() + rrids.len()) as u64;
        if let (Some(p), Some(t0)) = (phases, t_fetch) {
            p.fetch.add_wall(t0.elapsed());
            p.fetch.add_batches(1);
            let found = lgeoms.iter().chain(&rgeoms).filter(|g| g.is_some()).count();
            p.fetch.add_rows(found as u64);
        }

        let t_filter = phases.map(|_| Instant::now());
        let mut tests = 0u64;
        let mut li = 0;
        for (lrect, lrid, rrect, rrid) in candidates {
            // Candidates are sorted by left rowid, so the left slot only
            // moves forward; the right slot is a binary search.
            while lrids[li] != lrid {
                li += 1;
            }
            let ri = rrids.binary_search(&rrid).expect("every right rowid was fetched");
            let (Some(lg), Some(rg)) = (&lgeoms[li], &rgeoms[ri]) else {
                continue; // row deleted mid-join: skip, like a CR miss
            };
            // MVCC staleness guard: an in-flight UPDATE leaves the
            // row's old and new index entries side by side until
            // commit prunes one. Both entries fetch the same
            // (snapshot-visible) heap geometry, so only the entry
            // whose MBR matches that geometry may emit — the other
            // belongs to a version this snapshot cannot see, and
            // emitting through it would duplicate the pair.
            if lg.bbox() != lrect || rg.bbox() != rrect {
                continue;
            }
            let indexed = (lg.has_index(), rg.has_index());
            let keep = match &self.exact {
                ExactPredicate::Masks(masks) => lg.relate_any(rg, masks),
                ExactPredicate::Distance(d) => lg.within_distance(rg, *d),
                // Index entries: a visible, current pair is all the
                // primary filter asks.
                ExactPredicate::PrimaryOnly => true,
            };
            tests += u64::from(!matches!(self.exact, ExactPredicate::PrimaryOnly));
            self.shapes_built += u64::from(!indexed.0 && lg.has_index());
            self.shapes_built += u64::from(!indexed.1 && rg.has_index());
            if keep {
                out.push_back(vec![Value::RowId(lrid), Value::RowId(rrid)]);
            }
        }
        Counters::add(&counters.exact_tests, tests);
        if let (Some(p), Some(t0)) = (phases, t_filter) {
            p.filter.add_wall(t0.elapsed());
            p.filter.add_rows(tests);
        }
    }
}

/// Resolve one side's sorted, distinct rowids to their snapshot-visible
/// geometries under one table read lock. `None` marks a row that is
/// deleted, invisible to `snap`, or not a geometry.
fn fetch_geometries(
    (table, column): &(Arc<RwLock<Table>>, usize),
    rids: &[RowId],
    snap: &Snapshot,
) -> Vec<Option<PreparedGeometry>> {
    let mut geoms = Vec::with_capacity(rids.len());
    table.read().get_many_at(rids, snap, |_, row| {
        let g = row.and_then(|r| r.get(*column)?.as_geometry().cloned());
        geoms.push(g.map(PreparedGeometry::from_arc));
    });
    geoms
}

/// What one join engine contributes to a [`JoinSlave`]: its task type,
/// its split rule, and how one loaded task yields candidate arrays.
/// The tree join ([`TreePairs`]) and the partition join
/// ([`crate::partjoin::TileJoin`]) are the two implementations.
pub trait CandidateSource: Send + 'static {
    /// One unit of join work on the shared [`TaskQueue`].
    type Task: Send + 'static;
    /// The profile node a slave opens under the ambient profile when
    /// no node is attached.
    const NODE: &'static str;
    /// Whether every candidate pairs two rows the join's snapshot sees,
    /// under their current MBRs: true for MBRs scanned under the
    /// snapshot, false for index entries, which may belong to an
    /// invisible or superseded version. Only then may a primary-only
    /// join emit its candidates without fetching them.
    const VISIBLE: bool;
    /// The children of a task whose estimated work exceeds
    /// `threshold`, or `None` to run it whole.
    fn split(&self, task: &Self::Task, threshold: u64) -> Option<Vec<Self::Task>>;
    /// Make `task` the one the following fills draw from.
    fn load(&mut self, task: Self::Task, stats: &mut KernelStats);
    /// Up to `cap` more candidates of the loaded task.
    fn fill(&mut self, cap: usize, stats: &mut KernelStats) -> Vec<CandidatePair<RowId, RowId>>;
    /// Whether the loaded task has no candidates left.
    fn drained(&self) -> bool;
    /// Drop whatever the loaded task still holds.
    fn clear(&mut self);
}

/// One slave of a `SPATIAL_JOIN`, whichever engine feeds it: the
/// paper's §4.2–4.3 loop of pulling a task from the shared
/// [`TaskQueue`], filling a candidate array from it and running the
/// array through the secondary filter, streamed out through
/// `start`/`fetch`/`close`. A serial join is the one-worker case: one
/// slave on a one-worker queue, where nothing is split.
pub struct JoinSlave<E: CandidateSource> {
    source: E,
    filter: SecondaryFilter,
    config: SpatialJoinConfig,
    counters: Arc<Counters>,
    queue: Arc<TaskQueue<E::Task>>,
    worker: usize,
    /// Secondary-filtered rows awaiting delivery.
    out: VecDeque<Row>,
    started: bool,
    exhausted: bool,
    /// Peak candidate-array occupancy (pipelining-memory ablation).
    peak_candidates: usize,
    /// MBR-kernel accounting merged across every task.
    kernel_stats: KernelStats,
    attached: Option<ProfileNode>,
    phases: Option<JoinPhases>,
}

impl<E: CandidateSource> JoinSlave<E> {
    /// A slave pulling from `queue` as worker `worker`, joining the
    /// geometry columns of `inputs` (left, then right).
    pub(crate) fn on_queue(
        source: E,
        inputs: [(Arc<RwLock<Table>>, usize); 2],
        exact: ExactPredicate,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
        queue: Arc<TaskQueue<E::Task>>,
        worker: usize,
    ) -> Self {
        let snapshot = config.snapshot;
        JoinSlave {
            source,
            filter: SecondaryFilter {
                inputs,
                exact,
                visible: E::VISIBLE,
                snapshot,
                rows_fetched: 0,
                shapes_built: 0,
            },
            config,
            counters,
            queue,
            worker,
            out: VecDeque::new(),
            started: false,
            exhausted: false,
            peak_candidates: 0,
            kernel_stats: KernelStats::default(),
            attached: None,
            phases: None,
        }
    }

    /// Largest candidate array held at any point.
    pub fn peak_candidates(&self) -> usize {
        self.peak_candidates
    }

    /// MBR-kernel accounting accumulated across all tasks.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel_stats
    }

    /// Fill one candidate array — pulling the next task first when the
    /// loaded one is drained — and run the secondary filter over it.
    /// An array never spans two tasks.
    fn process_one_candidate_array(&mut self) {
        let mut task = None;
        if self.source.drained() {
            let (source, threshold) = (&self.source, self.config.split_threshold);
            task = self.queue.next(self.worker, |t| source.split(t, threshold));
            if task.is_none() {
                self.exhausted = true;
                return;
            }
        }
        let t_mbr = self.phases.as_ref().map(|_| Instant::now());
        let tests_before = self.kernel_stats.tests;
        if let Some(task) = task {
            self.source.load(task, &mut self.kernel_stats);
        }
        let candidates = self.source.fill(self.config.candidate_array, &mut self.kernel_stats);
        if let (Some(p), Some(t0)) = (&self.phases, t_mbr) {
            p.mbr.add_wall(t0.elapsed());
            p.mbr.add_batches(1);
            p.mbr.add_rows(candidates.len() as u64);
        }
        // One atomic add per candidate array.
        Counters::add(&self.counters.mbr_tests, self.kernel_stats.tests - tests_before);
        if candidates.is_empty() {
            return; // a task may produce no candidates; the next call pulls again
        }
        self.peak_candidates = self.peak_candidates.max(candidates.len());
        self.filter.run(candidates, &self.counters, self.phases.as_ref(), &mut self.out);
    }
}

impl<E: CandidateSource> TableFunction for JoinSlave<E> {
    fn start(&mut self) -> Result<(), TfError> {
        if self.started {
            return Err(TfError::Protocol("start called twice"));
        }
        self.started = true;
        // Resolve the profile target: an explicitly attached node (the
        // executor's operator node, or a parallel slave's node), else a
        // child of the ambient profile if a session is active.
        if let Some(node) =
            self.attached.clone().or_else(|| sdo_obs::current().map(|c| c.child(E::NODE)))
        {
            self.phases = Some(JoinPhases::new(node));
        }
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if !self.started {
            return Err(TfError::Protocol("fetch before start"));
        }
        while self.out.len() < max_rows && !self.exhausted {
            self.process_one_candidate_array();
        }
        let n = self.out.len().min(max_rows);
        Ok(self.out.drain(..n).collect())
    }

    fn close(&mut self) {
        self.source.clear();
        self.out.clear();
        // Flush once: close is idempotent, so take() the phases.
        let Some(p) = self.phases.take() else { return };
        p.fetch.set_metric("rows_fetched", self.filter.rows_fetched);
        p.filter.set_metric("shapes_built", self.filter.shapes_built);
        p.node.add_metric("peak_candidates", self.peak_candidates as u64);
        // set_metric: zeros must render — a join that fetched nothing,
        // never swept, or a slave at 0 tasks is what EXPLAIN ANALYZE
        // exists to expose.
        let (q, w) = (&self.queue, self.worker);
        for (name, value) in [
            ("kernel_sweeps", self.kernel_stats.sweeps),
            ("kernel_scans", self.kernel_stats.scans),
            ("kernel_tests", self.kernel_stats.tests),
            ("tasks_executed", q.executed(w)),
            ("tasks_stolen", q.stolen(w)),
            ("tasks_split", q.split(w)),
        ] {
            p.node.set_metric(name, value);
        }
    }

    fn attach_profile(&mut self, node: &ProfileNode) {
        self.attached = Some(node.clone());
    }
}

/// The tree join's [`CandidateSource`]: a task is a subtree-root pair,
/// split one level by [`split_pair`] when its estimated work exceeds
/// the threshold, and run by the synchronized traversal
/// ([`JoinCursor`]) resumed from the saved stack and carry.
pub struct TreePairs {
    left: Arc<RTree<RowId>>,
    right: Arc<RTree<RowId>>,
    pred: JoinPredicate,
    /// Suspended traversal state: pending node pairs + undelivered MBR
    /// candidates.
    stack: Vec<(NodeId, NodeId)>,
    carry: VecDeque<CandidatePair<RowId, RowId>>,
}

impl CandidateSource for TreePairs {
    type Task = (NodeId, NodeId);
    const NODE: &'static str = "spatial join";
    const VISIBLE: bool = false;

    fn split(&self, &(l, r): &(NodeId, NodeId), threshold: u64) -> Option<Vec<(NodeId, NodeId)>> {
        if estimate_pair_work(&self.left, &self.right, l, r) <= threshold {
            return None;
        }
        split_pair(&self.left, &self.right, self.pred, l, r)
    }

    fn load(&mut self, task: (NodeId, NodeId), _: &mut KernelStats) {
        self.stack.push(task);
    }

    fn fill(&mut self, cap: usize, stats: &mut KernelStats) -> Vec<CandidatePair<RowId, RowId>> {
        let mut cursor = JoinCursor::from_parts(
            &self.left,
            &self.right,
            self.pred,
            std::mem::take(&mut self.stack),
            std::mem::take(&mut self.carry),
        );
        let candidates = cursor.next_batch(cap);
        stats.merge(&cursor.kernel_stats());
        (self.stack, self.carry) = cursor.into_parts();
        candidates
    }

    fn drained(&self) -> bool {
        self.stack.is_empty() && self.carry.is_empty()
    }

    fn clear(&mut self) {
        self.stack.clear();
        self.carry.clear();
    }
}

/// The pipelined spatial join over two R-tree-indexed tables.
pub type SpatialJoin = JoinSlave<TreePairs>;

impl SpatialJoin {
    /// Serial join: seeded with the two root nodes.
    pub fn new(
        left: JoinSide,
        right: JoinSide,
        exact: ExactPredicate,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
    ) -> Self {
        let mut stack = Vec::new();
        if !left.tree.is_empty() && !right.tree.is_empty() {
            stack.push((left.tree.root_id(), right.tree.root_id()));
        }
        Self::with_stack(left, right, exact, config, counters, stack)
    }

    /// Serial join seeded with explicit subtree-root pairs (the paper's
    /// Figure 1 decomposition, e.g. from a `SUBTREE_PAIRS` cursor):
    /// one worker over a one-worker queue, running the pairs from the
    /// last to the first.
    pub fn with_stack(
        left: JoinSide,
        right: JoinSide,
        exact: ExactPredicate,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
        stack: Vec<(NodeId, NodeId)>,
    ) -> Self {
        let queue = TaskQueue::seed_round_robin(stack, 1);
        Self::with_shared_tasks(left, right, exact, config, counters, queue, 0)
    }

    /// Work-stealing parallel slave: pulls subtree-pair tasks from the
    /// shared `queue` as worker `worker`, stealing from siblings when
    /// its own shard runs dry. When a sibling could steal, an oversized
    /// task (estimated work above `config.split_threshold`) is split
    /// one level and re-queued, so a dense cluster spreads across
    /// slaves instead of pinning one.
    pub fn with_shared_tasks(
        left: JoinSide,
        right: JoinSide,
        exact: ExactPredicate,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
        queue: Arc<TaskQueue<(NodeId, NodeId)>>,
        worker: usize,
    ) -> Self {
        let source = TreePairs {
            left: left.tree,
            right: right.tree,
            pred: exact.join_predicate(),
            stack: Vec::new(),
            carry: VecDeque::new(),
        };
        let inputs = [(left.table, left.column), (right.table, right.column)];
        Self::on_queue(source, inputs, exact, config, counters, queue, worker)
    }

    /// Compute the MBR-filtered subtree-root pair tasks for a parallel
    /// join at `levels_down` (Figure 1).
    pub fn parallel_tasks(
        left: &RTree<RowId>,
        right: &RTree<RowId>,
        exact: &ExactPredicate,
        levels_down: u32,
    ) -> Vec<(NodeId, NodeId)> {
        subtree_pair_tasks(left, right, exact.join_predicate(), levels_down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::Geometry;
    use sdo_geom::Polygon;
    use sdo_geom::Rect;
    use sdo_rtree::RTreeParams;
    use sdo_storage::{DataType, Schema};
    use sdo_tablefunc::collect_all;

    fn make_side(offset: f64, n: usize) -> (JoinSide, Vec<Geometry>) {
        let mut t =
            Table::new("T", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
        let mut geoms = Vec::new();
        let mut items = Vec::new();
        for i in 0..n {
            let x = offset + ((i * 53) % 300) as f64;
            let y = ((i * 97) % 300) as f64;
            let g = Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + 8.0, y + 8.0)));
            let rid = t.insert(vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
            items.push((g.bbox(), rid));
            geoms.push(g);
        }
        let tree = Arc::new(RTree::bulk_load(items, RTreeParams::with_fanout(8)));
        (JoinSide { table: Arc::new(RwLock::new(t)), column: 1, tree }, geoms)
    }

    fn brute(a: &[Geometry], b: &[Geometry], exact: &ExactPredicate) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, ga) in a.iter().enumerate() {
            for (j, gb) in b.iter().enumerate() {
                let keep = match exact {
                    ExactPredicate::Masks(m) => sdo_geom::relate::relate_any(ga, gb, m),
                    ExactPredicate::Distance(d) => sdo_geom::within_distance(ga, gb, *d),
                    ExactPredicate::PrimaryOnly => ga.bbox().intersects(&gb.bbox()),
                };
                if keep {
                    out.push((i as u64, j as u64));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn run(join: &mut SpatialJoin, fetch: usize) -> Vec<(u64, u64)> {
        let rows = collect_all(join, fetch).unwrap();
        let mut out: Vec<(u64, u64)> = rows
            .iter()
            .map(|r| (r[0].as_rowid().unwrap().as_u64(), r[1].as_rowid().unwrap().as_u64()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn join_matches_brute_force_for_all_predicates() {
        let (l, lg) = make_side(0.0, 120);
        let (r, rg) = make_side(15.0, 90);
        for exact in [
            ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
            ExactPredicate::Distance(6.0),
            ExactPredicate::PrimaryOnly,
        ] {
            let mut join = SpatialJoin::new(
                l.clone(),
                r.clone(),
                exact.clone(),
                SpatialJoinConfig::default(),
                Arc::new(Counters::new()),
            );
            assert_eq!(run(&mut join, 64), brute(&lg, &rg, &exact), "{exact:?}");
        }
    }

    #[test]
    fn fetch_size_and_candidate_array_do_not_change_results() {
        let (l, lg) = make_side(0.0, 100);
        let (r, rg) = make_side(10.0, 100);
        let want = brute(&lg, &rg, &ExactPredicate::Masks(vec![RelateMask::AnyInteract]));
        for (fetch, cap) in [(1usize, 7usize), (5, 64), (1000, 2), (17, 4096)] {
            let mut join = SpatialJoin::new(
                l.clone(),
                r.clone(),
                ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
                SpatialJoinConfig { candidate_array: cap, ..Default::default() },
                Arc::new(Counters::new()),
            );
            assert_eq!(run(&mut join, fetch), want, "fetch={fetch} cap={cap}");
            assert!(join.peak_candidates() <= cap.max(1));
        }
    }

    #[test]
    fn parallel_subtree_decomposition_covers_serial_result() {
        let (l, lg) = make_side(0.0, 150);
        let (r, rg) = make_side(5.0, 150);
        let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let want = brute(&lg, &rg, &exact);
        for levels in [1u32, 2] {
            let tasks = SpatialJoin::parallel_tasks(&l.tree, &r.tree, &exact, levels);
            assert!(!tasks.is_empty());
            // Emulate slaves: run each task list slice separately.
            let mut got = Vec::new();
            for chunk in tasks.chunks(tasks.len().div_ceil(3).max(1)) {
                let mut join = SpatialJoin::with_stack(
                    l.clone(),
                    r.clone(),
                    exact.clone(),
                    SpatialJoinConfig::default(),
                    Arc::new(Counters::new()),
                    chunk.to_vec(),
                );
                got.extend(run(&mut join, 128));
            }
            got.sort_unstable();
            assert_eq!(got, want, "levels={levels}");
        }
    }

    fn row_fetches(side: &JoinSide) -> u64 {
        Counters::get(&side.table.read().counters().row_fetches)
    }

    fn distinct(mut rids: Vec<u64>) -> u64 {
        rids.sort_unstable();
        rids.dedup();
        rids.len() as u64
    }

    #[test]
    fn join_fetches_each_distinct_rowid_once_per_candidate_array() {
        let (l, _) = make_side(0.0, 200);
        let (r, _) = make_side(3.0, 200);
        let intersect = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let join = |exact: &ExactPredicate, candidate_array: usize| {
            let config = SpatialJoinConfig { candidate_array, ..Default::default() };
            let counters = Arc::new(Counters::new());
            SpatialJoin::new(l.clone(), r.clone(), exact.clone(), config, counters)
        };

        // The primary-only join lists the candidates. Index entries may
        // belong to versions its snapshot cannot see, so it fetches the
        // rows too: one array, each side exactly its distinct rowids.
        let before = (row_fetches(&l), row_fetches(&r));
        let cands = run(&mut join(&ExactPredicate::PrimaryOnly, 4096), 256);
        let n = cands.len() as u64;
        assert!(n > 0 && n <= 4096, "one default array holds every candidate: {n}");
        let dl = distinct(cands.iter().map(|&(a, _)| a).collect());
        let dr = distinct(cands.iter().map(|&(_, b)| b).collect());
        assert_eq!((row_fetches(&l) - before.0, row_fetches(&r) - before.1), (dl, dr));

        // So does the exact join.
        let before = (row_fetches(&l), row_fetches(&r));
        run(&mut join(&intersect, 4096), 256);
        assert_eq!((row_fetches(&l) - before.0, row_fetches(&r) - before.1), (dl, dr));

        // Small arrays: at most two fetches per candidate, and never
        // fewer than one array's worth.
        for cap in [1usize, 7, 64] {
            let before = row_fetches(&l) + row_fetches(&r);
            run(&mut join(&intersect, cap), 256);
            let fetched = row_fetches(&l) + row_fetches(&r) - before;
            assert!(fetched <= 2 * n && fetched >= dl + dr, "cap={cap}: {fetched} of {n}");
        }
    }

    #[test]
    fn row_deleted_mid_join_is_skipped_and_not_a_fetched_geometry() {
        let (l, lg) = make_side(0.0, 200);
        let (r, rg) = make_side(3.0, 200);
        let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let mut want = brute(&lg, &rg, &exact);
        assert!(want.len() > 1);
        // The victim has candidates; its index entry outlives the row.
        let victim = want[0].0;
        want.retain(|&(a, _)| a != victim);
        l.table.write().delete(RowId::new(victim)).unwrap();

        let session = sdo_obs::ProfileSession::begin("q");
        let counters = Arc::new(Counters::new());
        let mut join = SpatialJoin::new(
            l.clone(),
            r.clone(),
            exact,
            SpatialJoinConfig::default(),
            Arc::clone(&counters),
        );
        assert_eq!(run(&mut join, 64), want);
        let profile = session.finish();
        let fetch = profile.root.find("geometry fetch").unwrap();
        // One array: the victim is looked up once and resolves to no
        // geometry, so it is the only row fetched but not delivered.
        assert_eq!(fetch.metric("rows_fetched").unwrap() - fetch.rows, 1);
        let filter = profile.root.find("exact filter").unwrap();
        assert_eq!(filter.rows, Counters::get(&counters.exact_tests));
    }

    #[test]
    fn empty_inputs() {
        let (l, _) = make_side(0.0, 0);
        let (r, _) = make_side(0.0, 10);
        let mut join = SpatialJoin::new(
            l,
            r,
            ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
            SpatialJoinConfig::default(),
            Arc::new(Counters::new()),
        );
        assert!(collect_all(&mut join, 16).unwrap().is_empty());
    }

    #[test]
    fn work_stealing_slaves_match_serial_join() {
        let (l, lg) = make_side(0.0, 200);
        let (r, rg) = make_side(5.0, 200);
        let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let want = brute(&lg, &rg, &exact);
        for dop in [1usize, 2, 4] {
            let tasks = SpatialJoin::parallel_tasks(&l.tree, &r.tree, &exact, 1);
            let queue = sdo_tablefunc::TaskQueue::seed_round_robin(tasks, dop);
            // Tiny threshold forces split-and-requeue on every internal
            // pair, exercising mid-run pushes and steals.
            let config = SpatialJoinConfig { split_threshold: 4, ..Default::default() };
            let mut got = Vec::new();
            for worker in 0..dop {
                let mut join = SpatialJoin::with_shared_tasks(
                    l.clone(),
                    r.clone(),
                    exact.clone(),
                    config.clone(),
                    Arc::new(Counters::new()),
                    Arc::clone(&queue),
                    worker,
                );
                got.extend(run(&mut join, 64));
            }
            got.sort_unstable();
            assert_eq!(got, want, "dop={dop}");
        }

        // One root-pair task at dop 4, fetched round-robin on one
        // thread: the root's split children must spread by stealing, so
        // every slave runs work and slaves 1..4 only get it by stealing.
        let dop = 4;
        let root = vec![(l.tree.root_id(), r.tree.root_id())];
        let queue = sdo_tablefunc::TaskQueue::seed_round_robin(root, dop);
        let config = SpatialJoinConfig { split_threshold: 4, ..Default::default() };
        let mut slaves: Vec<SpatialJoin> = (0..dop)
            .map(|worker| {
                SpatialJoin::with_shared_tasks(
                    l.clone(),
                    r.clone(),
                    exact.clone(),
                    config.clone(),
                    Arc::new(Counters::new()),
                    Arc::clone(&queue),
                    worker,
                )
            })
            .collect();
        let mut got = Vec::new();
        for s in &mut slaves {
            s.start().unwrap();
        }
        loop {
            let mut delivered = 0;
            for s in &mut slaves {
                let batch = s.fetch(8).unwrap();
                delivered += batch.len();
                got.extend(batch.iter().map(|r| {
                    (r[0].as_rowid().unwrap().as_u64(), r[1].as_rowid().unwrap().as_u64())
                }));
            }
            if delivered == 0 {
                break;
            }
        }
        for s in &mut slaves {
            s.close();
        }
        got.sort_unstable();
        assert_eq!(got, want, "round-robin dop=4");
        for w in 0..dop {
            assert!(queue.executed(w) >= 1, "worker {w} ran no task");
        }
        for w in 1..dop {
            assert!(queue.stolen(w) >= 1, "worker {w} never stole");
        }
    }

    #[test]
    fn distance_prefix_is_case_insensitive() {
        for s in ["distance=2.5", "Distance=2.5", "DISTANCE=2.5", "DiStAnCe= 2.5"] {
            assert_eq!(ExactPredicate::parse(s).unwrap(), ExactPredicate::Distance(2.5), "{s}");
        }
        assert!(ExactPredicate::parse("Distance=abc").is_err());
    }

    #[test]
    fn predicate_parsing() {
        assert_eq!(
            ExactPredicate::parse("intersect").unwrap(),
            ExactPredicate::Masks(vec![RelateMask::AnyInteract])
        );
        assert_eq!(
            ExactPredicate::parse("mask=TOUCH+OVERLAP").unwrap(),
            ExactPredicate::Masks(vec![RelateMask::Touch, RelateMask::Overlap])
        );
        assert_eq!(ExactPredicate::parse("distance=2.5").unwrap(), ExactPredicate::Distance(2.5));
        assert_eq!(ExactPredicate::parse("FILTER").unwrap(), ExactPredicate::PrimaryOnly);
        assert!(ExactPredicate::parse("distance=abc").is_err());
        assert!(ExactPredicate::parse("nonsense").is_err());
        assert_eq!(
            ExactPredicate::Distance(1.0).join_predicate(),
            JoinPredicate::WithinDistance(1.0)
        );
    }
}
