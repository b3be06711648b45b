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
//! [`sdo_rtree::JoinCursor`]'s suspend/resume parts), a memory-bounded
//! candidate array, and a small geometry buffer cache that makes the
//! rowid-sort fetch-order optimization measurable.

use parking_lot::RwLock;
use sdo_geom::{PreparedGeometry, RelateMask};
use sdo_obs::ProfileNode;
use sdo_rtree::join::{subtree_pair_tasks, CandidatePair};
use sdo_rtree::{JoinCursor, JoinPredicate, KernelStats, NodeId, RTree};
use sdo_storage::{Counters, RowId, Snapshot, Table, Value};
use sdo_tablefunc::{Row, TableFunction, TfError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Per-phase profile nodes for one join instance — the four §4.2
/// phases, reported under the operator (or slave) node when a
/// [`sdo_obs::ProfileSession`] is active. Absent (`None`) otherwise,
/// so the un-profiled path pays nothing. Shared with the partitioned
/// join (`partjoin`), whose "mbr join" phase is the per-tile kernel
/// pass instead of a tree traversal — the names stay identical so
/// profiles compare across engines.
pub(crate) struct JoinPhases {
    pub(crate) node: ProfileNode,
    pub(crate) mbr: ProfileNode,
    pub(crate) sort: ProfileNode,
    pub(crate) fetch: ProfileNode,
    pub(crate) filter: ProfileNode,
}

impl JoinPhases {
    pub(crate) fn new(node: ProfileNode) -> Self {
        JoinPhases {
            mbr: node.child("mbr join"),
            sort: node.child("candidate sort"),
            fetch: node.child("geometry fetch"),
            filter: node.child("exact filter"),
            node,
        }
    }
}

/// Order in which candidate-pair geometries are fetched (§4.2's
/// optimization; the `Arrival` setting exists for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchOrder {
    /// Sort each candidate array by the first rowid — the paper's
    /// choice, "expected to be within 20% of the best approximate
    /// solutions".
    #[default]
    RowidSorted,
    /// Process candidates in MBR-join arrival order (leaf-pair order,
    /// which already has spatial locality).
    Arrival,
    /// Process candidates in a pseudo-random order — the strawman the
    /// paper compares against ("Instead of a random order of fetching
    /// the geometries, sorting ... is much better").
    Random,
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
/// (the paper's rowid-sorted, memory-bounded candidate array); the
/// fields exist for the ablation benches and property tests.
#[derive(Debug, Clone)]
pub struct SpatialJoinConfig {
    /// Maximum candidate pairs held between primary and secondary
    /// filter — "the size of this array is determined by existing
    /// memory resources".
    pub candidate_array: usize,
    /// Order in which candidate geometries are fetched (§4.2).
    pub fetch_order: FetchOrder,
    /// Geometry buffer-cache entries per side (0 disables caching).
    pub cache_size: usize,
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
            fetch_order: FetchOrder::default(),
            cache_size: 512,
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

/// A tiny LRU buffer cache for fetched geometries.
///
/// Models the block buffer cache that makes the paper's rowid-sorted
/// fetch order pay off: consecutive fetches of nearby rowids hit the
/// cache, random order thrashes it. Hits promote the entry to
/// most-recently-used; eviction drops the least-recently-used entry.
/// A fetch that finds no geometry (row deleted mid-join) is neither a
/// hit nor a miss — the statistics count real geometry loads only.
///
/// Entries are [`PreparedGeometry`] wrappers: the decoded edge arrays
/// and segment index a prepared predicate builds on first use stay
/// cached with the geometry, so a hot geometry is prepared once no
/// matter how many candidate pairs it appears in. The wrapper itself
/// is lazy: nothing beyond the `Arc` clone is built until a predicate
/// needs it.
pub(crate) struct GeomCache {
    cap: usize,
    map: std::collections::HashMap<RowId, Arc<PreparedGeometry>>,
    order: VecDeque<RowId>,
    /// MVCC read view: a fetch of a rowid invisible to the snapshot
    /// (uncommitted insert, or committed after the join was pinned)
    /// skips the candidate, exactly like a deleted row.
    snap: Snapshot,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl GeomCache {
    pub(crate) fn new(cap: usize) -> Self {
        GeomCache {
            cap,
            map: std::collections::HashMap::new(),
            order: VecDeque::new(),
            snap: Snapshot::LATEST,
            hits: 0,
            misses: 0,
        }
    }

    /// Pin geometry fetches to an MVCC read snapshot.
    pub(crate) fn at_snapshot(mut self, snap: Snapshot) -> Self {
        self.snap = snap;
        self
    }

    /// Drop cached geometries but keep hit/miss statistics (used by
    /// `close`, after which the stats remain readable).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    pub(crate) fn get(
        &mut self,
        table: &Arc<RwLock<Table>>,
        column: usize,
        rid: RowId,
    ) -> Option<Arc<PreparedGeometry>> {
        if self.cap > 0 {
            if let Some(g) = self.map.get(&rid) {
                self.hits += 1;
                // LRU promotion: the entry moves to the MRU end so a
                // re-referenced geometry outlives one-shot fills.
                if let Some(pos) = self.order.iter().position(|&o| o == rid) {
                    self.order.remove(pos);
                    self.order.push_back(rid);
                }
                return Some(Arc::clone(g));
            }
        }
        let row = table.read().get_at(rid, &self.snap).ok()?;
        let g = Arc::new(PreparedGeometry::from_arc(row.get(column)?.as_geometry().cloned()?));
        self.misses += 1;
        if self.cap > 0 {
            if self.map.len() >= self.cap {
                if let Some(evict) = self.order.pop_front() {
                    self.map.remove(&evict);
                }
            }
            self.map.insert(rid, Arc::clone(&g));
            self.order.push_back(rid);
        }
        Some(g)
    }
}

/// The shared secondary-filter engine — §4.2's second half. Orders one
/// candidate array by the configured [`FetchOrder`], fetches exact
/// geometries through the per-side LRU caches, applies the exact
/// predicate, and appends qualifying rowid pairs to `out`. Both join
/// engines ([`SpatialJoin`]'s tree traversal and the partitioned join
/// in [`crate::partjoin`]) funnel their MBR candidates through here,
/// so fetch-order behavior, exact-test counting, and cache accounting
/// stay identical across engines.
pub(crate) struct SecondaryFilter<'a> {
    pub(crate) left_table: &'a Arc<RwLock<Table>>,
    pub(crate) left_column: usize,
    pub(crate) right_table: &'a Arc<RwLock<Table>>,
    pub(crate) right_column: usize,
    pub(crate) exact: &'a ExactPredicate,
    pub(crate) fetch_order: FetchOrder,
}

impl SecondaryFilter<'_> {
    pub(crate) fn run(
        &self,
        mut candidates: Vec<CandidatePair<RowId, RowId>>,
        lcache: &mut GeomCache,
        rcache: &mut GeomCache,
        counters: &Counters,
        phases: Option<&JoinPhases>,
        out: &mut VecDeque<Row>,
    ) {
        // §4.2: sort the candidate array by the first rowid before
        // fetching geometries.
        let t_sort = phases.map(|_| Instant::now());
        match self.fetch_order {
            FetchOrder::RowidSorted => candidates.sort_by_key(|&(_, l, _, r)| (l, r)),
            FetchOrder::Random => candidates.sort_by_key(|&(_, l, _, r)| {
                // Deterministic shuffle: multiplicative hash of the pair.
                (l.as_u64() ^ r.as_u64().rotate_left(31)).wrapping_mul(0x9E3779B97F4A7C15)
            }),
            FetchOrder::Arrival => {}
        }
        if let (Some(p), Some(t0)) = (phases, t_sort) {
            p.sort.add_wall(t0.elapsed());
        }

        for (lrect, lrid, rrect, rrid) in candidates {
            if matches!(self.exact, ExactPredicate::PrimaryOnly) {
                out.push_back(vec![Value::RowId(lrid), Value::RowId(rrid)]);
                continue;
            }
            let t_fetch = phases.map(|_| Instant::now());
            let lg = lcache.get(self.left_table, self.left_column, lrid);
            let rg = lg
                .is_some()
                .then(|| rcache.get(self.right_table, self.right_column, rrid))
                .flatten();
            if let (Some(p), Some(t0)) = (phases, t_fetch) {
                p.fetch.add_wall(t0.elapsed());
                p.fetch.add_rows(u64::from(lg.is_some()) + u64::from(rg.is_some()));
            }
            let (Some(lg), Some(rg)) = (lg, rg) else {
                continue; // row deleted mid-join: skip, like a CR miss
            };
            // MVCC staleness guard: an in-flight UPDATE leaves the
            // row's old and new index entries side by side until
            // commit prunes one. Both entries fetch the same
            // (snapshot-visible) heap geometry, so only the entry
            // whose MBR matches that geometry may emit — the other
            // belongs to a version this snapshot cannot see, and
            // emitting through it would duplicate the pair.
            if lg.geometry().bbox() != lrect || rg.geometry().bbox() != rrect {
                continue;
            }
            Counters::bump(&counters.exact_tests);
            let t_filter = phases.map(|_| Instant::now());
            let keep = match self.exact {
                ExactPredicate::Masks(masks) => lg.relate_any(&rg, masks),
                ExactPredicate::Distance(d) => lg.within_distance(&rg, *d),
                ExactPredicate::PrimaryOnly => unreachable!(),
            };
            if let (Some(p), Some(t0)) = (phases, t_filter) {
                p.filter.add_wall(t0.elapsed());
                p.filter.add_rows(1);
            }
            if keep {
                out.push_back(vec![Value::RowId(lrid), Value::RowId(rrid)]);
            }
        }
    }
}

/// A parallel slave's handle on the shared work-stealing task queue:
/// where to pull the next subtree-pair task from. The queue keeps the
/// slave's scheduling tallies for `EXPLAIN ANALYZE`.
struct SharedTasks {
    queue: Arc<sdo_tablefunc::TaskQueue<(NodeId, NodeId)>>,
    worker: usize,
}

/// The pipelined spatial join over two R-tree-indexed tables.
pub struct SpatialJoin {
    left: JoinSide,
    right: JoinSide,
    exact: ExactPredicate,
    config: SpatialJoinConfig,
    counters: Arc<Counters>,
    /// Present in work-stealing parallel mode: tasks are pulled from
    /// this shared queue instead of living on the private stack.
    tasks: Option<SharedTasks>,
    /// Suspended traversal state: pending node pairs + undelivered MBR
    /// candidates.
    stack: Vec<(NodeId, NodeId)>,
    carry: VecDeque<CandidatePair<RowId, RowId>>,
    /// Secondary-filtered rows awaiting delivery.
    out: VecDeque<Row>,
    lcache: GeomCache,
    rcache: GeomCache,
    started: bool,
    mbr_exhausted: bool,
    /// Peak candidate-array occupancy (pipelining-memory ablation).
    peak_candidates: usize,
    /// MBR-kernel accounting merged across every resumed cursor.
    kernel_stats: KernelStats,
    result_rows: usize,
    attached: Option<ProfileNode>,
    phases: Option<JoinPhases>,
}

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
    /// Figure 1 decomposition, e.g. from a `SUBTREE_PAIRS` cursor).
    pub fn with_stack(
        left: JoinSide,
        right: JoinSide,
        exact: ExactPredicate,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
        stack: Vec<(NodeId, NodeId)>,
    ) -> Self {
        let cache = config.cache_size;
        let snap = config.snapshot;
        SpatialJoin {
            left,
            right,
            exact,
            config,
            counters,
            tasks: None,
            stack,
            carry: VecDeque::new(),
            out: VecDeque::new(),
            lcache: GeomCache::new(cache).at_snapshot(snap),
            rcache: GeomCache::new(cache).at_snapshot(snap),
            started: false,
            mbr_exhausted: false,
            peak_candidates: 0,
            kernel_stats: KernelStats::default(),
            result_rows: 0,
            attached: None,
            phases: None,
        }
    }

    /// Work-stealing parallel slave: instead of owning a fixed task
    /// stack, this instance pulls subtree-pair tasks from the shared
    /// `queue` as worker `worker`, stealing from siblings when its own
    /// shard runs dry. Oversized tasks (estimated work above
    /// `config.split_threshold`) are split one level and re-queued so
    /// a dense cluster spreads across slaves instead of pinning one.
    pub fn with_shared_tasks(
        left: JoinSide,
        right: JoinSide,
        exact: ExactPredicate,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
        queue: Arc<sdo_tablefunc::TaskQueue<(NodeId, NodeId)>>,
        worker: usize,
    ) -> Self {
        let mut join = Self::with_stack(left, right, exact, config, counters, Vec::new());
        join.tasks = Some(SharedTasks { queue, worker });
        join
    }

    /// Pull the next task from the shared queue onto the private stack,
    /// splitting oversized tasks into re-queued children first. Returns
    /// `false` when the queue is dry (or in serial mode, where there is
    /// no queue).
    fn pull_task(&mut self) -> bool {
        let Some(ts) = &self.tasks else { return false };
        let pred = self.exact.join_predicate();
        loop {
            let Some((l, r)) = ts.queue.pop(ts.worker) else { return false };
            let work = sdo_rtree::join::estimate_pair_work(&self.left.tree, &self.right.tree, l, r);
            if work > self.config.split_threshold {
                if let Some(children) =
                    sdo_rtree::join::split_pair(&self.left.tree, &self.right.tree, pred, l, r)
                {
                    // Children go to the own shard: this worker keeps
                    // descending depth-first while idle siblings steal
                    // the oldest (largest) children from the far end.
                    for c in children {
                        ts.queue.push(ts.worker, c);
                    }
                    continue;
                }
            }
            self.stack.push((l, r));
            return true;
        }
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

    /// Geometry-cache statistics `(hits, misses)` across both sides.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.lcache.hits + self.rcache.hits, self.lcache.misses + self.rcache.misses)
    }

    /// Largest candidate array held at any point.
    pub fn peak_candidates(&self) -> usize {
        self.peak_candidates
    }

    /// MBR-kernel accounting accumulated across all resumed cursors.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel_stats
    }

    /// Total result rows delivered so far.
    pub fn rows_returned(&self) -> usize {
        self.result_rows
    }

    /// Refill the candidate array by resuming the index-based join,
    /// then run the secondary filter over it.
    fn process_one_candidate_array(&mut self) -> Result<(), TfError> {
        // Work-stealing mode: with no private work left, pull the next
        // shared task; a dry queue means this slave is done.
        if self.stack.is_empty()
            && self.carry.is_empty()
            && self.tasks.is_some()
            && !self.pull_task()
        {
            self.mbr_exhausted = true;
            return Ok(());
        }
        // Resume the synchronized traversal from the saved stack.
        let mut cursor = JoinCursor::from_parts(
            &self.left.tree,
            &self.right.tree,
            self.exact.join_predicate(),
            std::mem::take(&mut self.stack),
            std::mem::take(&mut self.carry),
        );
        let t_mbr = self.phases.as_ref().map(|_| Instant::now());
        let candidates = cursor.next_batch(self.config.candidate_array);
        let stats = cursor.kernel_stats();
        self.kernel_stats.merge(&stats);
        if let (Some(p), Some(t0)) = (&self.phases, t_mbr) {
            p.mbr.add_wall(t0.elapsed());
            p.mbr.add_batches(1);
            p.mbr.add_rows(candidates.len() as u64);
        }
        // The cursor is fresh per call, so its stats are this array's
        // delta: one atomic add per candidate array.
        Counters::add(&self.counters.mbr_tests, stats.tests);
        let (stack, carry) = cursor.into_parts();
        self.stack = stack;
        self.carry = carry;
        if candidates.is_empty() && self.stack.is_empty() && self.carry.is_empty() {
            // In work-stealing mode a task may legitimately produce no
            // candidates; the next call pulls again and only a dry
            // queue (above) ends the slave.
            if self.tasks.is_none() {
                self.mbr_exhausted = true;
            }
            return Ok(());
        }
        self.peak_candidates = self.peak_candidates.max(candidates.len());

        let filter = SecondaryFilter {
            left_table: &self.left.table,
            left_column: self.left.column,
            right_table: &self.right.table,
            right_column: self.right.column,
            exact: &self.exact,
            fetch_order: self.config.fetch_order,
        };
        filter.run(
            candidates,
            &mut self.lcache,
            &mut self.rcache,
            &self.counters,
            self.phases.as_ref(),
            &mut self.out,
        );
        Ok(())
    }
}

impl TableFunction for SpatialJoin {
    fn start(&mut self) -> Result<(), TfError> {
        if self.started {
            return Err(TfError::Protocol("start called twice"));
        }
        self.started = true;
        // Resolve the profile target: an explicitly attached node (the
        // executor's operator node, or a parallel slave's node), else a
        // child of the ambient profile if a session is active.
        if let Some(node) =
            self.attached.clone().or_else(|| sdo_obs::current().map(|c| c.child("spatial join")))
        {
            self.phases = Some(JoinPhases::new(node));
        }
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if !self.started {
            return Err(TfError::Protocol("fetch before start"));
        }
        while self.out.len() < max_rows && !self.mbr_exhausted {
            self.process_one_candidate_array()?;
        }
        let n = self.out.len().min(max_rows);
        self.result_rows += n;
        Ok(self.out.drain(..n).collect())
    }

    fn close(&mut self) {
        self.stack.clear();
        self.carry.clear();
        self.out.clear();
        // Flush once: close is idempotent, so take() the phases.
        if let Some(p) = self.phases.take() {
            p.node.add_metric("geom_cache_hits", self.lcache.hits + self.rcache.hits);
            p.node.add_metric("geom_cache_misses", self.lcache.misses + self.rcache.misses);
            // The cache serves the secondary (exact) filter, so its
            // hit rate belongs on that phase node too — set_metric so
            // a cold cache (0 hits) still renders.
            p.filter.set_metric("cache_hits", self.lcache.hits + self.rcache.hits);
            p.filter.set_metric("cache_misses", self.lcache.misses + self.rcache.misses);
            p.node.add_metric("peak_candidates", self.peak_candidates as u64);
            // set_metric: a join that never swept (or never scanned)
            // still renders its zero.
            p.node.set_metric("kernel_sweeps", self.kernel_stats.sweeps);
            p.node.set_metric("kernel_scans", self.kernel_stats.scans);
            p.node.set_metric("kernel_tests", self.kernel_stats.tests);
            if let Some(ts) = &self.tasks {
                // set_metric: zeros must render — a slave at 0 tasks
                // is the imbalance EXPLAIN ANALYZE exists to expose.
                p.node.set_metric("tasks_executed", ts.queue.executed(ts.worker));
                p.node.set_metric("tasks_stolen", ts.queue.stolen(ts.worker));
            }
        }
        self.lcache.clear();
        self.rcache.clear();
    }

    fn attach_profile(&mut self, node: &ProfileNode) {
        self.attached = Some(node.clone());
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
        for (fetch, cap, order) in [
            (1usize, 7usize, FetchOrder::RowidSorted),
            (5, 64, FetchOrder::Arrival),
            (1000, 2, FetchOrder::RowidSorted),
            (17, 4096, FetchOrder::Arrival),
        ] {
            let mut join = SpatialJoin::new(
                l.clone(),
                r.clone(),
                ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
                SpatialJoinConfig {
                    candidate_array: cap,
                    fetch_order: order,
                    cache_size: 16,
                    ..Default::default()
                },
                Arc::new(Counters::new()),
            );
            assert_eq!(run(&mut join, fetch), want, "fetch={fetch} cap={cap} {order:?}");
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

    #[test]
    fn rowid_sorted_fetch_improves_cache_hits() {
        let (l, _) = make_side(0.0, 500);
        let (r, _) = make_side(3.0, 500);
        let hits = |order: FetchOrder| {
            let mut join = SpatialJoin::new(
                l.clone(),
                r.clone(),
                ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
                SpatialJoinConfig {
                    candidate_array: 4096,
                    fetch_order: order,
                    cache_size: 8,
                    ..Default::default()
                },
                Arc::new(Counters::new()),
            );
            let _ = collect_all(&mut join, 256).unwrap();
            join.cache_stats()
        };
        let (h_sorted, m_sorted) = hits(FetchOrder::RowidSorted);
        let (h_random, m_random) = hits(FetchOrder::Random);
        assert!(h_sorted + m_sorted > 0, "cache statistics must survive close()");
        assert_eq!(h_sorted + m_sorted, h_random + m_random, "same total lookups");
        // The paper's claim: sorted beats random fetch order.
        assert!(
            h_sorted > h_random,
            "sorted fetch order must beat random: {h_sorted} vs {h_random}"
        );
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
    fn geom_cache_promotes_on_hit() {
        // cap=2 with access pattern A,B,A,C,A: LRU keeps A alive (B is
        // evicted for C), pure FIFO would evict A for C.
        let (side, _) = make_side(0.0, 3);
        let rid = |i: u64| RowId::new(i);
        let mut cache = GeomCache::new(2);
        for i in [0u64, 1, 0, 2, 0] {
            assert!(cache.get(&side.table, side.column, rid(i)).is_some());
        }
        assert_eq!((cache.hits, cache.misses), (2, 3), "A,B,miss A,hit C,miss A,hit");
    }

    #[test]
    fn deleted_row_fetch_is_not_a_miss() {
        let (side, _) = make_side(0.0, 2);
        let victim = RowId::new(1);
        side.table.write().delete(victim).unwrap();
        let mut cache = GeomCache::new(4);
        assert!(cache.get(&side.table, side.column, RowId::new(0)).is_some());
        assert!(cache.get(&side.table, side.column, victim).is_none());
        assert_eq!((cache.hits, cache.misses), (0, 1), "failed fetch counts as neither");
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
