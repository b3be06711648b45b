//! Partition-parallel spatial join with two-layer duplicate avoidance.
//!
//! The paper parallelizes its join by descending both R-trees and
//! fanning out subtree pairs (Figure 1) — which presumes both inputs
//! *have* R-trees. This module is the second join engine, which
//! `SPATIAL_JOIN` runs whenever the inputs lack a matching pair of
//! indexes: a space-oriented grid
//! partition join in the style of Tsitsigkos & Mamoulis (arXiv
//! 1908.11740), needing no index at all, with the two-layer class
//! scheme of arXiv 2307.09256 so results need **no dedup or sort
//! pass** despite objects being replicated to every tile they overlap.
//!
//! ## The two-layer classes
//!
//! A uniform `nx x ny` grid is sized from [`SpatialSample`] stats.
//! Each MBR is assigned to every tile it overlaps and *classified*
//! per tile by where its low corner falls, using the clamped monotone
//! tile maps `fx`/`fy` (out-of-range coordinates clamp to the edge
//! tiles, so edge tiles act as half-open strips to infinity and the
//! sampled extent need not cover the data):
//!
//! * **A** — `fx(min_x)` and `fy(min_y)` are both this tile: the MBR
//!   *starts* here,
//! * **B** — starts in this tile column, entered from below
//!   (`fy(min_y)` earlier),
//! * **C** — starts in this tile row, entered from the left,
//! * **D** — entered diagonally: both coordinates started earlier.
//!
//! Per tile, only the class combinations `A x A`, `A x B`, `B x A`,
//! `A x C`, `C x A`, `A x D`, `D x A`, `B x C`, `C x B` are joined.
//!
//! **Exactly-once argument.** For rects `l`, `r` define the reference
//! tile `T*(l,r) = (max(fx(l.min_x), fx(r.min_x)), max(fy(l.min_y),
//! fy(r.min_y)))` — the tile holding the low corner of the pair's
//! x/y-range intersection. Direct case analysis shows the combination
//! `(class_T(l), class_T(r))` is in the allowed set **iff** `T =
//! T*(l,r)`: the allowed set is exactly the combinations where the
//! *later* of the two starting columns and the later of the two
//! starting rows are this tile's. `T*` is unique, so any pair is
//! MBR-tested in at most one tile. Conversely, every pair whose MBRs
//! satisfy the join predicate overlaps in both axes (within-distance
//! joins expand the left rect by `d` first, and `mindist <= d`
//! implies per-axis gaps `<= d`), hence `max(min) <= min(max)`
//! per axis, hence both rects are assigned to `T*` — the pair *is*
//! tested there. One tile, one test, zero duplicates, zero misses.
//!
//! ## Execution
//!
//! Tiles with entries on both sides become [`TileTask`]s on the
//! work-stealing [`TaskQueue`]. When a sibling slave could steal, a
//! pulled task whose occupancy product exceeds `split_threshold` is
//! halved over its left-entry range and re-queued, so one hot tile
//! spreads across slaves (skew handling beyond what static tile
//! assignment could do). Each slave matches class runs with the tree
//! join's batch kernels ([`sdo_rtree::join::match_pairs`]: the plane
//! sweep at or above `SWEEP_THRESHOLD`, chunked scans below). The
//! slave itself is the tree join's [`JoinSlave`] loop with
//! [`TileJoin`] as its candidate source: the same secondary filter
//! (rowid-sorted fetches of each array's distinct rows), the same
//! profile, and rowid pairs streamed out of the ordinary
//! `start`/`fetch`/`close` protocol, so `LIMIT` pushdown and memory
//! accounting work unchanged.

use crate::join::{join_predicate, CandidateSource, ExactPredicate, JoinSlave, SpatialJoinConfig};
use parking_lot::RwLock;
use sdo_geom::Rect;
use sdo_rtree::join::{match_pairs, CandidatePair};
use sdo_rtree::kernel::{SoaMbrs, SweepScratch};
use sdo_rtree::{JoinPredicate, KernelStats};
use sdo_storage::{Counters, RowId, Snapshot, SpatialSample, Table};
use sdo_tablefunc::TaskQueue;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Rows sampled per side to size the grid.
const SAMPLE_SIZE: usize = 1024;
/// Grid sizing target: mean entries (both sides) per tile. Balances
/// per-tile sweep cost, which grows with the square of occupancy
/// (every x-overlapping pair in a tile is tested), against per-tile
/// setup cost (nine class-combo kernel launches each), which makes a
/// too-fine grid pay more in overhead than it saves in tests.
/// Replication stays bounded by the tile-edge ≥ 2× object-size cap in
/// [`GridSpec::from_samples`].
const TARGET_OCCUPANCY: usize = 32;
/// Upper bound on grid cells per axis.
const MAX_AXIS_TILES: usize = 256;
/// Floor on the left-entry range of a split task (see
/// [`TileJoin`]'s split rule — kept in lockstep with the blocked
/// right-side emission so each candidate array holds few distinct rows
/// per side, and those rows are fetched once).
const MIN_SPLIT_LEFTS: u32 = 64;
/// Right-side entries per emission block in [`TileJoin`]'s task load:
/// keeps each candidate chunk's distinct right rows few.
const RIGHT_BLOCK: usize = 256;

/// Class indices: A = starts in tile, B = entered from below,
/// C = entered from the left, D = entered diagonally.
const CLASS_A: usize = 0;
const CLASS_B: usize = 1;
const CLASS_C: usize = 2;
const CLASS_D: usize = 3;

/// The per-tile class combinations that make each pair's MBR test run
/// in exactly one tile (see the module docs for the argument).
const ALLOWED_COMBOS: [(usize, usize); 9] = [
    (CLASS_A, CLASS_A),
    (CLASS_A, CLASS_B),
    (CLASS_B, CLASS_A),
    (CLASS_A, CLASS_C),
    (CLASS_C, CLASS_A),
    (CLASS_A, CLASS_D),
    (CLASS_D, CLASS_A),
    (CLASS_B, CLASS_C),
    (CLASS_C, CLASS_B),
];

/// The uniform grid: origin, tile dimensions, tile counts. Index maps
/// clamp, so coordinates outside the (sampled, hence possibly
/// understated) extent land in edge tiles and correctness never
/// depends on sample accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Grid origin (low corner of the sampled extent).
    pub x0: f64,
    /// Grid origin (low corner of the sampled extent).
    pub y0: f64,
    /// Tile width.
    pub tile_w: f64,
    /// Tile height.
    pub tile_h: f64,
    /// Tile columns.
    pub nx: usize,
    /// Tile rows.
    pub ny: usize,
}

impl GridSpec {
    /// Size a grid from per-side samples: aim for `TARGET_OCCUPANCY`
    /// entries per tile and at least `4 * dop` tiles for parallel
    /// fan-out, but keep tiles at least twice the typical object
    /// footprint so the expected replication factor stays O(1).
    pub fn from_samples(left: &SpatialSample, right: &SpatialSample, dop: usize) -> GridSpec {
        let extent = left.extent.union(&right.extent);
        let total = left.rows + right.rows;
        let want_tiles = (total / TARGET_OCCUPANCY).max(4 * dop.max(1)).max(1);
        let axis = (want_tiles as f64).sqrt().ceil().clamp(1.0, MAX_AXIS_TILES as f64) as usize;
        let (mut nx, mut ny) = (axis, axis);

        let w = extent.width().max(0.0);
        let h = extent.height().max(0.0);
        let samples = (left.sampled + right.sampled).max(1) as f64;
        let avg_w = (left.avg_width * left.sampled as f64 + right.avg_width * right.sampled as f64)
            / samples;
        let avg_h = (left.avg_height * left.sampled as f64
            + right.avg_height * right.sampled as f64)
            / samples;
        if avg_w > 0.0 && w > 0.0 {
            nx = nx.min((w / (2.0 * avg_w)).floor().clamp(1.0, MAX_AXIS_TILES as f64) as usize);
        }
        if avg_h > 0.0 && h > 0.0 {
            ny = ny.min((h / (2.0 * avg_h)).floor().clamp(1.0, MAX_AXIS_TILES as f64) as usize);
        }

        let tile_w = if w > 0.0 { w / nx as f64 } else { 1.0 };
        let tile_h = if h > 0.0 { h / ny as f64 } else { 1.0 };
        GridSpec { x0: extent.min_x, y0: extent.min_y, tile_w, tile_h, nx, ny }
    }

    #[inline]
    fn axis_index(v: f64, origin: f64, width: f64, n: usize) -> usize {
        let i = (v - origin) / width;
        if !i.is_finite() || i < 0.0 {
            0
        } else if i >= n as f64 {
            n - 1
        } else {
            i as usize
        }
    }

    /// Clamped tile column of an x coordinate.
    #[inline]
    pub fn col(&self, x: f64) -> usize {
        Self::axis_index(x, self.x0, self.tile_w, self.nx)
    }

    /// Clamped tile row of a y coordinate.
    #[inline]
    pub fn row(&self, y: f64) -> usize {
        Self::axis_index(y, self.y0, self.tile_h, self.ny)
    }

    /// Total tile count.
    pub fn tiles(&self) -> usize {
        self.nx * self.ny
    }
}

/// One side's entries replicated into a tile, grouped into the four
/// class runs (`off[c]..off[c+1]` is class `c`'s run). Rects are the
/// *original* MBRs — classification used the (possibly expanded)
/// assignment rect, but predicates must see the real geometry bounds.
struct TileSide {
    rects: Vec<Rect>,
    rids: Vec<RowId>,
    off: [u32; 5],
}

impl TileSide {
    fn len(&self) -> usize {
        self.rects.len()
    }

    fn class_range(&self, class: usize) -> Range<usize> {
        self.off[class] as usize..self.off[class + 1] as usize
    }
}

#[inline]
fn class_of(tx: usize, ty: usize, start_col: usize, start_row: usize) -> usize {
    match (tx == start_col, ty == start_row) {
        (true, true) => CLASS_A,
        (true, false) => CLASS_B,
        (false, true) => CLASS_C,
        (false, false) => CLASS_D,
    }
}

/// Scan a table snapshot and replicate every valid MBR into its tiles
/// with class tags, one [`TileSide`] per grid tile. `expand` widens
/// the *assignment* rect by a distance-join radius (stored rects stay
/// exact); rows without a geometry or with an empty/NaN bbox are
/// skipped — they never join.
fn partition_side(
    table: &Table,
    column: usize,
    grid: &GridSpec,
    expand: f64,
    snap: &Snapshot,
) -> Vec<TileSide> {
    let mut items: Vec<(Rect, RowId)> = Vec::with_capacity(table.len());
    table.scan_range_at(0, usize::MAX, snap, |rid, row| {
        if let Some(b) = row.get(column).and_then(|v| v.as_geometry()).map(|g| g.bbox()) {
            if !b.is_empty() {
                items.push((b, rid));
            }
        }
    });
    let coverage = |r: &Rect| {
        let e = if expand > 0.0 {
            Rect::new(r.min_x - expand, r.min_y - expand, r.max_x + expand, r.max_y + expand)
        } else {
            *r
        };
        (grid.col(e.min_x), grid.col(e.max_x), grid.row(e.min_y), grid.row(e.max_y))
    };

    // Counting pass, then placement into exact-sized class runs — two
    // cheap passes over the MBR list instead of per-tile Vec churn.
    let mut counts = vec![[0u32; 4]; grid.tiles()];
    for (r, _) in &items {
        let (c0, c1, r0, r1) = coverage(r);
        for ty in r0..=r1 {
            for tx in c0..=c1 {
                counts[ty * grid.nx + tx][class_of(tx, ty, c0, r0)] += 1;
            }
        }
    }
    let mut tiles: Vec<TileSide> = counts
        .iter()
        .map(|c| {
            let mut off = [0u32; 5];
            for k in 0..4 {
                off[k + 1] = off[k] + c[k];
            }
            let n = off[4] as usize;
            TileSide { rects: vec![Rect::EMPTY; n], rids: vec![RowId::new(0); n], off }
        })
        .collect();
    let mut cursor: Vec<[u32; 4]> =
        tiles.iter().map(|t| [t.off[0], t.off[1], t.off[2], t.off[3]]).collect();
    for (r, rid) in &items {
        let (c0, c1, r0, r1) = coverage(r);
        for ty in r0..=r1 {
            for tx in c0..=c1 {
                let t = ty * grid.nx + tx;
                let class = class_of(tx, ty, c0, r0);
                let slot = cursor[t][class] as usize;
                cursor[t][class] += 1;
                tiles[t].rects[slot] = *r;
                tiles[t].rids[slot] = *rid;
            }
        }
    }
    tiles
}

/// One unit of partitioned join work: a tile plus a range over its
/// left-side entries. Tasks start as whole tiles and get halved by
/// occupancy-based splitting when skew concentrates work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTask {
    tile: u32,
    lo: u32,
    hi: u32,
}

/// The shared, immutable build product of a partitioned join: both
/// partitioned sides, the seeded task queue every slave pulls from, and
/// the inputs and predicate the slaves' secondary filter reads. Built
/// once in the table-function factory.
pub struct PartitionState {
    left: Vec<TileSide>,
    right: Vec<TileSide>,
    queue: Arc<TaskQueue<TileTask>>,
    /// Each side's table and geometry column.
    inputs: [(Arc<RwLock<Table>>, usize); 2],
    exact: ExactPredicate,
    /// Tiles holding entries on both sides (= seeded tasks).
    pub partition_tiles: u64,
    /// Max entries (both sides) resident in any single tile — the
    /// skew figure `EXPLAIN ANALYZE` reports.
    pub tile_max_occupancy: u64,
}

impl PartitionState {
    /// Sample both inputs, size the grid, partition both sides, and
    /// seed one task per non-empty tile round-robin across `dop`
    /// queue shards.
    pub fn build(
        left_table: &Arc<RwLock<Table>>,
        left_column: usize,
        right_table: &Arc<RwLock<Table>>,
        right_column: usize,
        exact: &ExactPredicate,
        dop: usize,
        snap: &Snapshot,
    ) -> Arc<PartitionState> {
        let ls = SpatialSample::collect(&left_table.read(), left_column, SAMPLE_SIZE);
        let rs = SpatialSample::collect(&right_table.read(), right_column, SAMPLE_SIZE);
        let grid = GridSpec::from_samples(&ls, &rs, dop);
        let expand = match exact {
            ExactPredicate::Distance(d) => d.max(0.0),
            _ => 0.0,
        };
        let left = partition_side(&left_table.read(), left_column, &grid, expand, snap);
        let right = partition_side(&right_table.read(), right_column, &grid, 0.0, snap);

        let mut tasks = Vec::new();
        let mut max_occupancy = 0u64;
        for (i, (lt, rt)) in left.iter().zip(&right).enumerate() {
            max_occupancy = max_occupancy.max((lt.len() + rt.len()) as u64);
            if lt.len() > 0 && rt.len() > 0 {
                tasks.push(TileTask { tile: i as u32, lo: 0, hi: lt.len() as u32 });
            }
        }
        let partition_tiles = tasks.len() as u64;
        let queue = TaskQueue::seed_round_robin(tasks, dop.max(1));
        Arc::new(PartitionState {
            left,
            right,
            queue,
            inputs: [
                (Arc::clone(left_table), left_column),
                (Arc::clone(right_table), right_column),
            ],
            exact: exact.clone(),
            partition_tiles,
            tile_max_occupancy: max_occupancy,
        })
    }
}

/// The partition join's [`CandidateSource`]: a task is a [`TileTask`],
/// halved over its left-entry range when its occupancy product exceeds
/// the threshold, and matched class run by class run with the SoA
/// kernels into a carry that the fills drain in candidate-array chunks.
pub struct TileJoin {
    state: Arc<PartitionState>,
    pred: JoinPredicate,
    soa_left: SoaMbrs,
    soa_right: SoaMbrs,
    sweep: SweepScratch,
    carry: VecDeque<CandidatePair<RowId, RowId>>,
}

impl CandidateSource for TileJoin {
    type Task = TileTask;
    const NODE: &'static str = "partition join";
    const VISIBLE: bool = true;

    /// Tasks never shrink below `MIN_SPLIT_LEFTS` left entries:
    /// narrower slivers make each sorted candidate chunk span many
    /// right-side blocks (few lefts → few candidates per block),
    /// defeating the blocked emission in [`CandidateSource::load`].
    fn split(&self, t: &TileTask, threshold: u64) -> Option<Vec<TileTask>> {
        let rlen = self.state.right[t.tile as usize].len() as u64;
        let work = u64::from(t.hi - t.lo).saturating_mul(rlen);
        if work <= threshold || t.hi - t.lo < 2 * MIN_SPLIT_LEFTS {
            return None;
        }
        let mid = t.lo + (t.hi - t.lo) / 2;
        Some(vec![TileTask { tile: t.tile, lo: t.lo, hi: mid }, TileTask { lo: mid, ..*t }])
    }

    /// MBR-match the task's left range against the tile's right side,
    /// class combination by class combination, appending candidate
    /// pairs to the carry.
    fn load(&mut self, task: TileTask, stats: &mut KernelStats) {
        let lt = &self.state.left[task.tile as usize];
        let rt = &self.state.right[task.tile as usize];
        let (lo, hi) = (task.lo as usize, task.hi as usize);
        for &(lclass, rclass) in &ALLOWED_COMBOS {
            let lr = lt.class_range(lclass);
            let lr = lr.start.max(lo)..lr.end.min(hi);
            if lr.start >= lr.end {
                continue;
            }
            let rr = rt.class_range(rclass);
            if rr.is_empty() {
                continue;
            }
            let (lrects, lrids) = (&lt.rects[lr.clone()], &lt.rids[lr]);
            let (rrects_all, rrids_all) = (&rt.rects[rr.clone()], &rt.rids[rr]);
            // Emit candidates in right-side blocks. A dense tile holds
            // thousands of rows; an unblocked kernel interleaves them
            // all into every candidate chunk, and the secondary filter
            // then fetches nearly one right row per pair. Blocked
            // emission keeps each chunk's distinct right rows few —
            // same pair set, fetch-friendly order. Task splitting
            // already bounds the left range the same way.
            self.soa_left.fill(lrects.iter());
            for b0 in (0..rrects_all.len()).step_by(RIGHT_BLOCK) {
                let b1 = (b0 + RIGHT_BLOCK).min(rrects_all.len());
                let (rrects, rrids) = (&rrects_all[b0..b1], &rrids_all[b0..b1]);
                self.soa_right.fill(rrects.iter());
                let carry = &mut self.carry;
                match_pairs(
                    &self.soa_left,
                    &self.soa_right,
                    self.pred,
                    &mut self.sweep,
                    stats,
                    |i, j| carry.push_back((lrects[i], lrids[i], rrects[j], rrids[j])),
                );
            }
        }
    }

    fn fill(&mut self, cap: usize, _: &mut KernelStats) -> Vec<CandidatePair<RowId, RowId>> {
        let n = self.carry.len().min(cap);
        self.carry.drain(..n).collect()
    }

    fn drained(&self) -> bool {
        self.carry.is_empty()
    }

    fn clear(&mut self) {
        self.carry.clear();
    }
}

/// One slave of the partitioned join, pulling [`TileTask`]s from the
/// state's shared queue. A serial join is `dop = 1`: a single slave
/// owning every task.
pub type PartitionJoin = JoinSlave<TileJoin>;

impl PartitionJoin {
    /// A slave pulling from `state`'s queue as `worker`.
    pub fn new(
        state: Arc<PartitionState>,
        config: SpatialJoinConfig,
        counters: Arc<Counters>,
        worker: usize,
    ) -> Self {
        let (queue, inputs, exact) =
            (Arc::clone(&state.queue), state.inputs.clone(), state.exact.clone());
        let source = TileJoin {
            pred: join_predicate(&exact),
            state,
            soa_left: SoaMbrs::new(),
            soa_right: SoaMbrs::new(),
            sweep: SweepScratch::new(),
            carry: VecDeque::new(),
        };
        Self::on_queue(source, inputs, exact, config, counters, queue, worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::{Geometry, Polygon};
    use sdo_storage::{DataType, Schema, Value};
    use sdo_tablefunc::table_function::collect_all;

    fn geom_table(name: &str, rects: &[Rect]) -> Arc<RwLock<Table>> {
        let mut t = Table::new(name, Schema::of(&[("GEOM", DataType::Geometry)]));
        for r in rects {
            t.insert(vec![Value::geometry(Geometry::Polygon(Polygon::from_rect(r)))]).unwrap();
        }
        Arc::new(RwLock::new(t))
    }

    fn rects(offset: f64, n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = offset + ((i * 2654435761) % 1000) as f64 / 5.0;
                let y = ((i * 40503) % 1000) as f64 / 5.0;
                Rect::new(x, y, x + 2.0, y + 2.0)
            })
            .collect()
    }

    fn run_join(
        left: &Arc<RwLock<Table>>,
        right: &Arc<RwLock<Table>>,
        exact: ExactPredicate,
        dop: usize,
        config: SpatialJoinConfig,
    ) -> (Vec<(u64, u64)>, KernelStats) {
        let state = PartitionState::build(left, 0, right, 0, &exact, dop, &Snapshot::LATEST);
        let mut pairs = Vec::new();
        let mut stats = KernelStats::default();
        for worker in 0..dop {
            let counters = Arc::new(Counters::new());
            let mut f = PartitionJoin::new(Arc::clone(&state), config.clone(), counters, worker);
            for row in collect_all(&mut f, 777).unwrap() {
                pairs.push((
                    row[0].as_rowid().unwrap().as_u64(),
                    row[1].as_rowid().unwrap().as_u64(),
                ));
            }
            stats.merge(&f.kernel_stats());
        }
        (pairs, stats)
    }

    fn brute(a: &[Rect], b: &[Rect], pred: JoinPredicate) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                if pred.matches(ra, rb) {
                    out.push((i as u64, j as u64));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn partition_join_matches_nested_loop_with_zero_duplicates() {
        let (ra, rb) = (rects(0.0, 400), rects(50.0, 300));
        let (ta, tb) = (geom_table("a", &ra), geom_table("b", &rb));
        // Tiny candidate arrays drive the carry / secondary-filter
        // streaming path.
        let configs = [1usize, 3, 7, 4096]
            .map(|candidate_array| SpatialJoinConfig { candidate_array, ..Default::default() });
        for exact in [ExactPredicate::PrimaryOnly, ExactPredicate::Distance(3.0)] {
            let want = brute(&ra, &rb, join_predicate(&exact));
            for dop in [1usize, 3] {
                for cfg in &configs {
                    let (mut got, _) = run_join(&ta, &tb, exact.clone(), dop, cfg.clone());
                    let n = got.len();
                    got.sort_unstable();
                    got.dedup();
                    assert_eq!(n, got.len(), "duplicates emitted at dop={dop} {exact:?} {cfg:?}");
                    assert_eq!(got, want, "dop={dop} {exact:?} {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn splitting_and_thresholds_preserve_results() {
        let (ra, rb) = (rects(0.0, 500), rects(10.0, 500));
        let (ta, tb) = (geom_table("a", &ra), geom_table("b", &rb));
        let want = brute(&ra, &rb, JoinPredicate::Intersects);
        for split in [8u64, 1024, u64::MAX] {
            let config =
                SpatialJoinConfig { split_threshold: split, ..SpatialJoinConfig::default() };
            let (mut got, stats) = run_join(&ta, &tb, ExactPredicate::PrimaryOnly, 4, config);
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            assert_eq!(n, got.len(), "split={split}");
            assert_eq!(got, want, "split={split}");
            // Tile blocks land on both sides of SWEEP_THRESHOLD.
            assert!(stats.sweeps > 0 && stats.scans > 0, "split={split}: {stats:?}");
        }
    }

    #[test]
    fn grid_clamps_out_of_extent_coordinates() {
        // A sample understating the extent must not lose pairs: rects
        // far outside the grid clamp into edge tiles.
        let sample = SpatialSample {
            rows: 10,
            sampled: 2,
            extent: Rect::new(0.0, 0.0, 10.0, 10.0),
            avg_width: 1.0,
            avg_height: 1.0,
        };
        let grid = GridSpec::from_samples(&sample, &sample, 2);
        assert_eq!(grid.col(-1e9), 0);
        assert_eq!(grid.row(1e9), grid.ny - 1);
        assert_eq!(grid.col(f64::NAN), 0);
    }
}
