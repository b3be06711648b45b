//! Serial and parallel spatial index creation (paper §5).
//!
//! Both builders run the paper's parallel stages as typed fan-outs: each
//! stage is `dop` slaves on [`Fanout`], the engine's one fan-out
//! runtime, pulling work from one shared work-stealing [`TaskQueue`],
//! and each slave sends its whole output as one message of typed
//! tuples, never SQL rows:
//!
//! * Quadtree (Figure 2): slaves pull slot ranges of the geometry
//!   column, tessellate each row and emit `(tile code, rowid)` pairs;
//!   the B-tree over tile codes is bulk-packed from their sorted merge.
//! * R-tree: stage 1 (geometry loading / MBR extraction) emits each
//!   row's cached MBR as `(Rect, rowid)`; the builder cuts the MBRs into
//!   `dop` slices by x-center, stage 2 *clusters subtrees in parallel* —
//!   each slave STR-packs a slice and returns the subtree — and the
//!   subtrees are merged at the end ([`sdo_rtree::RTree::merge`]).
//!
//! Where Oracle RANGE-partitions the cursor once, one slice per slave,
//! slaves here pull chunks on demand, so clustered data and
//! variable-cost geometries cannot load one slave unevenly. The chunk
//! set covers the slot space exactly once, so results are unchanged.

use crate::params::SpatialIndexParams;
use parking_lot::RwLock;
use sdo_dbms::DbError;
use sdo_geom::{Geometry, Rect};
use sdo_obs::ProfileNode;
use sdo_quadtree::{QuadtreeIndex, TileApprox, TileCode};
use sdo_rtree::{RTree, RTreeParams};
use sdo_storage::{Counters, RowId, Snapshot, Table, Value};
use sdo_tablefunc::{Fanout, Outbox, Row, TaskQueue, TfError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing and shape data from one index build, reported by the
/// experiment harness (Table 3 and the Figure 2 stage trace).
#[derive(Debug, Clone)]
pub struct CreationStats {
    /// Degree of parallelism used.
    pub dop: usize,
    /// Wall-clock of the parallel stage (tessellation / MBR-load +
    /// subtree clustering).
    pub parallel_stage: Duration,
    /// Wall-clock of the final merge/B-tree pack.
    pub merge_stage: Duration,
    /// Items produced by the first parallel stage (tiles or MBRs).
    pub stage_rows: usize,
    /// Input slots actually processed per slave. Under dynamic
    /// scheduling this reflects how the load really spread (a slave
    /// that stalls processes fewer slots), not a predetermined split.
    pub partition_sizes: Vec<usize>,
}

/// Slots per table read lock in a scan stage.
const BATCH_SLOTS: usize = 256;

/// Chunk a table's slot space into work-stealing range tasks: several
/// chunks per worker, so slaves pull often enough for load balancing
/// without paying a queue pop per row.
fn range_tasks(table: &RwLock<Table>, dop: usize) -> Arc<TaskQueue<(usize, usize)>> {
    let hwm = table.read().high_water_mark();
    let chunk = hwm.div_ceil(dop * 8).max(1);
    let tasks = (0..hwm).step_by(chunk).map(|lo| (lo, (lo + chunk).min(hwm))).collect();
    TaskQueue::seed_round_robin(tasks, dop)
}

/// One slave's output and the input units (slots, or MBRs clustered)
/// it consumed.
type SlaveOutput<I> = (Vec<I>, usize);

/// Run one typed build stage: a slave per worker of `queue` on
/// [`Fanout`], each pulling unsplit tasks until the queue runs dry and folding
/// them through `body`, which appends its items and returns the input
/// units the task consumed. Each slave sends its whole output as one
/// message; the outputs come back indexed by worker, or the first error.
/// Under `stage`, slave `N` records its `rows` (`rows` of its items),
/// `wall`, `tasks_executed` and `tasks_stolen`.
fn fan_stage<T, I>(
    stage: &Option<ProfileNode>,
    queue: Arc<TaskQueue<T>>,
    rows: fn(&[I]) -> usize,
    body: impl Fn(T, &mut Vec<I>) -> Result<usize, TfError> + Send + Sync + 'static,
) -> Result<Vec<SlaveOutput<I>>, DbError>
where
    T: Send + 'static,
    I: Send + 'static,
{
    type Msg<I> = (usize, Result<SlaveOutput<I>, TfError>);
    let dop = queue.dop();
    if let Some(n) = stage {
        n.set_attr("dop", dop.to_string());
    }
    let body = Arc::new(body);
    let bodies = (0..dop).map(|w| {
        let (queue, body) = (Arc::clone(&queue), Arc::clone(&body));
        let node = stage.as_ref().map(|n| n.child(format!("slave {w}")));
        move |out: &Outbox<Msg<I>>| {
            let t0 = Instant::now();
            let (mut items, mut consumed) = (Vec::new(), 0);
            let result = std::iter::from_fn(|| queue.next(w, |_| None))
                .take_while(|_| !out.cancelled())
                .try_for_each(|task| body(task, &mut items).map(|n| consumed += n));
            note(&node, t0.elapsed(), rows(&items));
            if let Some(n) = &node {
                // set_metric: a zero must render — a slave that ran no
                // task is the load-imbalance signal.
                n.set_metric("tasks_executed", queue.executed(w));
                n.set_metric("tasks_stolen", queue.stolen(w));
            }
            out.send((w, result.map(|()| (items, consumed))));
        }
    });
    let fanout = Fanout::spawn(dop, bodies, |w| (w, Err(TfError::SlavePanic(w))));
    let mut outputs: Vec<SlaveOutput<I>> = (0..dop).map(|_| (Vec::new(), 0)).collect();
    while let Some((w, output)) = fanout.recv() {
        // Returning early drops the fan-out, which cancels and joins
        // the other slaves.
        outputs[w] = output?;
    }
    Ok(outputs)
}

/// Record a stage's wall time and output rows on its profile node.
fn note(node: &Option<ProfileNode>, wall: Duration, rows: usize) {
    if let Some(n) = node {
        n.add_wall(wall);
        n.add_rows(rows as u64);
    }
}

/// Compute (or adopt) the world extent for a quadtree, over the rows
/// visible at `snap`.
pub fn world_extent_of(
    table: &Arc<RwLock<Table>>,
    column: usize,
    params: &SpatialIndexParams,
    snap: Snapshot,
) -> Result<Rect, DbError> {
    if let Some(r) = params.extent {
        return Ok(r);
    }
    let mut bb = Rect::EMPTY;
    table.read().scan_range_at(0, usize::MAX, &snap, |_, row| {
        if let Some(g) = row[column].as_geometry() {
            bb = bb.union(&g.bbox());
        }
    });
    if bb.is_empty() {
        return Err(DbError::Index(
            "cannot derive a quadtree extent from an empty geometry column; \
             pass extent=min_x:min_y:max_x:max_y"
                .into(),
        ));
    }
    // Pad 1% so boundary geometries never fall outside.
    Ok(bb.expanded((bb.width() + bb.height()) * 0.005 + f64::EPSILON))
}

// ---------------------------------------------------------------------------
// Quadtree creation
// ---------------------------------------------------------------------------

/// Build a quadtree index with `dop`-way parallel tessellation.
pub fn build_quadtree(
    table: &Arc<RwLock<Table>>,
    column: usize,
    params: &SpatialIndexParams,
    dop: usize,
    counters: Arc<Counters>,
) -> Result<(QuadtreeIndex, CreationStats), DbError> {
    let dop = dop.max(1);
    let _span = sdo_obs::span("create.quadtree");
    let world = world_extent_of(table, column, params, Snapshot::LATEST)?;
    let level = params.sdo_level;
    let prof = sdo_obs::current().map(|p| {
        let n = p.child("quadtree build");
        n.set_attr("dop", dop.to_string());
        n.set_attr("level", level.to_string());
        n
    });

    // Stage 1: parallel tessellation.
    let t0 = Instant::now();
    let tess_node = prof.as_ref().map(|p| p.child("parallel tessellation"));
    let slaves = tessellation_stage(table, column, dop, &tess_node, move |rid, g, out| {
        out.extend(tiles(g, &world, level, &counters)?.into_iter().map(|t| (t.code, rid)));
        Ok(())
    })?;
    let partition_sizes = slaves.iter().map(|s| s.1).collect();
    let entries: Vec<(TileCode, RowId)> = slaves.into_iter().flat_map(|s| s.0).collect();
    let (stage_rows, parallel_stage) = (entries.len(), t0.elapsed());
    note(&tess_node, parallel_stage, stage_rows);

    // Stage 2: sort the tiles and pack the B-tree from the sorted run.
    let t1 = Instant::now();
    let index = QuadtreeIndex::bulk_build(world, level, entries, table.read().len());
    let merge_stage = t1.elapsed();
    note(&prof.as_ref().map(|p| p.child("btree pack")), merge_stage, stage_rows);

    Ok((index, CreationStats { dop, parallel_stage, merge_stage, stage_rows, partition_sizes }))
}

/// The quadtree's parallel stage: slaves pull slot ranges of the table
/// and `tessellate` each row with a geometry. A batch's row handles are
/// collected under one table read lock, which is released before the
/// batch is tessellated, so DML is not held up behind tessellation.
fn tessellation_stage(
    table: &Arc<RwLock<Table>>,
    column: usize,
    dop: usize,
    node: &Option<ProfileNode>,
    tessellate: impl Fn(RowId, &Geometry, &mut Vec<(TileCode, RowId)>) -> Result<(), TfError>
        + Send
        + Sync
        + 'static,
) -> Result<Vec<SlaveOutput<(TileCode, RowId)>>, DbError> {
    let table_ = Arc::clone(table);
    fan_stage(node, range_tasks(table, dop), <[_]>::len, move |(lo, hi), out| {
        let mut batch = Vec::with_capacity(BATCH_SLOTS);
        for from in (lo..hi).step_by(BATCH_SLOTS) {
            let to = (from + BATCH_SLOTS).min(hi);
            table_.read().scan_range_at(from, to, &Snapshot::LATEST, |rid, row| {
                if let Some(g) = row[column].as_geometry() {
                    batch.push((rid, Arc::clone(g)));
                }
            });
            for (rid, g) in batch.drain(..) {
                tessellate(rid, &g, out)?;
            }
        }
        Ok(hi - lo)
    })
}

/// A geometry's tiles at `level` over `world`, or the error for one
/// outside the extent.
fn tiles(
    g: &Geometry,
    world: &Rect,
    level: u32,
    counters: &Counters,
) -> Result<Vec<TileApprox>, TfError> {
    if let Some(msg) = outside_extent(g, world) {
        return Err(TfError::Execution(msg));
    }
    Counters::bump(&counters.tessellations);
    Ok(sdo_quadtree::tessellate(g, world, level))
}

/// The `TESSELLATE` table-function body: one row's `(rowid, geometry)`
/// in, its `(tile_code, rowid, interior)` rows appended to `out`.
pub fn tessellate_row(
    rid: RowId,
    g: &Geometry,
    world: &Rect,
    level: u32,
    counters: &Counters,
    out: &mut Vec<Row>,
) -> Result<(), TfError> {
    out.extend(tiles(g, world, level, counters)?.into_iter().map(|t| {
        vec![
            Value::Integer(t.code as i64),
            Value::RowId(rid),
            Value::Integer(i64::from(t.interior)),
        ]
    }));
    Ok(())
}

/// The error for a geometry whose MBR leaves a quadtree's world
/// extent, or `None` when it fits. Tessellation covers only tiles
/// inside the extent, so such a row would be missing from every query
/// that reads the index. An overhang of rounding size (a coordinate
/// computed to lie on the extent's edge can land a few ulps past it)
/// is let through: it loses only a sliver no real window can select.
pub(crate) fn outside_extent(g: &Geometry, world: &Rect) -> Option<String> {
    let bb = g.bbox();
    let slack = (world.width() + world.height()) * 1e-12;
    (!bb.is_empty() && !world.expanded(slack).contains_rect(&bb)).then(|| {
        format!(
            "geometry MBR {bb} lies outside the quadtree extent {}:{}:{}:{}; \
             rebuild the index with a larger extent=min_x:min_y:max_x:max_y",
            world.min_x, world.min_y, world.max_x, world.max_y
        )
    })
}

// ---------------------------------------------------------------------------
// R-tree creation
// ---------------------------------------------------------------------------

/// Build an R-tree index: parallel MBR load, parallel subtree
/// clustering, final merge.
pub fn build_rtree(
    table: &Arc<RwLock<Table>>,
    column: usize,
    params: &SpatialIndexParams,
    dop: usize,
    counters: Arc<Counters>,
) -> Result<(RTree<RowId>, CreationStats), DbError> {
    let dop = dop.max(1);
    let _span = sdo_obs::span("create.rtree");
    let rt_params = RTreeParams::with_fanout(params.tree_fanout);
    let prof = sdo_obs::current().map(|p| {
        let n = p.child("rtree build");
        n.set_attr("dop", dop.to_string());
        n
    });

    // Stage 1: parallel geometry load + MBR extraction. Each row's MBR
    // is cached in its geometry, so it is read under the batch's lock.
    let t0 = Instant::now();
    let load_node = prof.as_ref().map(|p| p.child("parallel mbr load"));
    let table_ = Arc::clone(table);
    let slaves =
        fan_stage(&load_node, range_tasks(table, dop), <[_]>::len, move |(lo, hi), out| {
            for from in (lo..hi).step_by(BATCH_SLOTS) {
                let to = (from + BATCH_SLOTS).min(hi);
                table_.read().scan_range_at(from, to, &Snapshot::LATEST, |rid, row| {
                    if let Some(g) = row[column].as_geometry() {
                        out.push((g.bbox(), rid));
                    }
                });
            }
            Ok(hi - lo)
        })?;
    let partition_sizes = slaves.iter().map(|s| s.1).collect();
    let mut items: Vec<(Rect, RowId)> = slaves.into_iter().flat_map(|s| s.0).collect();
    let stage_rows = items.len();
    note(&load_node, t0.elapsed(), stage_rows);

    // Stage 2: cut the MBRs into `dop` x-center slices so per-slave
    // subtrees overlap little (better merged tree quality), then
    // cluster one subtree per slice in parallel. Each slave's STR pass
    // sorts its own slice, so the cut needs no global sort.
    let t_cluster = Instant::now();
    let cluster_node = prof.as_ref().map(|p| p.child("parallel subtree cluster"));
    let chunk = stage_rows.div_ceil(dop).max(1);
    let mut slices = Vec::with_capacity(dop);
    for k in (1..dop).rev() {
        let cut = (k * chunk).min(items.len());
        if cut < items.len() {
            items.select_nth_unstable_by(cut, |a, b| a.0.center().x.total_cmp(&b.0.center().x));
        }
        slices.push(items.split_off(cut));
    }
    slices.push(items);
    let queue = TaskQueue::seed_round_robin(slices, dop);
    let subtree_rows = |trees: &[RTree<RowId>]| trees.iter().map(RTree::len).sum();
    let clusters = fan_stage(&cluster_node, queue, subtree_rows, move |slice, out| {
        let n = slice.len();
        out.push(RTree::bulk_load(slice, rt_params));
        Ok(n)
    })?;
    let parallel_stage = t0.elapsed();
    note(&cluster_node, t_cluster.elapsed(), stage_rows);

    // Stage 3: merge subtrees.
    let t1 = Instant::now();
    let mut merged = RTree::merge(clusters.into_iter().flat_map(|s| s.0).collect());
    if merged.counters().is_none() {
        merged = merged.with_counters(counters);
    }
    let merge_stage = t1.elapsed();
    note(&prof.as_ref().map(|p| p.child("subtree merge")), merge_stage, merged.len());

    Ok((merged, CreationStats { dop, parallel_stage, merge_stage, stage_rows, partition_sizes }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IndexKindParam;
    use sdo_geom::{Geometry, Polygon};
    use sdo_storage::{DataType, Schema};

    fn geometry_table(n: usize) -> Arc<RwLock<Table>> {
        let mut t =
            Table::new("G", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
        for i in 0..n {
            let x = ((i * 37) % 500) as f64;
            let y = ((i * 91) % 500) as f64;
            let g = Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + 5.0, y + 5.0)));
            t.insert(vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
        }
        Arc::new(RwLock::new(t))
    }

    fn params(kind: IndexKindParam) -> SpatialIndexParams {
        SpatialIndexParams { kind, sdo_level: 6, ..Default::default() }
    }

    #[test]
    fn quadtree_parallel_equals_serial() {
        let table = geometry_table(200);
        let counters = Arc::new(Counters::new());
        let (serial, s1) =
            build_quadtree(&table, 1, &params(IndexKindParam::Quadtree), 1, Arc::clone(&counters))
                .unwrap();
        for dop in [2usize, 4] {
            let (parallel, stats) = build_quadtree(
                &table,
                1,
                &params(IndexKindParam::Quadtree),
                dop,
                Arc::clone(&counters),
            )
            .unwrap();
            assert_eq!(stats.dop, dop);
            assert_eq!(stats.partition_sizes.len(), dop);
            assert_eq!(stats.partition_sizes.iter().sum::<usize>(), 200);
            assert_eq!(parallel.tile_entries(), serial.tile_entries(), "dop={dop}");
            let a: Vec<_> = parallel.iter_entries().collect();
            let b: Vec<_> = serial.iter_entries().collect();
            assert_eq!(a, b, "dop={dop}");
        }
        assert_eq!(s1.stage_rows, serial.tile_entries());
    }

    #[test]
    fn stage_body_runs_without_the_table_lock() {
        // A writer must not wait out a batch's tessellations: they run
        // after the batch's read lock is released. One worker, so no
        // other batch holds the lock.
        let table = geometry_table(300);
        let probe = Arc::clone(&table);
        let slaves = tessellation_stage(&table, 1, 1, &None, move |rid, _, out| {
            assert!(probe.try_write().is_some(), "table locked while the body ran");
            out.push((0, rid));
            Ok(())
        })
        .unwrap();
        assert_eq!((slaves[0].0.len(), slaves[0].1), (300, 300));
    }

    #[test]
    fn rtree_parallel_equals_serial_items() {
        let table = geometry_table(300);
        let counters = Arc::new(Counters::new());
        let (serial, _) =
            build_rtree(&table, 1, &params(IndexKindParam::RTree), 1, Arc::clone(&counters))
                .unwrap();
        for dop in [2usize, 3, 4] {
            let (parallel, _) =
                build_rtree(&table, 1, &params(IndexKindParam::RTree), dop, Arc::clone(&counters))
                    .unwrap();
            parallel.check_invariants().unwrap_or_else(|e| panic!("dop={dop}: {e}"));
            assert_eq!(parallel.len(), serial.len());
            let mut a: Vec<RowId> = parallel.iter_items().map(|(_, r)| *r).collect();
            let mut b: Vec<RowId> = serial.iter_items().map(|(_, r)| *r).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "dop={dop}");
        }
    }

    #[test]
    fn rtree_parallel_query_equivalence() {
        let table = geometry_table(250);
        let counters = Arc::new(Counters::new());
        let (t1, _) =
            build_rtree(&table, 1, &params(IndexKindParam::RTree), 1, Arc::clone(&counters))
                .unwrap();
        let (t4, _) =
            build_rtree(&table, 1, &params(IndexKindParam::RTree), 4, Arc::clone(&counters))
                .unwrap();
        let w = Rect::new(100.0, 100.0, 260.0, 300.0);
        let mut a: Vec<RowId> = t1.query_window(&w).into_iter().map(|(_, r)| r).collect();
        let mut b: Vec<RowId> = t4.query_window(&w).into_iter().map(|(_, r)| r).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_table_errors_without_extent() {
        let t = Arc::new(RwLock::new(Table::new(
            "E",
            Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]),
        )));
        let counters = Arc::new(Counters::new());
        let err =
            build_quadtree(&t, 1, &params(IndexKindParam::Quadtree), 2, Arc::clone(&counters));
        assert!(err.is_err());
        // with an explicit extent it builds an empty index
        let p = SpatialIndexParams {
            extent: Some(Rect::new(0.0, 0.0, 1.0, 1.0)),
            ..params(IndexKindParam::Quadtree)
        };
        let (idx, _) = build_quadtree(&t, 1, &p, 2, counters).unwrap();
        assert!(idx.is_empty());
    }

    #[test]
    fn dop_exceeding_rows_is_fine() {
        let table = geometry_table(3);
        let counters = Arc::new(Counters::new());
        let (tree, stats) =
            build_rtree(&table, 1, &params(IndexKindParam::RTree), 8, counters).unwrap();
        assert_eq!(tree.len(), 3);
        assert_eq!(stats.partition_sizes.iter().sum::<usize>(), 3);
        tree.check_invariants().unwrap();
    }
}
