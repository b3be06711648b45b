//! Serial and parallel spatial index creation (paper §5).
//!
//! Both builders drive the **same table-function machinery the paper
//! describes**:
//!
//! * Quadtree (Figure 2): the geometry cursor is chunked into slot
//!   ranges that `dop` tessellation slaves pull from a shared
//!   work-stealing queue ([`sdo_tablefunc::scheduler`]); tile rows
//!   funnel back and the B-tree over tile codes is bulk-packed from
//!   the merged sorted run.
//! * R-tree: stage 1 loads geometries and computes MBRs in parallel
//!   (the same dynamically-scheduled cursor chunks); stage 2 spatially
//!   slices the MBR stream and *clusters subtrees in parallel* — each
//!   slave STR-packs its slice into a subtree — and the subtrees are
//!   merged at the end ([`sdo_rtree::RTree::merge`]).
//!
//! Earlier versions RANGE-partitioned the cursor statically, one slice
//! per slave, as Oracle does; with clustered data and variable-cost
//! geometries that loads slaves unevenly, so both stages now pull
//! chunks on demand instead. The chunk set covers the same slot space
//! exactly once, so results are unchanged.

use crate::params::SpatialIndexParams;
use parking_lot::{Mutex, RwLock};
use sdo_dbms::DbError;
use sdo_geom::{Geometry, Rect};
use sdo_quadtree::QuadtreeIndex;
use sdo_rtree::{RTree, RTreeParams};
use sdo_storage::{Counters, RowId, Snapshot, Table, Value};
use sdo_tablefunc::scheduler::{TaskQueue, WorkStealingFn};
use sdo_tablefunc::source::{RowSource, TableCursor};
use sdo_tablefunc::{execute_parallel, Row, TableFunction, TfError};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Rows produced by the parallel stage (tile rows or MBR rows).
    pub stage_rows: usize,
    /// Input slots actually processed per slave. Under dynamic
    /// scheduling this reflects how the load really spread (a slave
    /// that stalls processes fewer slots), not a predetermined split.
    pub partition_sizes: Vec<usize>,
}

/// Chunk a table's slot space into work-stealing range tasks: several
/// chunks per worker, so slaves pull often enough for load balancing
/// without paying a queue pop per row.
fn range_tasks(hwm: usize, dop: usize) -> Vec<(usize, usize)> {
    let chunk = hwm.div_ceil(dop.max(1) * 8).max(1);
    let mut tasks = Vec::new();
    let mut lo = 0;
    while lo < hwm {
        let hi = (lo + chunk).min(hwm);
        tasks.push((lo, hi));
        lo = hi;
    }
    tasks
}

/// Build `dop` work-stealing slave instances over a geometry cursor:
/// each slave pulls `(lo, hi)` slot ranges from a shared [`TaskQueue`]
/// and maps every `(rowid, geometry)` row through `body`. Returns the
/// instances plus the per-worker processed-slot counters that become
/// [`CreationStats::partition_sizes`].
fn stealing_cursor_stage(
    table: &Arc<RwLock<Table>>,
    column: usize,
    dop: usize,
    body: impl Fn(Row) -> Result<Vec<Row>, TfError> + Send + Sync + 'static,
) -> (Vec<Box<dyn TableFunction>>, Arc<Vec<AtomicUsize>>) {
    let hwm = table.read().high_water_mark();
    let queue = TaskQueue::seed_round_robin(range_tasks(hwm, dop), dop);
    let processed: Arc<Vec<AtomicUsize>> =
        Arc::new((0..dop).map(|_| AtomicUsize::new(0)).collect());
    let body = Arc::new(body);
    let instances = (0..dop)
        .map(|worker| {
            let table = Arc::clone(table);
            let body = Arc::clone(&body);
            let processed = Arc::clone(&processed);
            Box::new(WorkStealingFn::new(
                Arc::clone(&queue),
                worker,
                move |(lo, hi): (usize, usize)| {
                    let mut cursor = TableCursor::slice(Arc::clone(&table), lo, hi)
                        .with_projection(vec![column]);
                    let mut out = Vec::new();
                    loop {
                        let batch = cursor.next_batch(256);
                        if batch.is_empty() {
                            break;
                        }
                        for row in batch {
                            out.extend(body(row)?);
                        }
                    }
                    processed[worker].fetch_add(hi - lo, Ordering::Relaxed);
                    Ok(out)
                },
            )) as Box<dyn TableFunction>
        })
        .collect();
    (instances, processed)
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
    let guard = table.read();
    let mut bb = Rect::EMPTY;
    for (_, row) in guard.scan_at(snap) {
        if let Some(g) = row[column].as_geometry() {
            bb = bb.union(&g.bbox());
        }
    }
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
    let geometry_count = table.read().len();
    let prof = sdo_obs::current().map(|p| {
        let n = p.child("quadtree build");
        n.set_attr("dop", dop.to_string());
        n.set_attr("level", level.to_string());
        n
    });

    // Stage 1: parallel tessellation through work-stealing table
    // functions pulling cursor chunks on demand.
    let t0 = Instant::now();
    let stage_counters = Arc::clone(&counters);
    let (instances, processed) = stealing_cursor_stage(table, column, dop, move |row: Row| {
        tessellate_row(&row, &world, level, &stage_counters)
    });
    let tess_node = prof.as_ref().map(|p| p.child("parallel tessellation"));
    let tile_rows = {
        let _scope = tess_node.clone().map(sdo_obs::enter);
        execute_parallel(instances, 1024).map_err(DbError::from)?
    };
    let partition_sizes: Vec<usize> = processed.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let parallel_stage = t0.elapsed();
    if let Some(n) = &tess_node {
        n.add_wall(parallel_stage);
        n.add_rows(tile_rows.len() as u64);
    }

    // Stage 2: decode, sort, pack the B-tree bottom-up.
    let t1 = Instant::now();
    let entries: Vec<(u64, RowId, bool)> = tile_rows
        .iter()
        .map(|r| {
            (
                r[0].as_integer().unwrap_or(0) as u64,
                r[1].as_rowid().unwrap_or(RowId::new(0)),
                r[2].as_integer() == Some(1),
            )
        })
        .collect();
    let stage_rows = entries.len();
    let index =
        QuadtreeIndex::bulk_build(world, level, entries, geometry_count).with_counters(counters);
    let merge_stage = t1.elapsed();
    if let Some(p) = &prof {
        let n = p.child("btree pack");
        n.add_wall(merge_stage);
        n.add_rows(stage_rows as u64);
    }

    Ok((index, CreationStats { dop, parallel_stage, merge_stage, stage_rows, partition_sizes }))
}

/// The tessellation table-function body: `(rowid, geometry)` in,
/// `(tile_code, rowid, interior)` rows out.
pub fn tessellate_row(
    row: &Row,
    world: &Rect,
    level: u32,
    counters: &Counters,
) -> Result<Vec<Row>, TfError> {
    let rid = row[0]
        .as_rowid()
        .ok_or_else(|| TfError::Execution("tessellate: first column must be rowid".into()))?;
    let Some(g) = row.get(1).and_then(|v| v.as_geometry()) else {
        return Ok(Vec::new()); // NULL geometry: no tiles
    };
    if let Some(msg) = outside_extent(g, world) {
        return Err(TfError::Execution(msg));
    }
    Counters::bump(&counters.tessellations);
    Ok(sdo_quadtree::tessellate(g, world, level)
        .into_iter()
        .map(|t| {
            vec![
                Value::Integer(t.code as i64),
                Value::RowId(rid),
                Value::Integer(i64::from(t.interior)),
            ]
        })
        .collect())
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
    let rt_params = RTreeParams::with_fanout(params.tree_fanout)
        .with_split(params.split)
        .with_forced_reinsert(params.forced_reinsert);
    let prof = sdo_obs::current().map(|p| {
        let n = p.child("rtree build");
        n.set_attr("dop", dop.to_string());
        n
    });

    // Stage 1: parallel geometry load + MBR computation, pulling
    // cursor chunks from a shared work-stealing queue.
    let t0 = Instant::now();
    let (instances, processed) = stealing_cursor_stage(table, column, dop, move |row: Row| {
        let rid = row[0]
            .as_rowid()
            .ok_or_else(|| TfError::Execution("mbr load: first column must be rowid".into()))?;
        let Some(g) = row.get(1).and_then(|v| v.as_geometry()) else {
            return Ok(Vec::new());
        };
        let bb = g.bbox();
        Ok(vec![vec![
            Value::RowId(rid),
            Value::Double(bb.min_x),
            Value::Double(bb.min_y),
            Value::Double(bb.max_x),
            Value::Double(bb.max_y),
        ]])
    });
    let load_node = prof.as_ref().map(|p| p.child("parallel mbr load"));
    let mbr_rows = {
        let _scope = load_node.clone().map(sdo_obs::enter);
        execute_parallel(instances, 1024).map_err(DbError::from)?
    };
    let partition_sizes: Vec<usize> = processed.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let stage_rows = mbr_rows.len();
    if let Some(n) = &load_node {
        n.add_wall(t0.elapsed());
        n.add_rows(stage_rows as u64);
    }

    // Decode and spatially slice by x-center so per-slave subtrees have
    // low mutual overlap (better merged tree quality).
    let mut items: Vec<(Rect, RowId)> = mbr_rows
        .iter()
        .map(|r| {
            let rect = Rect::new(
                r[1].as_double().unwrap_or(0.0),
                r[2].as_double().unwrap_or(0.0),
                r[3].as_double().unwrap_or(0.0),
                r[4].as_double().unwrap_or(0.0),
            );
            (rect, r[0].as_rowid().unwrap_or(RowId::new(0)))
        })
        .collect();
    items.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
    let chunk = items.len().div_ceil(dop).max(1);
    let slices: Vec<Vec<(Rect, RowId)>> = items.chunks(chunk).map(|c| c.to_vec()).collect();

    // Stage 2: cluster subtrees in parallel. Each slave is a table
    // function whose payload is an STR bulk load; it reports one
    // summary row and deposits the subtree in a shared slot.
    let subtrees: Arc<Mutex<Vec<Option<RTree<RowId>>>>> =
        Arc::new(Mutex::new((0..slices.len()).map(|_| None).collect()));
    let build_instances: Vec<Box<dyn TableFunction>> = slices
        .into_iter()
        .enumerate()
        .map(|(slot, slice)| {
            let subtrees = Arc::clone(&subtrees);
            Box::new(sdo_tablefunc::table_function::BufferedFn::new(move || {
                let n = slice.len();
                let tree = RTree::bulk_load(slice, rt_params);
                let mbr = tree.mbr();
                subtrees.lock()[slot] = Some(tree);
                Ok(vec![vec![
                    Value::Integer(slot as i64),
                    Value::Integer(n as i64),
                    Value::Double(mbr.min_x),
                    Value::Double(mbr.min_y),
                    Value::Double(mbr.max_x),
                    Value::Double(mbr.max_y),
                ]])
            })) as Box<dyn TableFunction>
        })
        .collect();
    let cluster_node = prof.as_ref().map(|p| p.child("parallel subtree cluster"));
    let t_cluster = Instant::now();
    {
        let _scope = cluster_node.clone().map(sdo_obs::enter);
        execute_parallel(build_instances, 16).map_err(DbError::from)?;
    }
    let parallel_stage = t0.elapsed();
    if let Some(n) = &cluster_node {
        n.add_wall(t_cluster.elapsed());
    }

    // Stage 3: merge subtrees.
    let t1 = Instant::now();
    let trees: Vec<RTree<RowId>> = subtrees.lock().iter_mut().filter_map(|s| s.take()).collect();
    let mut merged = RTree::merge(trees);
    if merged.counters().is_none() {
        merged = merged.with_counters(counters);
    }
    let merge_stage = t1.elapsed();
    if let Some(p) = &prof {
        let n = p.child("subtree merge");
        n.add_wall(merge_stage);
        n.add_rows(merged.len() as u64);
    }

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
