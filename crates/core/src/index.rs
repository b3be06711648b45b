//! The `SPATIAL_INDEX` indextype: R-tree and quadtree domain indexes.

use crate::create;
use crate::params::{IndexKindParam, SpatialIndexParams};
use parking_lot::RwLock;
use sdo_dbms::extensible::{DomainIndex, IndexType, OperatorCall};
use sdo_dbms::{Database, DbError};
use sdo_geom::{Geometry, Polygon, Rect, RelateMask};
use sdo_quadtree::QuadtreeIndex;
use sdo_rtree::RTree;
use sdo_storage::{Counters, IndexKind, IndexMetadata, RowId, Snapshot, Table, Value};
use std::sync::Arc;

/// The indextype registered as `SPATIAL_INDEX`.
///
/// `CREATE INDEX ... INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('...')
/// PARALLEL n` routes here; parameters choose between the R-tree and
/// the linear quadtree (paper §3: "Quadtree and R-tree indexes are
/// supported as part of this spatial index indextype").
pub struct SpatialIndexType;

impl IndexType for SpatialIndexType {
    fn create_index(
        &self,
        db: &Database,
        index_name: &str,
        table: &str,
        column: &str,
        params: &str,
        dop: usize,
    ) -> Result<Box<dyn DomainIndex>, DbError> {
        let p = SpatialIndexParams::parse(params)?;
        let t = db.table(table)?;
        let col = t
            .read()
            .schema()
            .column_index(column)
            .ok_or_else(|| DbError::Plan(format!("no column {column} on {table}")))?;
        let counters = Arc::clone(db.counters());
        let (index, kind): (Box<dyn DomainIndex>, IndexKind) = match p.kind {
            IndexKindParam::RTree => {
                let (tree, _stats) = create::build_rtree(&t, col, &p, dop, Arc::clone(&counters))?;
                (
                    Box::new(RTreeSpatialIndex {
                        name: index_name.to_string(),
                        table: Arc::clone(&t),
                        column: col,
                        tree: Arc::new(RwLock::new(tree)),
                        counters: Arc::clone(&counters),
                    }),
                    IndexKind::RTree,
                )
            }
            IndexKindParam::Quadtree => {
                let (qt, _stats) = create::build_quadtree(&t, col, &p, dop, Arc::clone(&counters))?;
                (
                    Box::new(QuadtreeSpatialIndex {
                        name: index_name.to_string(),
                        table: Arc::clone(&t),
                        column: col,
                        index: Arc::new(RwLock::new(qt)),
                        counters: Arc::clone(&counters),
                    }),
                    IndexKind::Quadtree,
                )
            }
        };
        db.catalog().register_index(IndexMetadata {
            index_name: index_name.to_string(),
            table_name: table.to_ascii_uppercase(),
            column_name: column.to_ascii_uppercase(),
            kind,
            dimensions: 2,
            fanout: (kind == IndexKind::RTree).then_some(p.tree_fanout),
            tiling_level: (kind == IndexKind::Quadtree).then_some(p.sdo_level),
            create_dop: dop,
            parameters: params.to_string(),
        })?;
        Ok(index)
    }

    fn operators(&self) -> &[&'static str] {
        &["SDO_RELATE", "SDO_WITHIN_DISTANCE", "SDO_FILTER", "SDO_NN"]
    }
}

// ---------------------------------------------------------------------------
// Shared operator plumbing
// ---------------------------------------------------------------------------

/// Decode an operator call into its query geometry and predicate.
enum DecodedOp {
    Relate(Arc<Geometry>, Vec<RelateMask>),
    WithinDistance(Arc<Geometry>, f64),
    Filter(Arc<Geometry>),
    /// k-nearest-neighbour (`SDO_NN(col, q, 'sdo_num_res=k')`).
    Nn(Arc<Geometry>, usize),
}

fn decode_op(call: &OperatorCall) -> Result<DecodedOp, DbError> {
    let q = call
        .args
        .first()
        .and_then(|v| v.as_geometry())
        .cloned()
        .ok_or_else(|| DbError::Index(format!("{}: missing query geometry", call.name)))?;
    match call.name.to_ascii_uppercase().as_str() {
        "SDO_RELATE" => {
            let mask = call.args.get(1).and_then(|v| v.as_text()).unwrap_or("ANYINTERACT");
            Ok(DecodedOp::Relate(q, RelateMask::parse_list(mask)?))
        }
        "SDO_WITHIN_DISTANCE" => {
            let d = sdo_dbms::exec::parse_distance(&call.args[1..])?;
            Ok(DecodedOp::WithinDistance(q, d))
        }
        "SDO_FILTER" => Ok(DecodedOp::Filter(q)),
        "SDO_NN" => {
            let k = sdo_dbms::exec::parse_num_res(&call.args[1..])?;
            Ok(DecodedOp::Nn(q, k))
        }
        other => Err(DbError::Index(format!("unsupported operator {other}"))),
    }
}

/// Exact secondary filter: `relate(data, query, masks)` per candidate,
/// fetching the data geometry by rowid *under the statement snapshot*.
/// The index may hold entries for versions the snapshot cannot see
/// (eager maintenance of in-flight transactions), so every candidate
/// is tested against the version the snapshot sees: index evidence
/// alone never proves a hit. An updated row can have two entries while
/// a snapshot pin defers the old one, so candidates are sorted by rowid
/// and merged first (paper §1 item 3: sort by rowid before fetching),
/// and each row is fetched and tested once. The answer comes out in
/// rowid order.
fn secondary_filter(
    table: &Arc<RwLock<Table>>,
    column: usize,
    counters: &Arc<Counters>,
    snap: &Snapshot,
    candidates: Vec<RowId>,
    mut keep: impl FnMut(&Geometry) -> bool,
) -> Result<Vec<RowId>, DbError> {
    let guard = table.read();
    let mut out = Vec::new();
    for rid in sorted_unique(candidates) {
        let Ok(row) = guard.get_at(rid, snap) else { continue };
        let Some(g) = row[column].as_geometry() else { continue };
        Counters::bump(&counters.exact_tests);
        if keep(g) {
            out.push(rid);
        }
    }
    Ok(out)
}

/// `SDO_FILTER`'s exact answer for one candidate: does the MBR of the
/// row version `snap` sees intersect `window`?
fn mbr_intersects(
    table: &Table,
    rid: RowId,
    snap: &Snapshot,
    column: usize,
    window: &Rect,
) -> bool {
    table
        .get_at(rid, snap)
        .is_ok_and(|row| row[column].as_geometry().is_some_and(|g| g.bbox().intersects(window)))
}

/// Sort candidate rowids and drop repeats, so each is fetched once.
fn sorted_unique(mut rids: Vec<RowId>) -> Vec<RowId> {
    rids.sort_unstable();
    rids.dedup();
    rids
}

// ---------------------------------------------------------------------------
// R-tree spatial index
// ---------------------------------------------------------------------------

/// The R-tree flavour of the spatial index.
pub struct RTreeSpatialIndex {
    name: String,
    table: Arc<RwLock<Table>>,
    column: usize,
    tree: Arc<RwLock<RTree<RowId>>>,
    counters: Arc<Counters>,
}

impl RTreeSpatialIndex {
    /// The underlying tree — used by the `SPATIAL_JOIN` table function,
    /// which (unlike extensible-indexing operators) joins *two*
    /// indexes.
    pub fn tree(&self) -> &Arc<RwLock<RTree<RowId>>> {
        &self.tree
    }

    /// Consistent-read snapshot of the tree for long-running joins.
    pub fn tree_snapshot(&self) -> Arc<RTree<RowId>> {
        Arc::new(self.tree.read().clone())
    }

    /// The indexed base table.
    pub fn table(&self) -> &Arc<RwLock<Table>> {
        &self.table
    }

    /// Index of the geometry column in the base table.
    pub fn geometry_column(&self) -> usize {
        self.column
    }

    fn geom_bbox(&self, row: &[Value]) -> Option<Rect> {
        row.get(self.column).and_then(|v| v.as_geometry()).map(|g| g.bbox())
    }

    /// Filter-refine k-NN: pull MBR candidates in mindist order; stop
    /// once the next lower bound exceeds the current k-th exact
    /// distance. Returns `(exact distance, rowid)` ascending, ties by
    /// rowid — the same order a stable full sort over a rowid-ordered
    /// scan produces, so pushdown is result-identical to ORDER BY.
    fn knn(&self, q: &Geometry, k: usize, snap: &Snapshot) -> Vec<(f64, RowId)> {
        let tree = self.tree.read();
        let table = self.table.read();
        let qbb = q.bbox();
        // Current top-k by exact distance (k is small: linear
        // maintenance beats heap overhead).
        let mut best: Vec<(f64, RowId)> = Vec::with_capacity(k);
        let worst =
            |best: &Vec<(f64, RowId)>| best.last().map(|(d, _)| *d).unwrap_or(f64::INFINITY);
        for (lower, _, rid) in tree.nearest_iter(qbb) {
            if best.len() == k && lower > worst(&best) {
                break; // no remaining candidate can improve top-k
            }
            if best.iter().any(|&(_, r)| r == rid) {
                continue; // duplicate entry from an in-flight update
            }
            let Ok(row) = table.get_at(rid, snap) else { continue };
            let Some(g) = row[self.column].as_geometry() else { continue };
            Counters::bump(&self.counters.exact_tests);
            let d = sdo_geom::distance(g, q);
            // Admit on the full (distance, rowid) order: a candidate
            // tying the k-th distance with a smaller rowid must evict
            // it, or pushdown diverges from the stable sort on ties.
            let admit = best.len() < k || {
                let &(wd, wrid) = best.last().expect("len == k > 0");
                (d, rid) < (wd, wrid)
            };
            if admit {
                let pos = best.partition_point(|&(bd, brid)| (bd, brid) < (d, rid));
                best.insert(pos, (d, rid));
                best.truncate(k);
            }
        }
        best
    }
}

impl DomainIndex for RTreeSpatialIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_insert(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        if let Some(bb) = self.geom_bbox(row) {
            self.tree.write().insert(bb, rid);
        }
        Ok(())
    }

    fn on_delete(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        if let Some(bb) = self.geom_bbox(row) {
            self.tree.write().delete(&bb, &rid);
        }
        Ok(())
    }

    fn evaluate(&self, call: &OperatorCall) -> Result<Vec<RowId>, DbError> {
        let snap = call.snap;
        match decode_op(call)? {
            DecodedOp::Filter(q) => {
                // Primary filter only, per Oracle SDO_FILTER semantics
                // — but answered for the statement's snapshot: each
                // candidate's MBR test repeats against the version the
                // snapshot actually sees.
                let qbb = q.bbox();
                let candidates = sorted_unique(
                    self.tree.read().query_window(&qbb).into_iter().map(|(_, rid)| rid).collect(),
                );
                let guard = self.table.read();
                Ok(candidates
                    .into_iter()
                    .filter(|&rid| mbr_intersects(&guard, rid, &snap, self.column, &qbb))
                    .collect())
            }
            DecodedOp::Relate(q, masks) => {
                if masks.contains(&RelateMask::Disjoint) {
                    // DISJOINT cannot use an intersection-based index:
                    // evaluate exactly over a full snapshot scan.
                    let guard = self.table.read();
                    let mut out = Vec::new();
                    for (rid, row) in guard.scan_at(snap) {
                        let Some(g) = row[self.column].as_geometry() else { continue };
                        Counters::bump(&self.counters.exact_tests);
                        if sdo_geom::relate::relate_any(g, &q, &masks) {
                            out.push(rid);
                        }
                    }
                    return Ok(out);
                }
                let candidates: Vec<RowId> = self
                    .tree
                    .read()
                    .query_window(&q.bbox())
                    .into_iter()
                    .map(|(_, rid)| rid)
                    .collect();
                secondary_filter(&self.table, self.column, &self.counters, &snap, candidates, |g| {
                    sdo_geom::relate::relate_any(g, &q, &masks)
                })
            }
            DecodedOp::WithinDistance(q, d) => {
                let candidates: Vec<RowId> = self
                    .tree
                    .read()
                    .query_within_distance(&q.bbox(), d)
                    .into_iter()
                    .map(|(_, rid)| rid)
                    .collect();
                secondary_filter(&self.table, self.column, &self.counters, &snap, candidates, |g| {
                    sdo_geom::within_distance(g, &q, d)
                })
            }
            DecodedOp::Nn(q, k) => Ok(self.knn(&q, k, &snap).into_iter().map(|(_, r)| r).collect()),
        }
    }

    fn nearest(
        &self,
        query: &Geometry,
        k: usize,
        snap: &Snapshot,
    ) -> Result<Option<Vec<(f64, RowId)>>, DbError> {
        Ok(Some(self.knn(query, k, snap)))
    }

    fn describe(&self) -> String {
        let tree = self.tree.read();
        format!(
            "RTREE {} items={} height={} nodes={} fanout={}",
            self.name,
            tree.len(),
            tree.height(),
            tree.node_count(),
            tree.params().max_entries
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Quadtree spatial index
// ---------------------------------------------------------------------------

/// The linear-quadtree flavour of the spatial index.
pub struct QuadtreeSpatialIndex {
    name: String,
    table: Arc<RwLock<Table>>,
    column: usize,
    index: Arc<RwLock<QuadtreeIndex>>,
    counters: Arc<Counters>,
}

impl QuadtreeSpatialIndex {
    /// The underlying linear quadtree.
    pub fn index(&self) -> &Arc<RwLock<QuadtreeIndex>> {
        &self.index
    }
}

impl DomainIndex for QuadtreeSpatialIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_insert(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        if let Some(g) = row.get(self.column).and_then(|v| v.as_geometry()) {
            let mut index = self.index.write();
            if let Some(msg) = create::outside_extent(g, index.world()) {
                return Err(DbError::Index(msg));
            }
            Counters::bump(&self.counters.tessellations);
            index.insert(rid, g);
        }
        Ok(())
    }

    fn on_delete(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        if let Some(g) = row.get(self.column).and_then(|v| v.as_geometry()) {
            self.index.write().delete(rid, g);
        }
        Ok(())
    }

    fn evaluate(&self, call: &OperatorCall) -> Result<Vec<RowId>, DbError> {
        let snap = call.snap;
        match decode_op(call)? {
            DecodedOp::Filter(q) => {
                // Tiles over-approximate: like the R-tree, answer the MBR
                // test itself, against the version the snapshot sees.
                let qbb = q.bbox();
                let candidates = self.index.read().query_window(&q);
                let guard = self.table.read();
                Ok(candidates
                    .into_iter()
                    .filter(|&rid| mbr_intersects(&guard, rid, &snap, self.column, &qbb))
                    .collect())
            }
            DecodedOp::Relate(q, masks) => {
                if masks.contains(&RelateMask::Disjoint) {
                    let guard = self.table.read();
                    let mut out = Vec::new();
                    for (rid, row) in guard.scan_at(snap) {
                        let Some(g) = row[self.column].as_geometry() else { continue };
                        Counters::bump(&self.counters.exact_tests);
                        if sdo_geom::relate::relate_any(g, &q, &masks) {
                            out.push(rid);
                        }
                    }
                    return Ok(out);
                }
                let candidates = self.index.read().query_window(&q);
                secondary_filter(&self.table, self.column, &self.counters, &snap, candidates, |g| {
                    sdo_geom::relate::relate_any(g, &q, &masks)
                })
            }
            DecodedOp::WithinDistance(q, d) => {
                // Expand the query window by d for the tile-level filter.
                let window = Geometry::Polygon(Polygon::from_rect(&q.bbox().expanded(d)));
                let candidates = self.index.read().query_window(&window);
                secondary_filter(&self.table, self.column, &self.counters, &snap, candidates, |g| {
                    sdo_geom::within_distance(g, &q, d)
                })
            }
            DecodedOp::Nn(..) => Err(DbError::Index(
                "SDO_NN requires an R-tree index (create with 'layer_gtype=RTREE')".into(),
            )),
        }
    }

    fn describe(&self) -> String {
        let idx = self.index.read();
        format!(
            "QUADTREE {} geometries={} tile_rows={} level={}",
            self.name,
            idx.len(),
            idx.tile_entries(),
            idx.level()
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
