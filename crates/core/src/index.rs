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
use std::collections::hash_map::{Entry, HashMap};
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
                (Box::new(SpatialIndex::new(index_name, &t, col, tree, counters)), IndexKind::RTree)
            }
            IndexKindParam::Quadtree => {
                let (qt, _stats) = create::build_quadtree(&t, col, &p, dop, Arc::clone(&counters))?;
                (
                    Box::new(SpatialIndex::new(index_name, &t, col, qt, counters)),
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
/// `SDO_NN` is not one: it ranks rows, through [`DomainIndex::nearest`].
enum DecodedOp {
    Relate(Arc<Geometry>, Vec<RelateMask>),
    WithinDistance(Arc<Geometry>, f64),
    Filter(Arc<Geometry>),
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
        other => Err(DbError::Index(format!("unsupported operator {other}"))),
    }
}

// ---------------------------------------------------------------------------
// The two index structures
// ---------------------------------------------------------------------------

/// What one index structure supplies to the shared operator body:
/// maintenance, and candidate rowids for a query window. Candidates
/// may repeat and may name versions a snapshot cannot see; the caller
/// of `evaluate` refines them.
///
/// Each `(key, rowid)` entry is held once, however many versions of
/// the row map to it, and counts those versions: removing one version
/// leaves the entry while another still needs it, and a join through
/// the index meets the row once per entry.
trait IndexStructure: Send + Sync + 'static {
    /// Index row `rid`'s geometry `g`: add its entry, or count one
    /// more version of it.
    fn add(
        &mut self,
        shared: &mut SharedEntries,
        rid: RowId,
        g: &Geometry,
        counters: &Counters,
    ) -> Result<(), DbError>;

    /// Uncount one version of row `rid`'s entry for geometry `g`; the
    /// last version removes the entry.
    fn remove(&mut self, shared: &mut SharedEntries, rid: RowId, g: &Geometry);

    /// Rows whose entries may interact with `q`'s bounding box.
    fn window(&self, q: &Geometry) -> Vec<RowId>;

    /// Rows whose entries may lie within distance `d` of `q`.
    fn within(&self, q: &Geometry, d: f64) -> Vec<RowId>;

    /// Every indexed row.
    fn all(&self) -> Vec<RowId>;

    /// `(lower bound, rowid)` in ascending lower-bound order of
    /// distance to `q`, or `None` when the structure has no
    /// distance-ordered traversal.
    fn nearest(&self, q: Rect) -> Option<Box<dyn Iterator<Item = (f64, RowId)> + '_>> {
        let _ = q;
        None
    }

    /// The `EXPLAIN` statistics line of an index named `name`.
    fn describe(&self, name: &str) -> String;
}

/// Shared entries of a structure that cannot count versions in place
/// (the R-tree; quadtree tiles count their own): `(rowid, MBR bits)` →
/// the versions beyond the first that map to that one entry. Empty
/// unless a pinned snapshot defers the removal of a version whose MBR
/// another version of the row repeats.
type SharedEntries = HashMap<(RowId, [u64; 4]), u32>;

fn entry_key(rid: RowId, r: &Rect) -> (RowId, [u64; 4]) {
    (rid, [r.min_x.to_bits(), r.min_y.to_bits(), r.max_x.to_bits(), r.max_y.to_bits()])
}

impl IndexStructure for RTree<RowId> {
    fn add(
        &mut self,
        shared: &mut SharedEntries,
        rid: RowId,
        g: &Geometry,
        _: &Counters,
    ) -> Result<(), DbError> {
        let mbr = g.bbox();
        let mut held = false;
        self.query_window_visit(&mbr, &mut |r, &item| held |= item == rid && r == mbr);
        if held {
            *shared.entry(entry_key(rid, &mbr)).or_insert(0) += 1;
        } else {
            self.insert(mbr, rid);
        }
        Ok(())
    }

    fn remove(&mut self, shared: &mut SharedEntries, rid: RowId, g: &Geometry) {
        let mbr = g.bbox();
        match shared.entry(entry_key(rid, &mbr)) {
            Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(_) => {
                self.delete(&mbr, &rid);
            }
        }
    }

    fn window(&self, q: &Geometry) -> Vec<RowId> {
        let mut out = Vec::new();
        self.query_window_visit(&q.bbox(), &mut |_, &rid| out.push(rid));
        out
    }

    fn within(&self, q: &Geometry, d: f64) -> Vec<RowId> {
        self.query_within_distance(&q.bbox(), d).into_iter().map(|(_, rid)| rid).collect()
    }

    fn all(&self) -> Vec<RowId> {
        self.iter_items().map(|(_, &rid)| rid).collect()
    }

    fn nearest(&self, q: Rect) -> Option<Box<dyn Iterator<Item = (f64, RowId)> + '_>> {
        Some(Box::new(self.nearest_iter(q).map(|(lower, _, rid)| (lower, rid))))
    }

    fn describe(&self, name: &str) -> String {
        format!(
            "RTREE {name} items={} height={} nodes={} fanout={}",
            self.len(),
            self.height(),
            self.node_count(),
            self.params().max_entries
        )
    }
}

impl IndexStructure for QuadtreeIndex {
    fn add(
        &mut self,
        _: &mut SharedEntries,
        rid: RowId,
        g: &Geometry,
        counters: &Counters,
    ) -> Result<(), DbError> {
        if let Some(msg) = create::outside_extent(g, self.world()) {
            return Err(DbError::Index(msg));
        }
        Counters::bump(&counters.tessellations);
        self.insert(rid, g);
        Ok(())
    }

    fn remove(&mut self, _: &mut SharedEntries, rid: RowId, g: &Geometry) {
        self.delete(rid, g);
    }

    fn window(&self, q: &Geometry) -> Vec<RowId> {
        self.query_window(q)
    }

    fn within(&self, q: &Geometry, d: f64) -> Vec<RowId> {
        // Expand the query window by d for the tile-level filter.
        self.query_window(&Geometry::Polygon(Polygon::from_rect(&q.bbox().expanded(d))))
    }

    fn all(&self) -> Vec<RowId> {
        self.iter_entries().map(|(_, rid)| rid).collect()
    }

    fn describe(&self, name: &str) -> String {
        format!(
            "QUADTREE {name} geometries={} tile_rows={} level={}",
            self.len(),
            self.tile_entries(),
            self.level()
        )
    }
}

// ---------------------------------------------------------------------------
// The spatial index
// ---------------------------------------------------------------------------

/// A spatial domain index: one index structure over one geometry
/// column. Both kinds answer the operators through one body; each
/// supplies only its candidate rowids.
pub struct SpatialIndex<S> {
    name: String,
    table: Arc<RwLock<Table>>,
    column: usize,
    structure: Arc<RwLock<S>>,
    shared: SharedEntries,
    counters: Arc<Counters>,
}

/// The R-tree flavour of the spatial index.
pub type RTreeSpatialIndex = SpatialIndex<RTree<RowId>>;

/// The linear-quadtree flavour of the spatial index.
pub type QuadtreeSpatialIndex = SpatialIndex<QuadtreeIndex>;

impl<S> SpatialIndex<S> {
    fn new(
        name: &str,
        table: &Arc<RwLock<Table>>,
        column: usize,
        structure: S,
        counters: Arc<Counters>,
    ) -> Self {
        SpatialIndex {
            name: name.to_string(),
            table: Arc::clone(table),
            column,
            structure: Arc::new(RwLock::new(structure)),
            shared: SharedEntries::new(),
            counters,
        }
    }

    /// The indexed base table.
    pub fn table(&self) -> &Arc<RwLock<Table>> {
        &self.table
    }

    /// Index of the geometry column in the base table.
    pub fn geometry_column(&self) -> usize {
        self.column
    }

    fn geometry<'r>(&self, row: &'r [Value]) -> Option<&'r Geometry> {
        row.get(self.column).and_then(|v| v.as_geometry()).map(|g| &**g)
    }
}

impl RTreeSpatialIndex {
    /// The underlying tree — used by the `SPATIAL_JOIN` table function,
    /// which (unlike extensible-indexing operators) joins *two*
    /// indexes.
    pub fn tree(&self) -> &Arc<RwLock<RTree<RowId>>> {
        &self.structure
    }

    /// Consistent-read snapshot of the tree for long-running joins.
    pub fn tree_snapshot(&self) -> Arc<RTree<RowId>> {
        Arc::new(self.structure.read().clone())
    }
}

impl QuadtreeSpatialIndex {
    /// The underlying linear quadtree.
    pub fn index(&self) -> &Arc<RwLock<QuadtreeIndex>> {
        &self.structure
    }
}

/// Filter-refine k-NN: pull MBR candidates in mindist order; stop once
/// the next lower bound exceeds the current k-th exact distance.
/// Returns `(exact distance, rowid)` ascending, ties by rowid — the same
/// order a stable full sort over a rowid-ordered scan produces, so
/// pushdown is result-identical to ORDER BY. `None` when the structure
/// has no distance-ordered traversal.
fn knn<S: IndexStructure>(
    ix: &SpatialIndex<S>,
    q: &Geometry,
    k: usize,
    snap: &Snapshot,
) -> Option<Vec<(f64, RowId)>> {
    let structure = ix.structure.read();
    let candidates = structure.nearest(q.bbox())?;
    let table = ix.table.read();
    // Current top-k by exact distance (k is small: linear
    // maintenance beats heap overhead).
    let mut best: Vec<(f64, RowId)> = Vec::with_capacity(k);
    let worst = |best: &Vec<(f64, RowId)>| best.last().map(|(d, _)| *d).unwrap_or(f64::INFINITY);
    for (lower, rid) in candidates {
        if best.len() == k && lower > worst(&best) {
            break; // no remaining candidate can improve top-k
        }
        if best.iter().any(|&(_, r)| r == rid) {
            continue; // duplicate entry from an in-flight update
        }
        let mut row = None;
        table.get_many_at(&[rid], snap, |_, r| row = r.cloned());
        let Some(g) = row.as_deref().and_then(|row| ix.geometry(row)) else { continue };
        Counters::bump(&ix.counters.exact_tests);
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
    Some(best)
}

impl<S: IndexStructure> DomainIndex for SpatialIndex<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_insert(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        match self.geometry(row) {
            Some(g) => self.structure.write().add(&mut self.shared, rid, g, &self.counters),
            None => Ok(()),
        }
    }

    fn on_delete(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        if let Some(g) = self.geometry(row) {
            self.structure.write().remove(&mut self.shared, rid, g);
        }
        Ok(())
    }

    fn evaluate(&self, call: &OperatorCall) -> Result<Vec<RowId>, DbError> {
        // Candidates only: the caller fetches each one at its snapshot
        // and runs the exact test.
        let structure = self.structure.read();
        Ok(match decode_op(call)? {
            // DISJOINT cannot use an intersection-based index.
            DecodedOp::Relate(_, masks) if masks.contains(&RelateMask::Disjoint) => structure.all(),
            DecodedOp::Relate(q, _) | DecodedOp::Filter(q) => structure.window(&q),
            DecodedOp::WithinDistance(q, d) => structure.within(&q, d),
        })
    }

    fn nearest(
        &self,
        query: &Geometry,
        k: usize,
        snap: &Snapshot,
    ) -> Result<Option<Vec<(f64, RowId)>>, DbError> {
        Ok(knn(self, query, k, snap))
    }

    fn describe(&self) -> String {
        self.structure.read().describe(&self.name)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
