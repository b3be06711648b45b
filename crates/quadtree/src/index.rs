//! The linear quadtree index: tile entries in a B+tree.

use crate::tessellate::{tessellate, TileApprox};
use crate::tile::TileCode;
use sdo_geom::{Geometry, Rect};
use sdo_storage::{BTree, Counters, RowId};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// Cached handle for the global `quadtree.tile_probes` metric, bumped
/// only while a profile session is active.
fn obs_tile_probes() -> &'static Arc<sdo_obs::Counter> {
    static HANDLE: std::sync::OnceLock<Arc<sdo_obs::Counter>> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| sdo_obs::global().counter("quadtree.tile_probes"))
}

/// A window-query candidate: the row plus whether the tile-level
/// evidence already proves the interaction (interior tiles), letting
/// the caller skip the exact secondary filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate row.
    pub rowid: RowId,
    /// True when tile evidence alone proves the geometry interacts with
    /// the query window.
    pub definite: bool,
}

/// A linear quadtree over `(tile_code, rowid)` pairs.
///
/// The paper's structure exactly: tessellation produces tile rows, a
/// B-tree indexes the codes. Interior/boundary flags ride in a side map
/// (in Oracle they are a column of the index table).
pub struct QuadtreeIndex {
    world: Rect,
    level: u32,
    btree: BTree<(TileCode, RowId)>,
    interior: HashMap<(TileCode, RowId), bool>,
    len_geometries: usize,
}

impl QuadtreeIndex {
    /// Empty index over `world` with tiling level `level`
    /// (`sdo_level` in Oracle parameter strings).
    pub fn new(world: Rect, level: u32) -> Self {
        assert!(level <= crate::MAX_LEVEL, "tiling level too deep");
        assert!(!world.is_empty(), "world extent must be non-empty");
        QuadtreeIndex {
            world,
            level,
            btree: BTree::new(),
            interior: HashMap::new(),
            len_geometries: 0,
        }
    }

    /// Attach shared work counters to the underlying B-tree.
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.btree = std::mem::take(&mut self.btree).with_counters(counters);
        self
    }

    /// The indexed world extent.
    #[inline]
    pub fn world(&self) -> &Rect {
        &self.world
    }

    /// The fixed tiling level (`sdo_level`).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of indexed geometries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_geometries
    }

    /// True when no geometries are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_geometries == 0
    }

    /// Number of tile entries (the index table's row count).
    #[inline]
    pub fn tile_entries(&self) -> usize {
        self.btree.len()
    }

    /// Index one geometry: tessellate and insert its tile rows.
    pub fn insert(&mut self, rowid: RowId, g: &Geometry) {
        let tiles = tessellate(g, &self.world, self.level);
        self.insert_tiles(rowid, &tiles);
    }

    /// Insert pre-computed tile approximations for a row — the bulk
    /// path used by parallel index creation, where tessellation already
    /// happened inside table-function slaves.
    pub fn insert_tiles(&mut self, rowid: RowId, tiles: &[TileApprox]) {
        for t in tiles {
            if self.btree.insert((t.code, rowid)) {
                self.interior.insert((t.code, rowid), t.interior);
            }
        }
        self.len_geometries += 1;
    }

    /// Remove a geometry's tile rows (re-tessellates to find them, as
    /// Oracle's index-maintenance trigger effectively does).
    pub fn delete(&mut self, rowid: RowId, g: &Geometry) -> bool {
        let tiles = tessellate(g, &self.world, self.level);
        let mut removed_any = false;
        for t in &tiles {
            if self.btree.remove(&(t.code, rowid)) {
                self.interior.remove(&(t.code, rowid));
                removed_any = true;
            }
        }
        if removed_any {
            self.len_geometries -= 1;
        }
        removed_any
    }

    /// All rows sharing tile `code`, with interior flags.
    pub fn rows_in_tile(&self, code: TileCode) -> Vec<(RowId, bool)> {
        if sdo_obs::profiling() {
            obs_tile_probes().add(1);
        }
        self.btree
            .range(
                Bound::Included(&(code, RowId::new(0))),
                Bound::Excluded(&(code + 1, RowId::new(0))),
            )
            .map(|&(c, r)| (r, *self.interior.get(&(c, r)).unwrap_or(&false)))
            .collect()
    }

    /// Window query: tessellate the query window, probe the B-tree per
    /// window tile, and merge per-row evidence.
    ///
    /// A candidate is **definite** when some shared tile is interior to
    /// either the window or the data geometry — tile geometry alone
    /// proves interaction, no exact test needed. Otherwise the caller
    /// must run the secondary filter.
    pub fn query_window(&self, window: &Geometry) -> Vec<Candidate> {
        let wtiles = tessellate(window, &self.world, self.level);
        let mut best: HashMap<RowId, bool> = HashMap::new();
        for wt in &wtiles {
            for (rowid, data_interior) in self.rows_in_tile(wt.code) {
                let definite = wt.interior || data_interior;
                best.entry(rowid).and_modify(|d| *d = *d || definite).or_insert(definite);
            }
        }
        let mut out: Vec<Candidate> =
            best.into_iter().map(|(rowid, definite)| Candidate { rowid, definite }).collect();
        out.sort_by_key(|c| c.rowid);
        out
    }

    /// Iterate every `(code, rowid, interior)` entry in tile order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (TileCode, RowId, bool)> + '_ {
        self.btree.iter().map(|&(c, r)| (c, r, *self.interior.get(&(c, r)).unwrap_or(&false)))
    }

    /// Bulk-build from tessellated rows (sorted or not). Used by the
    /// parallel creation path: slaves emit `(code, rowid, interior)`
    /// triples, the coordinator sorts once and packs the B-tree
    /// bottom-up.
    pub fn bulk_build(
        world: Rect,
        level: u32,
        mut entries: Vec<(TileCode, RowId, bool)>,
        geometry_count: usize,
    ) -> Self {
        entries.sort_unstable_by_key(|&(c, r, _)| (c, r));
        entries.dedup_by_key(|&mut (c, r, _)| (c, r));
        let mut interior = HashMap::with_capacity(entries.len());
        let keys: Vec<(TileCode, RowId)> = entries
            .iter()
            .map(|&(c, r, i)| {
                interior.insert((c, r), i);
                (c, r)
            })
            .collect();
        let btree = BTree::bulk_build(keys, sdo_storage::btree::DEFAULT_ORDER);
        QuadtreeIndex { world, level, btree, interior, len_geometries: geometry_count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::{Point, Polygon};

    const WORLD: Rect = Rect::new(0.0, 0.0, 256.0, 256.0);

    fn square(x: f64, y: f64, s: f64) -> Geometry {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + s, y + s)))
    }

    fn build(geoms: &[Geometry]) -> QuadtreeIndex {
        let mut idx = QuadtreeIndex::new(WORLD, 5);
        for (i, g) in geoms.iter().enumerate() {
            idx.insert(RowId::new(i as u64), g);
        }
        idx
    }

    fn sample() -> Vec<Geometry> {
        (0..40)
            .map(|i| {
                let x = ((i * 37) % 220) as f64;
                let y = ((i * 91) % 220) as f64;
                square(x, y, 12.0)
            })
            .collect()
    }

    #[test]
    fn window_query_superset_of_truth_and_definites_sound() {
        let geoms = sample();
        let idx = build(&geoms);
        let window = square(50.0, 50.0, 60.0);
        let candidates = idx.query_window(&window);
        // exact answers
        let truth: Vec<usize> = geoms
            .iter()
            .enumerate()
            .filter(|(_, g)| sdo_geom::intersects(g, &window))
            .map(|(i, _)| i)
            .collect();
        let cand_ids: Vec<usize> = candidates.iter().map(|c| c.rowid.slot()).collect();
        // candidates ⊇ truth
        for t in &truth {
            assert!(cand_ids.contains(t), "missing true hit {t}");
        }
        // definite candidates ⊆ truth (no false definite)
        for c in &candidates {
            if c.definite {
                assert!(truth.contains(&c.rowid.slot()), "false definite candidate {:?}", c.rowid);
            }
        }
        // a window this large must prove some hits definitively
        assert!(candidates.iter().any(|c| c.definite));
    }

    #[test]
    fn delete_removes_tile_rows() {
        let geoms = sample();
        let mut idx = build(&geoms);
        let before = idx.tile_entries();
        assert!(idx.delete(RowId::new(0), &geoms[0]));
        assert!(!idx.delete(RowId::new(0), &geoms[0]));
        assert!(idx.tile_entries() < before);
        assert_eq!(idx.len(), 39);
        let window = geoms[0].clone();
        let candidates = idx.query_window(&window);
        assert!(candidates.iter().all(|c| c.rowid != RowId::new(0)));
    }

    #[test]
    fn bulk_build_equals_incremental() {
        let geoms = sample();
        let incremental = build(&geoms);
        let mut rows = Vec::new();
        for (i, g) in geoms.iter().enumerate() {
            for t in tessellate(g, &WORLD, 5) {
                rows.push((t.code, RowId::new(i as u64), t.interior));
            }
        }
        let bulk = QuadtreeIndex::bulk_build(WORLD, 5, rows, geoms.len());
        assert_eq!(bulk.tile_entries(), incremental.tile_entries());
        assert_eq!(bulk.len(), incremental.len());
        let w = square(30.0, 80.0, 70.0);
        assert_eq!(bulk.query_window(&w), incremental.query_window(&w));
        // entries iterate identically
        let a: Vec<_> = bulk.iter_entries().collect();
        let b: Vec<_> = incremental.iter_entries().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn point_queries() {
        let geoms = sample();
        let idx = build(&geoms);
        let probe = Geometry::Point(Point::new(5.0, 5.0));
        let candidates = idx.query_window(&probe);
        let truth: Vec<usize> = geoms
            .iter()
            .enumerate()
            .filter(|(_, g)| sdo_geom::intersects(g, &probe))
            .map(|(i, _)| i)
            .collect();
        for t in truth {
            assert!(candidates.iter().any(|c| c.rowid.slot() == t));
        }
    }

    #[test]
    fn empty_index_queries_cleanly() {
        let idx = QuadtreeIndex::new(WORLD, 5);
        assert!(idx.is_empty());
        assert!(idx.query_window(&square(0.0, 0.0, 100.0)).is_empty());
    }
}
