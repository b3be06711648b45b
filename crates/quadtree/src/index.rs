//! The linear quadtree index: tile entries in an ordered map.

use crate::tessellate::tessellate;
use crate::tile::TileCode;
use sdo_geom::{Geometry, Rect};
use sdo_storage::RowId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cached handle for the global `quadtree.tile_probes` metric, bumped
/// only while a profile session is active.
fn obs_tile_probes() -> &'static Arc<sdo_obs::Counter> {
    static HANDLE: std::sync::OnceLock<Arc<sdo_obs::Counter>> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| sdo_obs::global().counter("quadtree.tile_probes"))
}

/// A linear quadtree over `(tile_code, rowid)` pairs.
///
/// The paper's structure exactly: tessellation produces tile rows, a
/// B-tree indexes the codes (here std's `BTreeMap`, ordered by code
/// then rowid, so one tile's rows are one range).
///
/// One row can briefly hold two versions' tiles (an update inserts the
/// new version's entries before the old version's are deleted), so
/// each entry counts the versions that share it: deleting one version
/// leaves the other's tile in place.
pub struct QuadtreeIndex {
    world: Rect,
    level: u32,
    entries: BTreeMap<(TileCode, RowId), u32>,
    len_geometries: usize,
}

impl QuadtreeIndex {
    /// Empty index over `world` with tiling level `level`
    /// (`sdo_level` in Oracle parameter strings).
    pub fn new(world: Rect, level: u32) -> Self {
        assert!(level <= crate::MAX_LEVEL, "tiling level too deep");
        assert!(!world.is_empty(), "world extent must be non-empty");
        QuadtreeIndex { world, level, entries: BTreeMap::new(), len_geometries: 0 }
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
        self.entries.len()
    }

    /// Index one geometry: tessellate and insert its tile rows.
    pub fn insert(&mut self, rowid: RowId, g: &Geometry) {
        for t in tessellate(g, &self.world, self.level) {
            *self.entries.entry((t.code, rowid)).or_insert(0) += 1;
        }
        self.len_geometries += 1;
    }

    /// Remove a geometry's tile rows (re-tessellates to find them, as
    /// Oracle's index-maintenance trigger effectively does).
    pub fn delete(&mut self, rowid: RowId, g: &Geometry) -> bool {
        let mut removed_any = false;
        for t in tessellate(g, &self.world, self.level) {
            if let Entry::Occupied(mut e) = self.entries.entry((t.code, rowid)) {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
                removed_any = true;
            }
        }
        if removed_any {
            self.len_geometries -= 1;
        }
        removed_any
    }

    /// Window query: tessellate the query window, probe the map once
    /// per window tile, and return the rows found, sorted and without
    /// repeats. Tiles over-approximate, so the caller runs the exact
    /// secondary filter on every candidate.
    pub fn query_window(&self, window: &Geometry) -> Vec<RowId> {
        let profiling = sdo_obs::profiling();
        let mut out = Vec::new();
        for wt in tessellate(window, &self.world, self.level) {
            if profiling {
                obs_tile_probes().add(1);
            }
            // Codes are < 4^MAX_LEVEL = 2^62, so `code + 1` cannot wrap.
            let tile = (wt.code, RowId::new(0))..(wt.code + 1, RowId::new(0));
            out.extend(self.entries.range(tile).map(|(&(_, rowid), _)| rowid));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterate every `(code, rowid)` entry in tile order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (TileCode, RowId)> + '_ {
        self.entries.keys().copied()
    }

    /// Bulk-build from tessellated rows (sorted or not). Used by the
    /// parallel creation path: slaves emit `(code, rowid)` pairs, the
    /// coordinator sorts once and std builds the map from the sorted
    /// run.
    pub fn bulk_build(
        world: Rect,
        level: u32,
        mut entries: Vec<(TileCode, RowId)>,
        geometry_count: usize,
    ) -> Self {
        entries.sort_unstable();
        entries.dedup();
        QuadtreeIndex {
            world,
            level,
            entries: entries.into_iter().map(|key| (key, 1)).collect(),
            len_geometries: geometry_count,
        }
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
    fn a_shared_tile_survives_deleting_one_version() {
        // An update of a row whose tiles do not move inserts the new
        // version's entries, then deletes the old version's.
        let (old, new) = (square(10.0, 10.0, 20.0), square(12.0, 10.0, 20.0));
        let mut idx = build(std::slice::from_ref(&old));
        idx.insert(RowId::new(0), &new);
        idx.delete(RowId::new(0), &old);
        assert_eq!(idx.query_window(&new), vec![RowId::new(0)], "row lost its shared tiles");
        assert_eq!(idx.tile_entries(), build(std::slice::from_ref(&new)).tile_entries());
        assert!(idx.delete(RowId::new(0), &new));
        assert_eq!(idx.tile_entries(), 0);
    }

    #[test]
    fn window_query_superset_of_truth() {
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
        let cand_ids: Vec<usize> = candidates.iter().map(|r| r.slot()).collect();
        // candidates ⊇ truth
        for t in &truth {
            assert!(cand_ids.contains(t), "missing true hit {t}");
        }
        // sorted, each row once
        assert!(candidates.windows(2).all(|w| w[0] < w[1]));
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
        assert!(!candidates.contains(&RowId::new(0)));
    }

    #[test]
    fn bulk_build_equals_incremental() {
        let geoms = sample();
        let incremental = build(&geoms);
        let mut rows = Vec::new();
        for (i, g) in geoms.iter().enumerate() {
            for t in tessellate(g, &WORLD, 5) {
                rows.push((t.code, RowId::new(i as u64)));
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
            assert!(candidates.contains(&RowId::new(t as u64)));
        }
    }

    #[test]
    fn empty_index_queries_cleanly() {
        let idx = QuadtreeIndex::new(WORLD, 5);
        assert!(idx.is_empty());
        assert!(idx.query_window(&square(0.0, 0.0, 100.0)).is_empty());
    }
}
