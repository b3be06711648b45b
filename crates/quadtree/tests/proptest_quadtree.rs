//! Property-based quadtree testing: tessellation soundness, window
//! query completeness, update/delete reference counting, bulk-build
//! equivalence.

use proptest::prelude::*;
use sdo_geom::algorithms::convex_hull;
use sdo_geom::{Geometry, Point, Polygon, Rect, Ring};
use sdo_quadtree::{tessellate, QuadtreeIndex, Tile};
use sdo_storage::RowId;

const WORLD: Rect = Rect::new(0.0, 0.0, 256.0, 256.0);

fn arb_point() -> impl Strategy<Value = Point> {
    (5.0f64..250.0, 5.0f64..250.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_polygon() -> impl Strategy<Value = Geometry> {
    proptest::collection::vec(arb_point(), 3..10).prop_filter_map("degenerate", |pts| {
        let hull = convex_hull(&pts);
        if hull.len() < 3 {
            return None;
        }
        let ring = Ring::new(hull).ok()?;
        if ring.area() < 1.0 {
            return None;
        }
        Some(Geometry::Polygon(Polygon::from_exterior(ring)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tessellation_tiles_interact_exactly(g in arb_polygon(), level in 3u32..7) {
        let tiles = tessellate(&g, &WORLD, level);
        prop_assert!(!tiles.is_empty());
        for t in &tiles {
            let rect = Tile::from_code(level, t.code).rect(&WORLD);
            let tile_poly = Geometry::Polygon(Polygon::from_rect(&rect));
            prop_assert!(
                sdo_geom::intersects(&g, &tile_poly),
                "kept tile does not interact"
            );
            if t.interior {
                prop_assert!(
                    sdo_geom::covered_by(&tile_poly, &g),
                    "interior tile not covered by geometry"
                );
            }
        }
    }

    #[test]
    fn tessellation_covers_every_vertex(g in arb_polygon(), level in 3u32..7) {
        let tiles = tessellate(&g, &WORLD, level);
        for v in g.vertices() {
            let code = Tile::containing(level, &WORLD, &v).code();
            // The vertex tile, or one adjacent (vertices exactly on tile
            // borders may belong to either side), must be present.
            prop_assert!(
                tiles.iter().any(|t| {
                    let tile = Tile::from_code(level, t.code);
                    tile.rect(&WORLD).expanded(1e-9).contains_point(&v)
                }),
                "vertex {v} not covered (nominal tile {code})"
            );
        }
    }

    #[test]
    fn window_query_sound_and_complete(
        geoms in proptest::collection::vec(arb_polygon(), 1..40),
        window in arb_polygon(),
        level in 4u32..7,
    ) {
        let mut idx = QuadtreeIndex::new(WORLD, level);
        for (i, g) in geoms.iter().enumerate() {
            idx.insert(RowId::new(i as u64), g);
        }
        let candidates = idx.query_window(&window);
        let truth: Vec<usize> = geoms
            .iter()
            .enumerate()
            .filter(|(_, g)| sdo_geom::intersects(g, &window))
            .map(|(i, _)| i)
            .collect();
        // completeness: every true hit is a candidate
        for t in &truth {
            prop_assert!(candidates.contains(&RowId::new(*t as u64)), "missing true hit {t}");
        }
        // sorted, each row once
        prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{candidates:?}");
    }

    /// Updates as the engine issues them: the new version's tiles go in
    /// first, the old version's come out later — at once, or after
    /// further updates of the row when a pinned snapshot defers them.
    /// Tiles both versions share are counted, so the index ends equal
    /// to a fresh build over the final geometries.
    #[test]
    fn insert_delete_roundtrip(
        mut geoms in proptest::collection::vec(arb_polygon(), 1..30),
        updates in proptest::collection::vec((0usize..30, arb_polygon(), any::<bool>()), 0..20),
        level in 4u32..7,
    ) {
        let mut idx = QuadtreeIndex::new(WORLD, level);
        for (i, g) in geoms.iter().enumerate() {
            idx.insert(RowId::new(i as u64), g);
        }
        let entries_full = idx.tile_entries();
        prop_assert!(entries_full >= geoms.len());
        let mut deferred = Vec::new();
        for (i, new, flush) in updates {
            let i = i % geoms.len();
            idx.insert(RowId::new(i as u64), &new);
            deferred.push((i, std::mem::replace(&mut geoms[i], new)));
            if flush {
                for (i, old) in deferred.drain(..) {
                    prop_assert!(idx.delete(RowId::new(i as u64), &old));
                }
            }
        }
        for (i, old) in deferred.drain(..) {
            prop_assert!(idx.delete(RowId::new(i as u64), &old));
        }
        let rows = geoms
            .iter()
            .enumerate()
            .flat_map(|(i, g)| {
                tessellate(g, &WORLD, level).into_iter().map(move |t| (t.code, RowId::new(i as u64)))
            })
            .collect();
        let fresh = QuadtreeIndex::bulk_build(WORLD, level, rows, geoms.len());
        prop_assert_eq!(idx.iter_entries().collect::<Vec<_>>(), fresh.iter_entries().collect::<Vec<_>>());
        prop_assert_eq!(idx.tile_entries(), fresh.tile_entries());
        prop_assert_eq!(idx.len(), fresh.len());

        for (i, g) in geoms.iter().enumerate() {
            prop_assert!(idx.delete(RowId::new(i as u64), g));
        }
        prop_assert_eq!(idx.tile_entries(), 0);
        prop_assert!(idx.is_empty());
    }

    #[test]
    fn bulk_build_equals_incremental(
        geoms in proptest::collection::vec(arb_polygon(), 0..30),
        level in 4u32..7,
    ) {
        let mut incr = QuadtreeIndex::new(WORLD, level);
        let mut rows = Vec::new();
        for (i, g) in geoms.iter().enumerate() {
            incr.insert(RowId::new(i as u64), g);
            for t in tessellate(g, &WORLD, level) {
                rows.push((t.code, RowId::new(i as u64)));
            }
        }
        let bulk = QuadtreeIndex::bulk_build(WORLD, level, rows, geoms.len());
        let a: Vec<_> = bulk.iter_entries().collect();
        let b: Vec<_> = incr.iter_entries().collect();
        prop_assert_eq!(a, b);
    }
}
