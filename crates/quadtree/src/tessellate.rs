//! Geometry tessellation: the expensive half of quadtree index creation.
//!
//! "For each data geometry, tessellate the geometry into tiles and
//! store these tiles in an index table" (paper §5). Tessellation walks
//! the fixed-level tiles under the geometry's MBR and keeps those that
//! exactly interact with the geometry, classifying each as *interior*
//! (the tile lies entirely inside an areal geometry — exact hits need
//! no secondary filter) or *boundary*.
//!
//! The per-geometry cost grows with vertex count — which is precisely
//! why the paper parallelizes this step across table-function slaves
//! for the complex US block-group polygons.

use crate::tile::{Tile, TileCode};
use sdo_geom::polygon::PointLocation;
use sdo_geom::{covered_by, intersects, Geometry, Polygon, Rect, TopoDim};

/// One tile of a geometry's approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileApprox {
    /// The tile's Morton code at the tessellation level.
    pub code: TileCode,
    /// True when the tile lies entirely within the geometry.
    pub interior: bool,
}

/// Tessellate `g` into level-`level` tiles over `world`.
///
/// ```
/// use sdo_geom::{Geometry, Polygon, Rect};
/// use sdo_quadtree::tessellate;
///
/// let world = Rect::new(0.0, 0.0, 256.0, 256.0);
/// let g = Geometry::Polygon(Polygon::from_rect(&Rect::new(32.0, 32.0, 96.0, 96.0)));
/// let tiles = tessellate(&g, &world, 4); // 16x16 tiles of size 16
/// assert!(tiles.iter().any(|t| t.interior));
/// assert!(tiles.iter().any(|t| !t.interior));
/// ```
///
/// Every returned tile interacts with `g` exactly (not merely with its
/// MBR), and tiles marked interior are fully covered by `g`. Only tiles
/// inside the world are returned, so a geometry outside it gets no
/// tiles and one straddling its edge loses the part outside. Callers
/// must index only data inside the declared extent, as Oracle does;
/// `sdo-core` refuses other rows at insert and index creation.
pub fn tessellate(g: &Geometry, world: &Rect, level: u32) -> Vec<TileApprox> {
    let mut out = Vec::new();
    let Some((x0, x1, y0, y1)) = Tile::covering_range(level, world, &g.bbox()) else {
        return out;
    };
    let areal = g.dim() == TopoDim::Two;
    for x in x0..=x1 {
        for y in y0..=y1 {
            let tile = Tile::new(level, x, y);
            let rect = tile.rect(world);
            match classify_tile(g, &rect, areal) {
                TileClass::Outside => {}
                TileClass::Boundary => out.push(TileApprox { code: tile.code(), interior: false }),
                TileClass::Interior => out.push(TileApprox { code: tile.code(), interior: true }),
            }
        }
    }
    out
}

enum TileClass {
    Outside,
    Boundary,
    Interior,
}

fn classify_tile(g: &Geometry, tile_rect: &Rect, areal: bool) -> TileClass {
    let tile_poly = Geometry::Polygon(Polygon::from_rect(tile_rect));
    // Fast paths for the overwhelmingly common cases.
    match g {
        Geometry::Point(p) => {
            return if tile_rect.contains_point(p) {
                TileClass::Boundary
            } else {
                TileClass::Outside
            };
        }
        Geometry::Polygon(poly) if poly.holes().is_empty() => {
            // All four corners strictly inside and no boundary edge
            // crossing the tile => interior.
            let corners = tile_rect.corners();
            let inside =
                corners.iter().all(|c| poly.exterior().locate_point(c) == PointLocation::Inside);
            if inside {
                let crossed = poly
                    .boundary_segments()
                    .any(|s| s.bbox().intersects(tile_rect) && segment_meets_rect(&s, tile_rect));
                if !crossed {
                    return TileClass::Interior;
                }
                return TileClass::Boundary;
            }
        }
        _ => {}
    }
    if !intersects(g, &tile_poly) {
        return TileClass::Outside;
    }
    if areal && covered_by(&tile_poly, g) {
        return TileClass::Interior;
    }
    TileClass::Boundary
}

/// True when segment `s` intersects the (closed) rectangle.
fn segment_meets_rect(s: &sdo_geom::Segment, r: &Rect) -> bool {
    if r.contains_point(&s.a) || r.contains_point(&s.b) {
        return true;
    }
    let c = r.corners();
    (0..4).any(|i| {
        let edge = sdo_geom::Segment::new(c[i], c[(i + 1) % 4]);
        s.intersects(&edge)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::{LineString, Point};

    const WORLD: Rect = Rect::new(0.0, 0.0, 256.0, 256.0);

    fn square(x: f64, y: f64, s: f64) -> Geometry {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + s, y + s)))
    }

    #[test]
    fn point_yields_single_tile() {
        let g = Geometry::Point(Point::new(100.0, 50.0));
        let tiles = tessellate(&g, &WORLD, 4);
        assert_eq!(tiles.len(), 1);
        assert!(!tiles[0].interior);
        let t = Tile::from_code(4, tiles[0].code);
        assert!(t.rect(&WORLD).contains_point(&Point::new(100.0, 50.0)));
    }

    #[test]
    fn aligned_square_classifies_interior_and_boundary() {
        // A 4x4-tile square at level 4 (tile size 16): covers tiles
        // [2..6) x [2..6). With the square exactly on tile boundaries,
        // inner tiles are interior.
        let g = square(32.0, 32.0, 64.0);
        let tiles = tessellate(&g, &WORLD, 4);
        let interior = tiles.iter().filter(|t| t.interior).count();
        // Tiles fully inside: the closed square covers tiles whose rects
        // lie within [32,96]^2: grid 2..=5 in both axes = 16 tiles.
        assert_eq!(interior, 16);
        // Boundary-touching neighbours appear as boundary tiles.
        assert!(tiles.len() >= 16);
        for t in &tiles {
            let rect = Tile::from_code(4, t.code).rect(&WORLD);
            assert!(intersects(&g, &Geometry::Polygon(Polygon::from_rect(&rect))));
        }
    }

    #[test]
    fn unaligned_square_has_boundary_ring() {
        let g = square(30.0, 30.0, 60.0); // tiles 1..=5 at level 4
        let tiles = tessellate(&g, &WORLD, 4);
        assert!(tiles.iter().any(|t| t.interior));
        assert!(tiles.iter().any(|t| !t.interior));
        // tessellation must cover the geometry: every vertex in a tile
        for v in g.vertices() {
            let code = Tile::containing(4, &WORLD, &v).code();
            assert!(tiles.iter().any(|t| t.code == code));
        }
    }

    #[test]
    fn line_tiles_are_never_interior() {
        let g = Geometry::LineString(
            LineString::new(vec![Point::new(10.0, 10.0), Point::new(200.0, 180.0)]).unwrap(),
        );
        let tiles = tessellate(&g, &WORLD, 5);
        assert!(!tiles.is_empty());
        assert!(tiles.iter().all(|t| !t.interior));
        // the MBR of the line covers many more tiles than the line does
        let bbox_tiles = {
            let (x0, x1, y0, y1) = Tile::covering_range(5, &WORLD, &g.bbox()).unwrap();
            (x1 - x0 + 1) as usize * (y1 - y0 + 1) as usize
        };
        assert!(tiles.len() < bbox_tiles, "exact tessellation must beat MBR cover");
    }

    #[test]
    fn geometry_outside_world_produces_nothing() {
        let g = square(500.0, 500.0, 10.0);
        assert!(tessellate(&g, &WORLD, 4).is_empty());
    }

    #[test]
    fn donut_hole_tiles_excluded() {
        use sdo_geom::polygon::Ring;
        let outer = Ring::new(Rect::new(0.0, 0.0, 128.0, 128.0).corners().to_vec()).unwrap();
        let hole = Ring::new(Rect::new(32.0, 32.0, 96.0, 96.0).corners().to_vec()).unwrap();
        let donut = Geometry::Polygon(Polygon::new(outer, vec![hole]));
        let tiles = tessellate(&donut, &WORLD, 4);
        // A tile fully inside the hole must not appear.
        let hole_center = Tile::containing(4, &WORLD, &Point::new(64.0, 64.0));
        assert!(
            tiles.iter().all(|t| t.code != hole_center.code()),
            "tile inside the hole was kept"
        );
        // A tile in the ring is interior.
        let ring_tile = Tile::containing(4, &WORLD, &Point::new(16.0, 16.0));
        assert!(tiles.iter().any(|t| t.code == ring_tile.code() && t.interior));
    }

    #[test]
    fn deeper_levels_refine_the_cover() {
        let g = square(30.0, 30.0, 60.0);
        let area = |level: u32| {
            let tiles = tessellate(&g, &WORLD, level);
            let tile_area = Tile::new(level, 0, 0).rect(&WORLD).area();
            tiles.len() as f64 * tile_area
        };
        // Covered area shrinks toward the true area as tiles refine.
        let a4 = area(4);
        let a6 = area(6);
        assert!(a6 < a4);
        assert!(a6 >= g.area());
    }
}
