//! Geometry tessellation: the expensive half of quadtree index creation.
//!
//! "For each data geometry, tessellate the geometry into tiles and
//! store these tiles in an index table" (paper §5). Tessellation keeps
//! the fixed-level tiles under the geometry's MBR that exactly interact
//! with the geometry, classifying each as *interior* (the tile lies
//! entirely inside an areal geometry) or *boundary*.
//!
//! Tiles are classified against the geometry's own edges, the way Gray
//! & Szalay classify HTM cells against a region's edges:
//!
//! 1. One pass over the boundary segments (a point is a zero-length
//!    segment) tests each segment against the tiles near it only: in
//!    each column its box spans, the rows it reaches there. Each closed
//!    tile it meets records the strongest contact: touching the tile's
//!    edges, entering its open interior, or passing through one of its
//!    corners. A segment well inside one tile, the common case, enters
//!    that tile and needs no further test. Contacts are kept per met
//!    tile, not per tile of the MBR, so memory and time follow the
//!    boundary and the output even where the MBR is huge (a long line
//!    or far-apart parts at a deep level).
//! 2. No segment meets the tile: the tile lies wholly inside or wholly
//!    outside. For an areal geometry the crossing parity of one corner
//!    says which, and the run of unmet tiles after it shares the
//!    answer: the rest of its column up to the next met tile, or whole
//!    columns that no segment meets. Curves and points keep no such
//!    tile.
//! 3. A segment enters the tile: a boundary tile.
//! 4. Segments only touch the tile's edges, as vertices and edges of
//!    grid-aligned shapes do: the tile's open interior lies wholly on
//!    one side, and the center's parity says which. It is an interior
//!    tile when inside a polygon with holes or a multipolygon; under a
//!    polygon without holes it stays a boundary tile, as it always has.
//! 5. A ring passes through a tile corner: generic `covered_by` breaks
//!    the tie. This is the only generic relate left, and it keeps the
//!    tile set identical to the flat per-tile relate loop it replaced,
//!    which a property test checks.
//!
//! The per-geometry cost grows with vertex count — which is precisely
//! why the paper parallelizes this step across table-function slaves
//! for the complex US block-group polygons.

use crate::tile::{Tile, TileCode};
use sdo_geom::{covered_by, Geometry, Point, Polygon, Rect, Segment, TopoDim, EPS};

/// One tile of a geometry's approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileApprox {
    /// The tile's Morton code at the tessellation level.
    pub code: TileCode,
    /// True when the tile lies entirely within the geometry.
    pub interior: bool,
}

/// How a geometry's boundary meets one closed tile. Ordered, so a
/// tile keeps the strongest contact any segment makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Contact {
    /// Segments meet only the tile's edges.
    Touches,
    /// A segment enters the tile's open interior.
    Enters,
    /// A segment passes through a tile corner.
    Corner,
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
/// `sdo-core` refuses other rows at insert and index creation. Tiles
/// come in column order: `x` ascending, then `y` ascending.
pub fn tessellate(g: &Geometry, world: &Rect, level: u32) -> Vec<TileApprox> {
    let mut out = Vec::new();
    let Some((x0, x1, y0, y1)) = Tile::covering_range(level, world, &g.bbox()) else {
        return out;
    };
    let areal = g.dim() == TopoDim::Two;
    // A column's x span and a row's y span, with the arithmetic of
    // `Tile::rect`.
    let n = (1u64 << level) as f64;
    let (w, h) = (world.width() / n, world.height() / n);
    let col = |x: u32| (world.min_x + x as f64 * w, world.min_x + (x + 1) as f64 * w);
    let row = |y: u32| (world.min_y + y as f64 * h, world.min_y + (y + 1) as f64 * h);
    // Every met tile's contact, keyed `x << 32 | y`. Kept sparse, so
    // memory follows the tiles the boundary meets, not the MBR: a
    // world-spanning line at a deep level meets few of its MBR's tiles.
    let mut contacts: Vec<(u64, Contact)> = Vec::new();
    let mut meet = |x: u32, y: u32, c: Contact| {
        let k = u64::from(x) << 32 | u64::from(y);
        // Consecutive segments mostly meet the same tile: fold them.
        match contacts.last_mut() {
            Some(last) if last.0 == k => last.1 = last.1.max(c),
            _ => contacts.push((k, c)),
        }
    };
    // The column or row holding coordinate `v`, give or take one. The
    // cast truncates (and saturates below zero), which is cheaper than
    // `floor` and as good under the one tile of slack.
    let (sx, sy) = (n / world.width(), n / world.height());
    let near = |v: f64, origin: f64, scale: f64, lo: u32, hi: u32| {
        (((v - origin) * scale) as u32).clamp(lo, hi)
    };
    for_each_edge(g, |s| {
        let bb = s.bbox();
        // One tile of slack each way: `near` rounds, and a box on a
        // grid line also meets the tile on its other side. The spans
        // then keep exactly the tiles whose closed rect meets the box.
        let (lx, hx) =
            (near(bb.min_x, world.min_x, sx, x0, x1), near(bb.max_x, world.min_x, sx, x0, x1));
        let (ly, hy) =
            (near(bb.min_y, world.min_y, sy, y0, y1), near(bb.max_y, world.min_y, sy, y0, y1));
        let tolerance_box = bb.expanded(EPS);
        if (lx, ly) == (hx, hy) {
            // Most segments lie well inside one tile: they enter it,
            // pass through none of its corners and meet no other tile.
            let ((min_x, max_x), (min_y, max_y)) = (col(lx), row(ly));
            let r = Rect::new(min_x, min_y, max_x, max_y);
            let [lo, _, hi, _] = tolerance_box.corners();
            if r.contains_point_strict(&lo) && r.contains_point_strict(&hi) {
                meet(lx, ly, if areal { Contact::Enters } else { Contact::Touches });
                return;
            }
        }
        // The segment's height at `v`, clamped to its own x span. Only
        // worth it across more than two columns; a vertical segment's
        // height spans its box.
        let height = (hx - lx > 1 && s.a.x != s.b.x).then(|| {
            let slope = (s.b.y - s.a.y) / (s.b.x - s.a.x);
            move |v: f64| s.a.y + (v.clamp(bb.min_x, bb.max_x) - s.a.x) * slope
        });
        for x in lx.saturating_sub(1).max(x0)..=(hx + 1).min(x1) {
            let (min_x, max_x) = col(x);
            if min_x > bb.max_x || max_x < bb.min_x {
                continue;
            }
            // Only the rows the segment reaches over this column and
            // one more column each side (plus the row of slack), so a
            // long diagonal costs the tiles it crosses, not its box.
            let (ly, hy) = match &height {
                Some(at) => {
                    let (ya, yb) = (at(min_x - w), at(max_x + w));
                    let near_y = |v: f64| near(v, world.min_y, sy, y0, y1);
                    (near_y(ya.min(yb)), near_y(ya.max(yb)))
                }
                None => (ly, hy),
            };
            for y in ly.saturating_sub(1).max(y0)..=(hy + 1).min(y1) {
                let (min_y, max_y) = row(y);
                if min_y > bb.max_y || max_y < bb.min_y {
                    continue;
                }
                let r = Rect::new(min_x, min_y, max_x, max_y);
                if !segment_meets_rect(&s, &r) {
                    continue;
                }
                // `s.contains_point`, with its cheap box test first.
                let on_corner = |p: &Point| tolerance_box.contains_point(p) && s.contains_point(p);
                let c = if !areal {
                    Contact::Touches
                } else if r.corners().iter().any(on_corner) {
                    Contact::Corner
                } else if enters_open(&s, &r) {
                    Contact::Enters
                } else {
                    Contact::Touches
                };
                meet(x, y, c);
            }
        }
    });
    // Column order, each tile once with its strongest contact: sorted
    // ascending, the last of a key's run is its strongest.
    contacts.sort_unstable();
    contacts.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });

    // Sweep the MBR in column order. A run of unmet tiles, within a
    // column or across whole unmet columns, meets no boundary, so it
    // lies wholly inside or outside and one corner's parity decides.
    // Curves and points keep no unmet tile.
    let holeless = matches!(g, Geometry::Polygon(p) if p.holes().is_empty());
    let run_inside = |x: u32, y: u32| areal && inside(g, &Point::new(col(x).0, row(y).0));
    let mut met = contacts.iter().peekable();
    let mut x = x0;
    while x <= x1 {
        let next_x = met.peek().map_or(x1 + 1, |&&(k, _)| (k >> 32) as u32);
        if next_x > x {
            if run_inside(x, y0) {
                for x in x..next_x {
                    out.extend((y0..=y1).map(|y| interior_tile(level, x, y)));
                }
            }
            x = next_x;
            continue;
        }
        let (min_x, max_x) = col(x);
        let mut y = y0;
        while y <= y1 {
            let next_y = match met.peek() {
                Some(&&(k, _)) if (k >> 32) as u32 == x => k as u32,
                _ => y1 + 1,
            };
            if next_y > y {
                if run_inside(x, y) {
                    out.extend((y..next_y).map(|y| interior_tile(level, x, y)));
                }
                y = next_y;
                continue;
            }
            let &(_, c) = met.next().expect("the peeked contact");
            let (min_y, max_y) = row(y);
            let r = Rect::new(min_x, min_y, max_x, max_y);
            let interior = match c {
                Contact::Touches => areal && !holeless && inside(g, &r.center()),
                Contact::Enters => false,
                Contact::Corner => covered_by(&Geometry::Polygon(Polygon::from_rect(&r)), g),
            };
            out.push(TileApprox { code: Tile::new(level, x, y).code(), interior });
            y += 1;
        }
        x += 1;
    }
    out
}

/// The interior tile at grid position `(x, y)`.
fn interior_tile(level: u32, x: u32, y: u32) -> TileApprox {
    TileApprox { code: Tile::new(level, x, y).code(), interior: true }
}

/// Crossing parity of `p`, a point on no ring of the areal `g`: true
/// when a ray from `p` toward +x crosses the rings an odd number of
/// times, i.e. `p` is inside. The half-open rule of
/// [`sdo_geom::Ring::locate_point`], summed over every ring.
fn inside(g: &Geometry, p: &Point) -> bool {
    let mut odd = false;
    for_each_edge(g, |Segment { a, b }| {
        if (a.y > p.y) != (b.y > p.y) && a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x) > p.x {
            odd = !odd;
        }
    });
    odd
}

/// Visit the geometry's boundary segments: ring edges, curve
/// segments, and each point as a zero-length segment.
fn for_each_edge(g: &Geometry, mut f: impl FnMut(Segment)) {
    match g {
        Geometry::Point(p) => f(Segment::new(*p, *p)),
        Geometry::MultiPoint(m) => m.points().iter().for_each(|p| f(Segment::new(*p, *p))),
        Geometry::LineString(l) => l.segments().for_each(f),
        Geometry::MultiLineString(m) => m.lines().iter().flat_map(|l| l.segments()).for_each(f),
        Geometry::Polygon(p) => p.boundary_segments().for_each(f),
        Geometry::MultiPolygon(m) => {
            m.polygons().iter().flat_map(|p| p.boundary_segments()).for_each(f)
        }
    }
}

/// True when segment `s` intersects the (closed) rectangle.
fn segment_meets_rect(s: &Segment, r: &Rect) -> bool {
    if r.contains_point(&s.a) || r.contains_point(&s.b) {
        return true;
    }
    let c = r.corners();
    (0..4).any(|i| s.intersects(&Segment::new(c[i], c[(i + 1) % 4])))
}

/// True when `s`, which meets the closed rectangle `r` but passes
/// through none of its corners, also meets its open interior: an
/// endpoint is inside, it crosses an edge, or it runs from edge to
/// edge through the inside.
fn enters_open(s: &Segment, r: &Rect) -> bool {
    let c = r.corners();
    r.contains_point_strict(&s.a)
        || r.contains_point_strict(&s.b)
        || (0..4).any(|i| s.crosses_properly(&Segment::new(c[i], c[(i + 1) % 4])))
        || (r.contains_point(&s.a)
            && r.contains_point(&s.b)
            && r.contains_point_strict(&((s.a + s.b) * 0.5)))
}

/// The flat loop the edge classifier replaced: a tile polygon and a
/// generic `intersects` / `covered_by` per tile under the MBR. Kept as
/// the reference the classifier must match bit for bit.
#[cfg(test)]
mod reference {
    use super::TileApprox;
    use crate::tile::Tile;
    use sdo_geom::polygon::PointLocation;
    use sdo_geom::{covered_by, intersects, Geometry, Polygon, Rect, Segment, TopoDim};

    pub(super) fn tessellate(g: &Geometry, world: &Rect, level: u32) -> Vec<TileApprox> {
        let mut out = Vec::new();
        let Some((x0, x1, y0, y1)) = Tile::covering_range(level, world, &g.bbox()) else {
            return out;
        };
        let areal = g.dim() == TopoDim::Two;
        for x in x0..=x1 {
            for y in y0..=y1 {
                let tile = Tile::new(level, x, y);
                let rect = tile.rect(world);
                if let Some(interior) = classify_tile(g, &rect, areal) {
                    out.push(TileApprox { code: tile.code(), interior });
                }
            }
        }
        out
    }

    /// `None` outside, `Some(interior)` otherwise.
    fn classify_tile(g: &Geometry, tile_rect: &Rect, areal: bool) -> Option<bool> {
        let tile_poly = Geometry::Polygon(Polygon::from_rect(tile_rect));
        match g {
            Geometry::Point(p) => return tile_rect.contains_point(p).then_some(false),
            Geometry::Polygon(poly) if poly.holes().is_empty() => {
                let corners = tile_rect.corners();
                let inside = corners
                    .iter()
                    .all(|c| poly.exterior().locate_point(c) == PointLocation::Inside);
                if inside {
                    let crossed = poly.boundary_segments().any(|s| {
                        s.bbox().intersects(tile_rect) && segment_meets_rect(&s, tile_rect)
                    });
                    return Some(!crossed);
                }
            }
            _ => {}
        }
        if !intersects(g, &tile_poly) {
            return None;
        }
        Some(areal && covered_by(&tile_poly, g))
    }

    fn segment_meets_rect(s: &Segment, r: &Rect) -> bool {
        if r.contains_point(&s.a) || r.contains_point(&s.b) {
            return true;
        }
        let c = r.corners();
        (0..4).any(|i| s.intersects(&Segment::new(c[i], c[(i + 1) % 4])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdo_geom::polygon::Ring;
    use sdo_geom::{intersects, LineString, MultiLineString, MultiPoint, MultiPolygon, Polygon};

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
    fn hole_through_a_tile_corner_keeps_the_tile_a_boundary_tile() {
        // The hole's vertex (128, 128) is the corner of tile (7, 7) at
        // level 4, and its edges cut that tile: (127, 127.5) is in the
        // hole, so the tile is not interior.
        let g = sdo_geom::wkt::parse_wkt(
            "POLYGON ((96 96, 160 96, 160 160, 96 160, 96 96), \
             (128 124, 120 128, 128 128, 144 128, 128 124))",
        )
        .unwrap();
        let code = Tile::new(4, 7, 7).code();
        let tiles = tessellate(&g, &WORLD, 4);
        let tile = tiles.iter().find(|t| t.code == code).expect("the tile meets the polygon");
        assert!(!tile.interior);
        assert_eq!(tiles, reference::tessellate(&g, &WORLD, 4));
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

    /// Where a generated vertex sits on a grid of spacing `unit`: free,
    /// on a vertical line, on a horizontal line, or on a corner.
    fn snap(p: Point, mode: u8, unit: f64) -> Point {
        let s = |v: f64| (v / unit).round() * unit;
        match mode % 4 {
            0 => p,
            1 => Point::new(s(p.x), p.y),
            2 => Point::new(p.x, s(p.y)),
            _ => Point::new(s(p.x), s(p.y)),
        }
    }

    /// Vertices in tile units around the origin: `(offset x, offset y,
    /// snap mode)`.
    type Cloud = Vec<(f64, f64, u8)>;

    fn cloud(len: std::ops::Range<usize>) -> impl Strategy<Value = Cloud> {
        proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0u8..8), len)
    }

    /// The shapes the classifier must agree on, before placement.
    #[derive(Debug, Clone)]
    enum Shape {
        /// Star-shaped polygon: radii and snap modes at even angles,
        /// with an optional star-shaped hole.
        Star {
            outer: Cloud,
            hole: Option<Cloud>,
        },
        /// Two disjoint stars.
        TwoStars(Cloud, Cloud),
        /// Axis-aligned box, optionally with a box hole.
        GridBox {
            lo: (f64, f64),
            hi: (f64, f64),
            hole: bool,
        },
        Line(Cloud),
        TwoLines(Cloud, Cloud),
        Points(Cloud),
    }

    fn arb_shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            (cloud(3..12), any::<bool>(), cloud(3..8)).prop_map(|(outer, holed, hole)| {
                Shape::Star { outer, hole: holed.then_some(hole) }
            }),
            (cloud(3..9), cloud(3..9)).prop_map(|(a, b)| Shape::TwoStars(a, b)),
            ((-1.0f64..0.0, -1.0f64..0.0), (0.0f64..1.0, 0.0f64..1.0), any::<bool>())
                .prop_map(|(lo, hi, hole)| Shape::GridBox { lo, hi, hole }),
            cloud(2..8).prop_map(Shape::Line),
            (cloud(2..6), cloud(2..6)).prop_map(|(a, b)| Shape::TwoLines(a, b)),
            cloud(1..6).prop_map(Shape::Points),
        ]
    }

    /// Drop consecutive repeats (snapping can merge vertices).
    fn dedup(mut pts: Vec<Point>) -> Vec<Point> {
        pts.dedup();
        while pts.len() > 1 && pts.first() == pts.last() {
            pts.pop();
        }
        pts
    }

    /// A star ring of radius up to `r` around `c`: vertex `i` sits at
    /// angle `2πi/n` and a radius between `lo` and 1 of `r`.
    fn star(cl: &Cloud, c: Point, r: f64, lo: f64, unit: f64) -> Option<Ring> {
        let n = cl.len() as f64;
        let pts = cl.iter().enumerate().map(|(i, &(f, _, mode))| {
            let a = std::f64::consts::TAU * i as f64 / n;
            let rad = r * (lo + (1.0 - lo) * (f + 1.0) / 2.0);
            snap(Point::new(c.x + rad * a.cos(), c.y + rad * a.sin()), mode, unit)
        });
        Ring::new(dedup(pts.collect())).ok()
    }

    /// Place `shape` at `c` with a radius of `r` world units, snapping
    /// to `unit`. `None` when snapping made it invalid.
    fn build(shape: &Shape, c: Point, r: f64, unit: f64) -> Option<Geometry> {
        let pt =
            |&(x, y, mode): &(f64, f64, u8)| snap(Point::new(c.x + x * r, c.y + y * r), mode, unit);
        let g = match shape {
            Shape::Star { outer, hole } => {
                let outer = star(outer, c, r, 0.5, unit)?;
                let holes = match hole {
                    Some(h) => vec![star(h, c, r * 0.4, 0.2, unit)?],
                    None => Vec::new(),
                };
                Geometry::Polygon(Polygon::new(outer, holes))
            }
            Shape::TwoStars(a, b) => {
                let left = star(a, Point::new(c.x - r / 2.0, c.y), r * 0.45, 0.3, unit)?;
                let right = star(b, Point::new(c.x + r / 2.0, c.y), r * 0.45, 0.3, unit)?;
                Geometry::MultiPolygon(
                    MultiPolygon::new(vec![
                        Polygon::from_exterior(left),
                        Polygon::from_exterior(right),
                    ])
                    .ok()?,
                )
            }
            Shape::GridBox { lo, hi, hole } => {
                let a = snap(Point::new(c.x + lo.0 * r, c.y + lo.1 * r), 3, unit);
                let b = snap(Point::new(c.x + hi.0 * r, c.y + hi.1 * r), 3, unit);
                let outer = Ring::new(Rect::from_corners(a, b).corners().to_vec()).ok()?;
                let holes = if *hole {
                    let q = |t: f64| Point::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
                    let (ha, hb) = (snap(q(0.25), 3, unit), snap(q(0.75), 3, unit));
                    vec![Ring::new(Rect::from_corners(ha, hb).corners().to_vec()).ok()?]
                } else {
                    Vec::new()
                };
                Geometry::Polygon(Polygon::new(outer, holes))
            }
            Shape::Line(cl) => {
                Geometry::LineString(LineString::new(dedup(cl.iter().map(pt).collect())).ok()?)
            }
            Shape::TwoLines(a, b) => {
                let line = |cl: &Cloud| LineString::new(dedup(cl.iter().map(pt).collect())).ok();
                Geometry::MultiLineString(MultiLineString::new(vec![line(a)?, line(b)?]).ok()?)
            }
            Shape::Points(cl) => match cl.as_slice() {
                [one] => Geometry::Point(pt(one)),
                _ => Geometry::MultiPoint(MultiPoint::new(cl.iter().map(pt).collect()).ok()?),
            },
        };
        sdo_geom::validate::validate(&g).is_ok().then_some(g)
    }

    /// A shape placed at a random spot and size for a random level,
    /// its vertices snapped to that level's grid lines, to half of
    /// them or to every other one.
    fn arb_case() -> impl Strategy<Value = (Geometry, u32)> {
        (arb_shape(), 1u32..=12, (0.0f64..1.0, 0.0f64..1.0), 0.1f64..1.0, 0u32..3).prop_filter_map(
            "snapping made the shape invalid",
            |(shape, level, (fx, fy), size, grid)| {
                let tile = WORLD.width() / f64::from(1u32 << level);
                // At most ~20 tiles of radius, so the reference stays fast.
                let r = (20.0 * tile * size).min(100.0 * size).max(tile * 0.3);
                let unit = tile * f64::from(1u32 << grid) / 2.0;
                let c = snap(
                    Point::new(
                        WORLD.min_x + r + 1.0 + fx * (WORLD.width() - 2.0 * r - 2.0),
                        WORLD.min_y + r + 1.0 + fy * (WORLD.height() - 2.0 * r - 2.0),
                    ),
                    3,
                    unit,
                );
                Some((build(&shape, c, r, unit)?, level))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The edge classifier returns exactly the old flat loop's
        /// tiles, codes, order and interior flags at levels 1–12,
        /// including vertices on tile edges and corners.
        #[test]
        fn edge_classifier_matches_flat_loop((g, level) in arb_case()) {
            prop_assert_eq!(
                tessellate(&g, &WORLD, level),
                reference::tessellate(&g, &WORLD, level),
                "level {} {}",
                level,
                sdo_geom::wkt::to_wkt(&g)
            );
        }
    }

    #[test]
    fn reflex_vertex_on_a_tile_edge_follows_the_flat_loop() {
        // A notch whose apex touches the top edge of tile [32,48]² at
        // (40, 48): the tile's inside is covered, but the boundary
        // meets it. Under a polygon without holes that tile has always
        // been a boundary tile; with a hole elsewhere it is interior.
        let ring = |pts: &[(f64, f64)]| {
            Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
        };
        let notched = ring(&[
            (0.0, 0.0),
            (128.0, 0.0),
            (128.0, 128.0),
            (44.0, 128.0),
            (40.0, 48.0),
            (36.0, 128.0),
            (0.0, 128.0),
        ]);
        let hole = ring(&[(100.0, 100.0), (110.0, 100.0), (110.0, 110.0)]);
        let touched = Tile::containing(4, &WORLD, &Point::new(40.0, 40.0)).code();
        for (holes, interior) in [(vec![], false), (vec![hole], true)] {
            let g = Geometry::Polygon(Polygon::new(notched.clone(), holes));
            let tiles = tessellate(&g, &WORLD, 4);
            assert_eq!(tiles, reference::tessellate(&g, &WORLD, 4));
            assert!(tiles.contains(&TileApprox { code: touched, interior }));
        }
    }

    #[test]
    fn edge_classifier_matches_flat_loop_on_block_groups() {
        let groups = sdo_datagen::block_groups::generate(400, &WORLD, 20030305);
        for level in [6, 8] {
            for (i, g) in groups.iter().enumerate() {
                let got = tessellate(g, &WORLD, level);
                assert_eq!(got, reference::tessellate(g, &WORLD, level), "group {i} level {level}");
            }
        }
    }

    #[test]
    fn shapes_straddling_the_world_follow_the_flat_loop() {
        // Clipped to the world, whole columns and the runs at the
        // clipped edges can lie inside with no segment meeting them.
        let ring = |pts: &[(f64, f64)]| {
            Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
        };
        let cover = ring(&[(-50.0, -40.0), (300.0, -60.0), (310.0, 290.0), (-30.0, 280.0)]);
        let holed =
            Polygon::new(cover.clone(), vec![ring(&[(60.0, 70.0), (90.0, 75.0), (70.0, 99.0)])]);
        let shapes = [
            Geometry::Polygon(Polygon::from_exterior(cover)),
            Geometry::Polygon(holed),
            Geometry::Polygon(Polygon::from_exterior(ring(&[
                (-20.0, 30.0),
                (150.0, -10.0),
                (100.0, 120.0),
                (-5.0, 200.0),
            ]))),
            square(200.0, 100.0, 90.0),
        ];
        for g in &shapes {
            for level in 1..=6 {
                assert_eq!(
                    tessellate(g, &WORLD, level),
                    reference::tessellate(g, &WORLD, level),
                    "level {level} {}",
                    sdo_geom::wkt::to_wkt(g)
                );
            }
        }
    }

    #[test]
    fn world_spanning_line_at_a_deep_level_costs_its_tiles() {
        // One diagonal segment across the world at level 16: its MBR
        // holds 2^32 tiles, the line meets about three per column.
        let level = 16;
        let (a, b) = (Point::new(1.0, 3.0), Point::new(255.0, 250.0));
        let line = Segment::new(a, b);
        let g = Geometry::LineString(LineString::new(vec![a, b]).unwrap());
        let tiles = tessellate(&g, &WORLD, level);
        assert!(tiles.len() > 1 << level && tiles.len() < 3 << level, "{} tiles", tiles.len());
        assert!(tiles.windows(2).all(|w| w[0] != w[1]));
        for t in &tiles {
            assert!(!t.interior);
            assert!(segment_meets_rect(&line, &Tile::from_code(level, t.code).rect(&WORLD)));
        }
    }

    #[test]
    fn far_apart_parts_at_the_deepest_level_cost_their_tiles() {
        // Opposite corners of the world at level 31: an MBR of about
        // 2^62 tiles, and the output is a few tiles per part.
        let level = crate::MAX_LEVEL;
        let points = Geometry::MultiPoint(
            MultiPoint::new(vec![Point::new(1.3, 2.7), Point::new(250.1, 251.3)]).unwrap(),
        );
        let tiles = tessellate(&points, &WORLD, level);
        assert_eq!(tiles.len(), 2);
        assert!(tiles.iter().all(|t| !t.interior));

        // Two grid-aligned squares, 8 tiles a side: 8x8 interior tiles
        // each, and the boundary tiles that meet their edges. The MBR
        // starts at the first square's lower-left corner, so that
        // square keeps 9x9 tiles and the second 10x10.
        let t = WORLD.width() / f64::from(1u32 << level);
        let sq = |x: f64, y: f64| Polygon::from_rect(&Rect::new(x, y, x + 8.0 * t, y + 8.0 * t));
        let squares = Geometry::MultiPolygon(
            MultiPolygon::new(vec![sq(10.0 * t, 10.0 * t), sq(200.0, 200.0)]).unwrap(),
        );
        let tiles = tessellate(&squares, &WORLD, level);
        assert_eq!(tiles.len(), 81 + 100);
        assert_eq!(tiles.iter().filter(|t| t.interior).count(), 128);
    }
}
