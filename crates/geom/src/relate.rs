//! Exact geometry–geometry predicates — the paper's *secondary filter*.
//!
//! `SDO_RELATE(a.geom, b.geom, 'mask=ANYINTERACT')` style masks are
//! evaluated here on exact geometries; the primary filter (index MBRs)
//! lives in the index crates. Masks follow Oracle Spatial's 9-intersection
//! derived vocabulary: `ANYINTERACT`, `INSIDE`, `CONTAINS`, `COVERS`,
//! `COVEREDBY`, `TOUCH`, `OVERLAP`, `EQUAL`, `DISJOINT`.

use crate::algorithms::geometry_distance;
use crate::error::GeomError;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::{PointLocation, Polygon};
use crate::rect::Rect;
use crate::segment::Segment;
use crate::EPS;

/// A spatial interaction mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelateMask {
    /// Geometries share at least one point.
    AnyInteract,
    /// Geometries share no point.
    Disjoint,
    /// `a` lies in the interior of `b` with no boundary contact.
    Inside,
    /// `b` lies in the interior of `a` with no boundary contact.
    Contains,
    /// `a` lies entirely within `b`, boundary contact allowed (and the
    /// geometries are not equal).
    CoveredBy,
    /// `b` lies entirely within `a`, boundary contact allowed (and the
    /// geometries are not equal).
    Covers,
    /// Boundaries intersect but interiors do not.
    Touch,
    /// Interiors intersect and neither geometry contains the other.
    Overlap,
    /// The geometries cover each other.
    Equal,
}

impl RelateMask {
    /// Parse a single mask name, case-insensitively. Accepts Oracle's
    /// `OVERLAPBDYINTERSECT`/`OVERLAPBDYDISJOINT` as synonyms of
    /// `OVERLAP`.
    pub fn parse(s: &str) -> Result<Self, GeomError> {
        match s.trim().to_ascii_uppercase().as_str() {
            "ANYINTERACT" | "INTERSECT" | "INTERSECTS" => Ok(RelateMask::AnyInteract),
            "DISJOINT" => Ok(RelateMask::Disjoint),
            "INSIDE" => Ok(RelateMask::Inside),
            "CONTAINS" => Ok(RelateMask::Contains),
            "COVEREDBY" => Ok(RelateMask::CoveredBy),
            "COVERS" => Ok(RelateMask::Covers),
            "TOUCH" => Ok(RelateMask::Touch),
            "OVERLAP" | "OVERLAPBDYINTERSECT" | "OVERLAPBDYDISJOINT" => Ok(RelateMask::Overlap),
            "EQUAL" => Ok(RelateMask::Equal),
            other => Err(GeomError::Invalid(format!("unknown relate mask: {other}"))),
        }
    }

    /// Parse a `'+'`-separated mask list (Oracle allows unions such as
    /// `'INSIDE+COVEREDBY'`).
    pub fn parse_list(s: &str) -> Result<Vec<Self>, GeomError> {
        let s = s.trim();
        let s = s.strip_prefix("mask=").or_else(|| s.strip_prefix("MASK=")).unwrap_or(s);
        s.split('+').map(RelateMask::parse).collect()
    }

    /// The mask with the roles of the two geometries swapped:
    /// `relate(a, b, m)` ⇔ `relate(b, a, m.transpose())`.
    pub fn transpose(self) -> Self {
        match self {
            RelateMask::Inside => RelateMask::Contains,
            RelateMask::Contains => RelateMask::Inside,
            RelateMask::CoveredBy => RelateMask::Covers,
            RelateMask::Covers => RelateMask::CoveredBy,
            m => m,
        }
    }
}

/// Evaluate `mask` on exact geometries.
///
/// ```
/// use sdo_geom::{relate, RelateMask, wkt::parse_wkt};
///
/// let a = parse_wkt("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))").unwrap();
/// let b = parse_wkt("POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))").unwrap(); // shares an edge
/// assert!(relate(&a, &b, RelateMask::Touch));
/// assert!(!relate(&a, &b, RelateMask::Overlap));
/// ```
pub fn relate(a: &Geometry, b: &Geometry, mask: RelateMask) -> bool {
    match mask {
        RelateMask::AnyInteract => intersects(a, b),
        RelateMask::Disjoint => !intersects(a, b),
        RelateMask::Inside => covered_by(a, b) && !boundaries_interact(a, b),
        RelateMask::Contains => covered_by(b, a) && !boundaries_interact(a, b),
        RelateMask::CoveredBy => covered_by(a, b) && boundaries_interact(a, b) && !covered_by(b, a),
        RelateMask::Covers => covered_by(b, a) && boundaries_interact(a, b) && !covered_by(a, b),
        RelateMask::Touch => intersects(a, b) && !interiors_intersect(a, b),
        RelateMask::Overlap => interiors_intersect(a, b) && !covered_by(a, b) && !covered_by(b, a),
        RelateMask::Equal => covered_by(a, b) && covered_by(b, a),
    }
}

/// Evaluate the union of several masks (Oracle's `m1+m2` semantics).
pub fn relate_any(a: &Geometry, b: &Geometry, masks: &[RelateMask]) -> bool {
    masks.iter().any(|m| relate(a, b, *m))
}

/// Exact minimum distance between two geometries.
#[inline]
pub fn distance(a: &Geometry, b: &Geometry) -> f64 {
    geometry_distance(a, b)
}

/// True when the geometries lie within distance `d` of each other
/// (Oracle's `SDO_WITHIN_DISTANCE`). `d = 0` degenerates to
/// `ANYINTERACT`.
pub fn within_distance(a: &Geometry, b: &Geometry, d: f64) -> bool {
    if d <= 0.0 {
        return intersects(a, b);
    }
    // Cheap MBR rejection before the exact distance computation.
    if a.bbox().mindist(&b.bbox()) > d + EPS {
        return false;
    }
    geometry_distance(a, b) <= d + EPS
}

// ---------------------------------------------------------------------------
// ANYINTERACT
// ---------------------------------------------------------------------------

/// True when the geometries share at least one point.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    if a.is_multi() || b.is_multi() {
        let eb = b.elements();
        return a.elements().iter().any(|ea| eb.iter().any(|eb| intersects_simple(ea, eb)));
    }
    intersects_simple(a, b)
}

fn intersects_simple(a: &Geometry, b: &Geometry) -> bool {
    use Geometry::*;
    match (a, b) {
        (Point(p), Point(q)) => p.almost_eq(q),
        (Point(p), LineString(l)) | (LineString(l), Point(p)) => l.contains_point(p),
        (Point(p), Polygon(poly)) | (Polygon(poly), Point(p)) => poly.contains_point(p),
        (LineString(l1), LineString(l2)) => lines_intersect(l1, l2),
        (LineString(l), Polygon(poly)) | (Polygon(poly), LineString(l)) => {
            line_polygon_intersect(l, poly)
        }
        (Polygon(p1), Polygon(p2)) => polygons_intersect(p1, p2),
        _ => unreachable!("multi geometries decomposed by caller"),
    }
}

fn lines_intersect(l1: &LineString, l2: &LineString) -> bool {
    l1.segments().any(|s| l2.segments().any(|t| s.intersects(&t)))
}

fn line_polygon_intersect(l: &LineString, poly: &Polygon) -> bool {
    if l.points().iter().any(|p| poly.contains_point(p)) {
        return true;
    }
    let boundary: Vec<Segment> = poly.boundary_segments().collect();
    l.segments().any(|s| boundary.iter().any(|t| s.intersects(t)))
}

/// Polygon–polygon `ANYINTERACT`. Allocates nothing.
///
/// Two skips keep it cheap, and both are exact. A vertex is located
/// only when it lies in the other polygon's [`vertex_probe_box`], since
/// outside it the vertex can be neither on nor in that polygon. A
/// boundary segment is paired only when its box meets the other
/// polygon's box: every edge box of a polygon (holes inside the
/// exterior, as [`crate::validate`] requires) lies within its box, so a
/// segment box that misses it misses each edge box, and the pair
/// filter below would reject every pair anyway.
fn polygons_intersect(p1: &Polygon, p2: &Polygon) -> bool {
    let (b1, b2) = (p1.bbox(), p2.bbox());
    if !b1.intersects(&b2) {
        return false;
    }
    // Vertex of one on/in the other covers containment and most overlap.
    if exterior_vertex_in(p1, &b2, |v| p2.contains_point(v))
        || exterior_vertex_in(p2, &b1, |v| p1.contains_point(v))
    {
        return true;
    }
    // Remaining case: boundaries cross without exterior vertices inside.
    p1.boundary_segments().any(|s| {
        let sb = s.bbox();
        sb.intersects(&b2)
            && p2.boundary_segments().any(|t| sb.intersects(&t.bbox()) && s.intersects(&t))
    })
}

/// True when `covers` holds for a vertex of `p`'s exterior, asking
/// only about vertices in the [`vertex_probe_box`] of `other_box`, the
/// bounding box of the polygon `covers` locates points in.
pub(crate) fn exterior_vertex_in(
    p: &Polygon,
    other_box: &Rect,
    covers: impl Fn(&Point) -> bool,
) -> bool {
    let probe = vertex_probe_box(other_box);
    p.exterior().points().iter().any(|v| probe.contains_point(v) && covers(v))
}

/// `b`, a polygon's bounding box, padded so that a point outside the
/// result is `Outside` that polygon. [`Segment::contains_point`]
/// accepts points at most [`EPS`] outside an edge's box, so no point
/// further out is `OnBoundary`. Ray casting counts no crossing for a
/// point above, below or right of every edge, and an even number for a
/// point left of every edge; the crossing abscissa can round a few ulps
/// past its edge's box, which the term relative to the coordinates'
/// magnitude covers.
pub(crate) fn vertex_probe_box(b: &Rect) -> Rect {
    let magnitude = b.min_x.abs().max(b.max_x.abs());
    b.expanded(EPS + 4.0 * f64::EPSILON * magnitude)
}

/// Segment-set intersection with MBR prefiltering; quadratic worst case
/// but the bbox test rejects nearly all pairs on real data.
fn segments_intersect_filtered(a: &[Segment], b: &[Segment]) -> bool {
    for s in a {
        let sb = s.bbox();
        for t in b {
            if sb.intersects(&t.bbox()) && s.intersects(t) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Containment
// ---------------------------------------------------------------------------

/// True when every point of `a` lies in `b` (closed sense): `a ⊆ b`.
pub fn covered_by(a: &Geometry, b: &Geometry) -> bool {
    if a.bbox().is_empty() {
        return false;
    }
    if !b.bbox().contains_rect(&a.bbox()) {
        return false;
    }
    // a ⊆ b iff every element of a is covered by the union of b's
    // elements; for disjoint simple elements of b, each element of a
    // must be covered by a single element (true for valid OGC multis).
    a.elements().iter().all(|ea| b.elements().iter().any(|eb| covered_by_simple(ea, eb)))
}

fn covered_by_simple(a: &Geometry, b: &Geometry) -> bool {
    use Geometry::*;
    match (a, b) {
        (Point(p), _) => b.covers_point(p),
        (LineString(_), Point(_)) | (Polygon(_), Point(_)) | (Polygon(_), LineString(_)) => false,
        (LineString(l1), LineString(l2)) => {
            // Every vertex and every segment midpoint of l1 on l2.
            l1.points().iter().all(|p| l2.contains_point(p))
                && l1.segments().all(|s| l2.contains_point(&((s.a + s.b) * 0.5)))
        }
        (LineString(l), Polygon(poly)) => {
            l.points().iter().all(|p| poly.contains_point(p))
                && !crosses_out_of_polygon(&l.segments().collect::<Vec<_>>(), poly)
        }
        (Polygon(p1), Polygon(p2)) => polygon_covered_by(p1, p2),
        _ => unreachable!("multi geometries decomposed by caller"),
    }
}

/// True when some segment of `segs` leaves the polygon: a proper
/// crossing with the boundary, or a midpoint falling outside.
fn crosses_out_of_polygon(segs: &[Segment], poly: &Polygon) -> bool {
    let boundary: Vec<Segment> = poly.boundary_segments().collect();
    for s in segs {
        let sb = s.bbox();
        for t in &boundary {
            if sb.intersects(&t.bbox()) && s.crosses_properly(t) {
                return true;
            }
        }
        if poly.locate_point(&((s.a + s.b) * 0.5)) == PointLocation::Outside {
            return true;
        }
    }
    false
}

fn polygon_covered_by(a: &Polygon, b: &Polygon) -> bool {
    // Every exterior and hole vertex of a must lie in b.
    if !a.exterior().points().iter().all(|p| b.contains_point(p)) {
        return false;
    }
    for h in a.holes() {
        if !h.points().iter().all(|p| b.contains_point(p)) {
            return false;
        }
    }
    // No edge of a may leave b.
    if crosses_out_of_polygon(&a.boundary_segments().collect::<Vec<_>>(), b) {
        return false;
    }
    // A hole of b strictly inside a would punch uncovered area out of a.
    for h in b.holes() {
        if h.points().iter().any(|p| a.locate_point(p) == PointLocation::Inside) {
            return false;
        }
        // A hole edge through a's interior: the hole's open interior
        // meets a's interior beside it, even when every hole vertex is
        // on a's boundary or outside a (a hole vertex on a tile corner).
        if h.segments().any(|s| a.locate_point(&((s.a + s.b) * 0.5)) == PointLocation::Inside) {
            return false;
        }
        // Hole of b entirely within a but vertex-coincident with a's
        // boundary: catch via a representative interior point of the hole.
        if h.points().iter().all(|p| a.contains_point(p)) {
            let c =
                crate::algorithms::centroid(&Geometry::Polygon(Polygon::from_exterior(h.clone())));
            if a.locate_point(&c) == PointLocation::Inside
                && b.locate_point(&c) == PointLocation::Outside
            {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Interior / boundary interaction (TOUCH vs OVERLAP)
// ---------------------------------------------------------------------------

/// True when the boundaries (or point sets for points) of the two
/// geometries share at least one point.
pub fn boundaries_interact(a: &Geometry, b: &Geometry) -> bool {
    let sa = a.segments();
    let sb = b.segments();
    match (sa.is_empty(), sb.is_empty()) {
        (true, true) => intersects(a, b),
        (true, false) => a.vertices().iter().any(|p| sb.iter().any(|s| s.contains_point(p))),
        (false, true) => b.vertices().iter().any(|p| sa.iter().any(|s| s.contains_point(p))),
        (false, false) => segments_intersect_filtered(&sa, &sb),
    }
}

/// True when the interiors of the two geometries share a point.
///
/// For mixed dimensions, the interior of the lower-dimensional geometry
/// is taken relative to itself (a point's interior is the point, a
/// line's interior is the line minus endpoints) — matching Oracle's
/// mask semantics where a point inside a polygon "overlaps" nothing but
/// is INSIDE.
pub fn interiors_intersect(a: &Geometry, b: &Geometry) -> bool {
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    if a.is_multi() || b.is_multi() {
        return a
            .elements()
            .iter()
            .any(|ea| b.elements().iter().any(|eb| interiors_intersect(ea, eb)));
    }
    use Geometry::*;
    match (a, b) {
        (Point(p), Point(q)) => p.almost_eq(q),
        (Point(p), LineString(l)) | (LineString(l), Point(p)) => line_interior_contains(l, p),
        (Point(p), Polygon(poly)) | (Polygon(poly), Point(p)) => {
            poly.locate_point(p) == PointLocation::Inside
        }
        (LineString(l1), LineString(l2)) => {
            // Proper crossing, or collinear overlap, or an interior point
            // of one lying in the interior of the other.
            for s in l1.segments() {
                for t in l2.segments() {
                    if s.crosses_properly(&t) || s.collinear_overlaps(&t) {
                        return true;
                    }
                }
            }
            l1.points()[1..l1.num_points().saturating_sub(1)]
                .iter()
                .any(|p| line_interior_contains(l2, p))
                || l2.points()[1..l2.num_points().saturating_sub(1)]
                    .iter()
                    .any(|p| line_interior_contains(l1, p))
        }
        (LineString(l), Polygon(poly)) | (Polygon(poly), LineString(l)) => {
            // Any point of the line strictly inside the polygon.
            if l.points().iter().any(|p| poly.locate_point(p) == PointLocation::Inside) {
                return true;
            }
            l.segments().any(|s| {
                poly.locate_point(&((s.a + s.b) * 0.5)) == PointLocation::Inside
                    || poly.boundary_segments().any(|t| s.crosses_properly(&t))
            })
        }
        (Polygon(p1), Polygon(p2)) => polygon_interiors_intersect(p1, p2),
        _ => unreachable!("multi geometries decomposed above"),
    }
}

fn line_interior_contains(l: &LineString, p: &Point) -> bool {
    if !l.contains_point(p) {
        return false;
    }
    let first = l.points().first().unwrap();
    let last = l.points().last().unwrap();
    if l.is_closed() {
        return true; // a closed line has no boundary
    }
    !p.almost_eq(first) && !p.almost_eq(last)
}

fn polygon_interiors_intersect(a: &Polygon, b: &Polygon) -> bool {
    // 1. Any vertex of one strictly inside the other.
    if a.exterior().points().iter().any(|p| b.locate_point(p) == PointLocation::Inside)
        || b.exterior().points().iter().any(|p| a.locate_point(p) == PointLocation::Inside)
    {
        return true;
    }
    // 2. Proper boundary crossings imply interior overlap.
    let ba: Vec<Segment> = a.boundary_segments().collect();
    let bb: Vec<Segment> = b.boundary_segments().collect();
    for s in &ba {
        let sbb = s.bbox();
        for t in &bb {
            if sbb.intersects(&t.bbox()) && s.crosses_properly(t) {
                return true;
            }
        }
    }
    // 3. Edge-sharing cases (equal polygons, one inside the other with
    //    coincident edges): probe midpoints of boundary edges and a
    //    representative interior point.
    for s in &ba {
        let mid = (s.a + s.b) * 0.5;
        if b.locate_point(&mid) == PointLocation::Inside {
            return true;
        }
    }
    for t in &bb {
        let mid = (t.a + t.b) * 0.5;
        if a.locate_point(&mid) == PointLocation::Inside {
            return true;
        }
    }
    let ia = interior_point(a);
    if b.locate_point(&ia) == PointLocation::Inside && a.locate_point(&ia) == PointLocation::Inside
    {
        return true;
    }
    let ib = interior_point(b);
    a.locate_point(&ib) == PointLocation::Inside && b.locate_point(&ib) == PointLocation::Inside
}

/// A point guaranteed to lie in the interior of a valid polygon
/// ("point on surface"): scanline through the bbox, midpoint of the
/// first inside span. Falls back to the centroid.
pub fn interior_point(poly: &Polygon) -> Point {
    let bb = poly.bbox();
    // Try several scanlines to dodge degeneracies at vertex heights.
    for frac in [0.5, 0.37, 0.61, 0.23, 0.79, 0.11, 0.93] {
        let y = bb.min_y + (bb.max_y - bb.min_y) * frac;
        let mut xs: Vec<f64> = Vec::new();
        for s in poly.boundary_segments() {
            let (y0, y1) = (s.a.y, s.b.y);
            if (y0 > y) != (y1 > y) {
                xs.push(s.a.x + (y - y0) / (y1 - y0) * (s.b.x - s.a.x));
            }
        }
        xs.sort_by(f64::total_cmp);
        for w in xs.chunks_exact(2) {
            let mid = Point::new((w[0] + w[1]) / 2.0, y);
            if poly.locate_point(&mid) == PointLocation::Inside {
                return mid;
            }
        }
    }
    crate::algorithms::polygon_centroid(poly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Ring;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square(x: f64, y: f64, s: f64) -> Geometry {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + s, y + s)))
    }

    fn line(pts: &[(f64, f64)]) -> Geometry {
        Geometry::LineString(LineString::new(pts.iter().map(|&(x, y)| pt(x, y)).collect()).unwrap())
    }

    #[test]
    fn mask_parsing() {
        assert_eq!(RelateMask::parse("anyinteract").unwrap(), RelateMask::AnyInteract);
        assert_eq!(RelateMask::parse(" TOUCH ").unwrap(), RelateMask::Touch);
        assert_eq!(
            RelateMask::parse_list("mask=INSIDE+COVEREDBY").unwrap(),
            vec![RelateMask::Inside, RelateMask::CoveredBy]
        );
        assert!(RelateMask::parse("bogus").is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        for m in [
            RelateMask::AnyInteract,
            RelateMask::Inside,
            RelateMask::Contains,
            RelateMask::Covers,
            RelateMask::CoveredBy,
            RelateMask::Touch,
            RelateMask::Overlap,
            RelateMask::Equal,
            RelateMask::Disjoint,
        ] {
            assert_eq!(m.transpose().transpose(), m);
        }
        assert_eq!(RelateMask::Inside.transpose(), RelateMask::Contains);
    }

    #[test]
    fn overlapping_squares() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        assert!(relate(&a, &b, RelateMask::AnyInteract));
        assert!(relate(&a, &b, RelateMask::Overlap));
        assert!(!relate(&a, &b, RelateMask::Touch));
        assert!(!relate(&a, &b, RelateMask::Inside));
        assert!(!relate(&a, &b, RelateMask::Disjoint));
    }

    #[test]
    fn touching_squares() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 0.0, 1.0); // shares the x=1 edge
        assert!(relate(&a, &b, RelateMask::AnyInteract));
        assert!(relate(&a, &b, RelateMask::Touch));
        assert!(!relate(&a, &b, RelateMask::Overlap));
        // corner touch
        let c = square(1.0, 1.0, 1.0);
        assert!(relate(&a, &c, RelateMask::Touch));
    }

    #[test]
    fn disjoint_squares() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(5.0, 5.0, 1.0);
        assert!(relate(&a, &b, RelateMask::Disjoint));
        assert!(!relate(&a, &b, RelateMask::AnyInteract));
    }

    #[test]
    fn nested_squares_inside_contains() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(3.0, 3.0, 2.0);
        assert!(relate(&inner, &outer, RelateMask::Inside));
        assert!(relate(&outer, &inner, RelateMask::Contains));
        assert!(!relate(&inner, &outer, RelateMask::CoveredBy)); // no boundary contact
        assert!(!relate(&inner, &outer, RelateMask::Overlap));
        assert!(relate(&inner, &outer, RelateMask::AnyInteract));
    }

    #[test]
    fn covered_by_with_shared_edge() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(0.0, 0.0, 4.0); // shares two edges with outer
        assert!(relate(&inner, &outer, RelateMask::CoveredBy));
        assert!(relate(&outer, &inner, RelateMask::Covers));
        assert!(!relate(&inner, &outer, RelateMask::Inside));
        assert!(!relate(&inner, &outer, RelateMask::Equal));
    }

    #[test]
    fn equal_polygons() {
        let a = square(0.0, 0.0, 3.0);
        let b = square(0.0, 0.0, 3.0);
        assert!(relate(&a, &b, RelateMask::Equal));
        assert!(!relate(&a, &b, RelateMask::CoveredBy)); // EQUAL excludes COVEREDBY
        assert!(!relate(&a, &b, RelateMask::Touch));
        assert!(relate(&a, &b, RelateMask::AnyInteract));
    }

    #[test]
    fn hole_excludes_containment() {
        let outer = Ring::new(Rect::new(0.0, 0.0, 10.0, 10.0).corners().to_vec()).unwrap();
        let hole = Ring::new(Rect::new(2.0, 2.0, 8.0, 8.0).corners().to_vec()).unwrap();
        let donut = Geometry::Polygon(Polygon::new(outer, vec![hole]));
        let inner = square(4.0, 4.0, 2.0); // entirely within the hole
        assert!(!covered_by(&inner, &donut));
        assert!(relate(&inner, &donut, RelateMask::Disjoint));
        // and the donut is not covered by a polygon that would fill it
        let filler = square(0.0, 0.0, 10.0);
        assert!(covered_by(&donut, &filler));
        assert!(!covered_by(&filler, &donut));
    }

    /// A hole vertex on the tile's corner hid the hole edges that cut
    /// the tile, so the tile used to count as covered.
    #[test]
    fn hole_edge_through_a_tile_corner_uncovers_the_tile() {
        let tile = crate::wkt::parse_wkt("POLYGON ((112 112, 128 112, 128 128, 112 128, 112 112))")
            .unwrap();
        let holed = crate::wkt::parse_wkt(
            "POLYGON ((96 96, 160 96, 160 160, 96 160, 96 96), \
             (128 124, 120 128, 128 128, 144 128, 128 124))",
        )
        .unwrap();
        let in_hole = pt(127.0, 127.5);
        assert!(tile.covers_point(&in_hole) && !holed.covers_point(&in_hole));
        assert!(!covered_by(&tile, &holed));
        assert!(!relate(&tile, &holed, RelateMask::CoveredBy));
        assert!(relate(&tile, &holed, RelateMask::Overlap));
    }

    #[test]
    fn point_predicates() {
        let sq = square(0.0, 0.0, 2.0);
        let inside = Geometry::Point(pt(1.0, 1.0));
        let on_edge = Geometry::Point(pt(0.0, 1.0));
        let outside = Geometry::Point(pt(5.0, 5.0));
        assert!(relate(&inside, &sq, RelateMask::Inside));
        assert!(relate(&sq, &inside, RelateMask::Contains));
        assert!(relate(&on_edge, &sq, RelateMask::Touch));
        assert!(!relate(&on_edge, &sq, RelateMask::Inside));
        assert!(relate(&outside, &sq, RelateMask::Disjoint));
        assert!(relate(&inside, &inside, RelateMask::Equal));
    }

    #[test]
    fn line_crosses_polygon() {
        let sq = square(0.0, 0.0, 2.0);
        let crossing = line(&[(-1.0, 1.0), (3.0, 1.0)]);
        assert!(relate(&crossing, &sq, RelateMask::AnyInteract));
        assert!(interiors_intersect(&crossing, &sq));
        let touching = line(&[(-1.0, 0.0), (3.0, 0.0)]); // along bottom edge
        assert!(relate(&touching, &sq, RelateMask::Touch));
        let inside = line(&[(0.5, 0.5), (1.5, 1.5)]);
        assert!(relate(&inside, &sq, RelateMask::Inside));
    }

    #[test]
    fn line_line_relations() {
        let a = line(&[(0.0, 0.0), (2.0, 2.0)]);
        let b = line(&[(0.0, 2.0), (2.0, 0.0)]);
        assert!(relate(&a, &b, RelateMask::AnyInteract));
        assert!(interiors_intersect(&a, &b));
        // touch at endpoints only
        let c = line(&[(2.0, 2.0), (3.0, 0.0)]);
        assert!(relate(&a, &c, RelateMask::Touch));
        // sub-line covered by longer line
        let d = line(&[(0.5, 0.5), (1.5, 1.5)]);
        assert!(covered_by(&d, &a));
        assert!(relate(&d, &a, RelateMask::CoveredBy));
    }

    #[test]
    fn within_distance_basics() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(3.0, 0.0, 1.0);
        assert!(!within_distance(&a, &b, 1.0));
        assert!(within_distance(&a, &b, 2.0));
        assert!(within_distance(&a, &b, 2.5));
        // d = 0 means intersects
        assert!(!within_distance(&a, &b, 0.0));
        assert!(within_distance(&a, &a, 0.0));
    }

    #[test]
    fn symmetry_of_symmetric_masks() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        for m in [
            RelateMask::AnyInteract,
            RelateMask::Touch,
            RelateMask::Overlap,
            RelateMask::Equal,
            RelateMask::Disjoint,
        ] {
            assert_eq!(relate(&a, &b, m), relate(&b, &a, m), "{m:?} not symmetric");
        }
    }

    #[test]
    fn interior_point_inside() {
        let outer = Ring::new(Rect::new(0.0, 0.0, 10.0, 10.0).corners().to_vec()).unwrap();
        let hole = Ring::new(Rect::new(1.0, 1.0, 9.0, 9.0).corners().to_vec()).unwrap();
        let donut = Polygon::new(outer, vec![hole]);
        let ip = interior_point(&donut);
        assert_eq!(donut.locate_point(&ip), PointLocation::Inside);
    }

    #[test]
    fn multipolygon_relations() {
        let mp = Geometry::MultiPolygon(
            crate::multi::MultiPolygon::new(vec![
                Polygon::from_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)),
                Polygon::from_rect(&Rect::new(5.0, 5.0, 6.0, 6.0)),
            ])
            .unwrap(),
        );
        let probe = square(5.5, 5.5, 0.2);
        assert!(relate(&probe, &mp, RelateMask::AnyInteract));
        assert!(covered_by(&probe, &mp));
        let gap = square(2.5, 2.5, 0.5);
        assert!(relate(&gap, &mp, RelateMask::Disjoint));
    }
}
