//! Polygons with optional holes.

use crate::error::GeomError;
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use serde::{Deserialize, Serialize};

/// Where a point lies relative to a ring or polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLocation {
    /// Strictly interior.
    Inside,
    /// On a ring edge or vertex.
    OnBoundary,
    /// Strictly exterior.
    Outside,
}

/// A simple closed ring.
///
/// Stored *without* the repeated closing vertex; the closing edge from
/// the last vertex back to the first is implicit. Orientation is not
/// normalized on construction — use [`Ring::signed_area`] /
/// [`Ring::ensure_ccw`] when orientation matters. The MBR is computed
/// once, at construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ring {
    points: Vec<Point>,
    bbox: Rect,
}

impl Ring {
    /// Build a ring from vertices. A trailing vertex equal to the first
    /// is dropped. Fails with fewer than three distinct vertices.
    pub fn new(mut points: Vec<Point>) -> Result<Self, GeomError> {
        if points.len() >= 2 {
            let first = points[0];
            if points.last().unwrap().almost_eq(&first) {
                points.pop();
            }
        }
        if points.len() < 3 {
            return Err(GeomError::TooFewPoints { expected: 3, got: points.len() });
        }
        let bbox = Rect::of_finite(&points)?;
        Ok(Ring { points, bbox })
    }

    /// The ring's vertices (closing vertex implicit).
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of distinct vertices.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Iterate the ring's edges, including the implicit closing edge
    /// (last).
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let next = self.points[1..].iter().chain(&self.points[..1]);
        self.points.iter().zip(next).map(|(a, b)| Segment::new(*a, *b))
    }

    /// Shoelace signed area: positive for counterclockwise rings.
    pub fn signed_area(&self) -> f64 {
        let next = self.points[1..].iter().chain(&self.points[..1]);
        self.points.iter().zip(next).fold(0.0, |sum, (a, b)| sum + a.cross(b)) / 2.0
    }

    /// Unsigned enclosed area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Reverse vertex order in place if the ring is clockwise.
    pub fn ensure_ccw(&mut self) {
        if self.signed_area() < 0.0 {
            self.points.reverse();
        }
    }

    /// Reverse vertex order in place if the ring is counterclockwise.
    pub fn ensure_cw(&mut self) {
        if self.signed_area() > 0.0 {
            self.points.reverse();
        }
    }

    /// Total boundary length, closing edge included.
    pub fn perimeter(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Bounding rectangle over the vertices (cached).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Ray-casting point location with an explicit boundary class.
    ///
    /// Casts a ray in +x and counts crossings, treating vertices on the
    /// ray with the standard "lower endpoint inclusive" rule so shared
    /// vertices are not double counted.
    pub fn locate_point(&self, p: &Point) -> PointLocation {
        let mut inside = false;
        for s in self.segments() {
            let Segment { a, b } = s;
            if s.contains_point(p) {
                return PointLocation::OnBoundary;
            }
            // Half-open rule: edge counts when exactly one endpoint is
            // strictly above the ray.
            if (a.y > p.y) != (b.y > p.y) {
                let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if x_at > p.x {
                    inside = !inside;
                }
            }
        }
        if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }

    /// True when `p` is inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.locate_point(p) != PointLocation::Outside
    }

    /// True when the ring is simple (no self-intersections apart from
    /// consecutive edges sharing a vertex). Small rings use the direct
    /// quadratic pair scan; larger rings route through the segment
    /// index ([`crate::prepared::SegIndex`]) for `O(n log n)` expected
    /// work — same pair tests, so the answer is identical.
    pub fn is_simple(&self) -> bool {
        if self.num_points() > crate::prepared::SIMPLE_SCAN_CUTOFF {
            return crate::prepared::ring_is_simple_indexed(self);
        }
        let edges: Vec<Segment> = self.segments().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    if edges[i].collinear_overlaps(&edges[j]) {
                        return false;
                    }
                } else if edges[i].intersects(&edges[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Consume the ring, yielding its vertices.
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }
}

/// A polygon: one outer ring and zero or more holes.
///
/// Hole rings must lie inside the outer ring and must not overlap each
/// other — enforced by [`crate::validate`], not by construction, to keep
/// bulk loading cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    exterior: Ring,
    holes: Vec<Ring>,
}

impl Polygon {
    /// Assemble a polygon, normalizing ring orientations (exterior
    /// counterclockwise, holes clockwise, as Oracle stores them).
    pub fn new(mut exterior: Ring, mut holes: Vec<Ring>) -> Self {
        // Normalize orientations the way Oracle's model does: outer ring
        // counterclockwise, holes clockwise.
        exterior.ensure_ccw();
        for h in &mut holes {
            h.ensure_cw();
        }
        Polygon { exterior, holes }
    }

    /// A polygon with no holes.
    pub fn from_exterior(exterior: Ring) -> Self {
        Polygon::new(exterior, Vec::new())
    }

    /// Axis-aligned rectangle as a polygon.
    pub fn from_rect(r: &Rect) -> Self {
        Polygon::from_exterior(Ring::new(r.corners().to_vec()).expect("rect has 4 corners"))
    }

    /// The outer ring.
    #[inline]
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The interior (hole) rings.
    #[inline]
    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// Net area: outer area minus hole areas.
    pub fn area(&self) -> f64 {
        self.exterior.area() - self.holes.iter().map(|h| h.area()).sum::<f64>()
    }

    /// Bounding rectangle (the exterior ring's, cached).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.exterior.bbox()
    }

    /// All boundary edges: exterior ring plus hole rings.
    pub fn boundary_segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.exterior.segments().chain(self.holes.iter().flat_map(|h| h.segments()))
    }

    /// Total number of vertices across all rings.
    pub fn num_points(&self) -> usize {
        self.exterior.num_points() + self.holes.iter().map(|h| h.num_points()).sum::<usize>()
    }

    /// Point location accounting for holes.
    pub fn locate_point(&self, p: &Point) -> PointLocation {
        match self.exterior.locate_point(p) {
            PointLocation::Outside => PointLocation::Outside,
            PointLocation::OnBoundary => PointLocation::OnBoundary,
            PointLocation::Inside => {
                for h in &self.holes {
                    match h.locate_point(p) {
                        PointLocation::Inside => return PointLocation::Outside,
                        PointLocation::OnBoundary => return PointLocation::OnBoundary,
                        PointLocation::Outside => {}
                    }
                }
                PointLocation::Inside
            }
        }
    }

    /// True when `p` is inside the polygon or on any of its rings.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.locate_point(p) != PointLocation::Outside
    }

    /// Minimum distance from `p` to the polygon (zero when inside).
    pub fn dist_point(&self, p: &Point) -> f64 {
        match self.locate_point(p) {
            PointLocation::Inside | PointLocation::OnBoundary => 0.0,
            PointLocation::Outside => {
                self.boundary_segments().map(|s| s.dist_point(p)).fold(f64::INFINITY, f64::min)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn ring(pts: &[(f64, f64)]) -> Ring {
        Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn unit_square() -> Ring {
        ring(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    }

    #[test]
    fn closing_vertex_dropped() {
        let r = ring(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]);
        assert_eq!(r.num_points(), 3);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Ring::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).is_err());
    }

    #[test]
    fn signed_area_orientation() {
        let ccw = unit_square();
        assert_eq!(ccw.signed_area(), 1.0);
        let mut cw = ring(&[(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]);
        assert_eq!(cw.signed_area(), -1.0);
        cw.ensure_ccw();
        assert_eq!(cw.signed_area(), 1.0);
    }

    #[test]
    fn ring_point_location() {
        let r = unit_square();
        assert_eq!(r.locate_point(&Point::new(0.5, 0.5)), PointLocation::Inside);
        assert_eq!(r.locate_point(&Point::new(0.0, 0.5)), PointLocation::OnBoundary);
        assert_eq!(r.locate_point(&Point::new(1.0, 1.0)), PointLocation::OnBoundary);
        assert_eq!(r.locate_point(&Point::new(1.5, 0.5)), PointLocation::Outside);
        assert_eq!(r.locate_point(&Point::new(0.5, -0.1)), PointLocation::Outside);
    }

    #[test]
    fn ray_through_vertex_counted_once() {
        // Diamond whose vertices are axis-aligned with interior points.
        let r = ring(&[(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (1.0, 2.0)]);
        assert_eq!(r.locate_point(&Point::new(1.0, 1.0)), PointLocation::Inside);
        assert_eq!(r.locate_point(&Point::new(-0.5, 1.0)), PointLocation::Outside);
        assert_eq!(r.locate_point(&Point::new(2.5, 1.0)), PointLocation::Outside);
    }

    #[test]
    fn polygon_with_hole() {
        let outer = ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]);
        let hole = ring(&[(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]);
        let p = Polygon::new(outer, vec![hole]);
        assert_eq!(p.area(), 100.0 - 4.0);
        assert_eq!(p.locate_point(&Point::new(5.0, 5.0)), PointLocation::Outside);
        assert_eq!(p.locate_point(&Point::new(4.0, 5.0)), PointLocation::OnBoundary);
        assert_eq!(p.locate_point(&Point::new(2.0, 2.0)), PointLocation::Inside);
        assert_eq!(p.dist_point(&Point::new(5.0, 5.0)), 1.0);
        assert_eq!(p.dist_point(&Point::new(2.0, 2.0)), 0.0);
        assert_eq!(p.dist_point(&Point::new(13.0, 14.0)), 5.0);
    }

    #[test]
    fn orientations_normalized() {
        let outer = ring(&[(0.0, 10.0), (10.0, 10.0), (10.0, 0.0), (0.0, 0.0)]); // cw input
        let hole = ring(&[(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]); // ccw input
        let p = Polygon::new(outer, vec![hole]);
        assert!(p.exterior().signed_area() > 0.0);
        assert!(p.holes()[0].signed_area() < 0.0);
    }

    #[test]
    fn simplicity() {
        assert!(unit_square().is_simple());
        // Bowtie: self-intersecting.
        let bowtie = ring(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        assert!(!bowtie.is_simple());
    }

    #[test]
    fn from_rect_round_trip() {
        let r = Rect::new(1.0, 2.0, 3.0, 5.0);
        let p = Polygon::from_rect(&r);
        assert_eq!(p.bbox(), r);
        assert_eq!(p.area(), 6.0);
    }
}
