//! Axis-aligned rectangles (minimum bounding rectangles).
//!
//! `Rect` is the workhorse of the R-tree and the join primary filter:
//! the paper's index-based join compares "index-based MBRs ... for
//! intersection with each other", optionally expanded by a distance for
//! within-distance joins.

use crate::point::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Clamped separation between the closed intervals `[lo_a, hi_a]` and
/// `[lo_b, hi_b]`: zero when they overlap, the gap between them
/// otherwise.
///
/// This single `max(·, 0)` form is the per-axis building block of
/// [`Rect::mindist`] and is shared verbatim by the batch filter kernels
/// in `sdo-rtree::kernel`, so rect-distance results are bit-identical
/// across every code path.
#[inline]
pub fn axis_mindist(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> f64 {
    (lo_b - hi_a).max(lo_a - hi_b).max(0.0)
}

/// An axis-aligned rectangle: `[min_x, max_x] x [min_y, max_y]`.
///
/// Degenerate rectangles (zero width/height) are valid and represent
/// points or axis-parallel segments. An *empty* rectangle, used as the
/// identity for [`Rect::union`], has `min > max` in both axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Smallest x.
    pub min_x: f64,
    /// Smallest y.
    pub min_y: f64,
    /// Largest x.
    pub max_x: f64,
    /// Largest y.
    pub max_y: f64,
}

impl Rect {
    /// A rectangle from explicit bounds (callers keep `min <= max`).
    #[inline]
    pub const fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect { min_x, min_y, max_x, max_y }
    }

    /// The empty rectangle: the identity element for [`Rect::union`].
    pub const EMPTY: Rect = Rect {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Rectangle spanning two corner points in any order.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect { min_x: a.x.min(b.x), min_y: a.y.min(b.y), max_x: a.x.max(b.x), max_y: a.y.max(b.y) }
    }

    /// Smallest rectangle containing every point in `points`.
    pub fn from_points<'a>(points: impl IntoIterator<Item = &'a Point>) -> Self {
        let mut r = Rect::EMPTY;
        for p in points {
            r.expand_point(p);
        }
        r
    }

    /// [`Rect::from_points`] over finite points, failing on the first
    /// NaN or infinite coordinate: the one pass in which the vertex-list
    /// constructors validate their points and compute the MBR they cache.
    pub(crate) fn of_finite(points: &[Point]) -> Result<Self, crate::GeomError> {
        let mut r = Rect::EMPTY;
        for p in points {
            if !p.is_finite() {
                return Err(crate::GeomError::NonFiniteCoordinate);
            }
            r.expand_point(p);
        }
        Ok(r)
    }

    /// True when this is the empty rectangle (contains nothing).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Extent along x (zero for empty rectangles).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Extent along y (zero for empty rectangles).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Covered area (zero for empty rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }

    /// Grow in place to include `p`.
    #[inline]
    pub fn expand_point(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Intersection, or `None` when the rectangles are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let r = Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        };
        if r.is_empty() {
            None
        } else {
            Some(r)
        }
    }

    /// True when the rectangles share at least one point (closed sense:
    /// touching edges intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// True when `other` lies entirely inside `self` (closed sense).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True when `p` lies strictly inside (not on the boundary).
    #[inline]
    pub fn contains_point_strict(&self, p: &Point) -> bool {
        p.x > self.min_x && p.x < self.max_x && p.y > self.min_y && p.y < self.max_y
    }

    /// Minimum distance between any point of `self` and any point of
    /// `other`; zero when they intersect.
    ///
    /// This is the `MINDIST` bound that makes MBR filtering correct for
    /// within-distance joins: `mindist(a, b) <= d` is implied by the
    /// exact geometries being within distance `d`.
    #[inline]
    pub fn mindist(&self, other: &Rect) -> f64 {
        let dx = axis_mindist(self.min_x, self.max_x, other.min_x, other.max_x);
        let dy = axis_mindist(self.min_y, self.max_y, other.min_y, other.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum distance from `p` to this rectangle; zero when inside.
    #[inline]
    pub fn mindist_point(&self, p: &Point) -> f64 {
        let dx = axis_mindist(self.min_x, self.max_x, p.x, p.x);
        let dy = axis_mindist(self.min_y, self.max_y, p.y, p.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// The rectangle grown by `d` on every side (Minkowski sum with a
    /// square of radius `d`); used to turn a within-distance predicate
    /// into an intersection test on expanded MBRs.
    #[inline]
    pub fn expanded(&self, d: f64) -> Rect {
        Rect {
            min_x: self.min_x - d,
            min_y: self.min_y - d,
            max_x: self.max_x + d,
            max_y: self.max_y + d,
        }
    }

    /// Increase in area if this rectangle were enlarged to cover `other`.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// The four corner points, counterclockwise from `(min_x, min_y)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] x [{}, {}]", self.min_x, self.max_x, self.min_y, self.max_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn empty_is_union_identity() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.area(), 0.0);
    }

    #[test]
    fn union_and_intersection() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.union(&b), r(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.mindist(&b), 0.0);
    }

    #[test]
    fn mindist_matches_geometry() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        // closest points are (1,1) and (4,5): dist = 5
        assert_eq!(a.mindist(&b), 5.0);
        assert_eq!(b.mindist(&a), 5.0);
        // aligned in y: pure x distance
        let c = r(3.0, 0.0, 4.0, 1.0);
        assert_eq!(a.mindist(&c), 2.0);
    }

    #[test]
    fn mindist_zero_iff_intersects() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.mindist(&b), 0.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
        assert!(a.contains_rect(&a));
        assert!(a.contains_point(&Point::new(0.0, 5.0)));
        assert!(!a.contains_point_strict(&Point::new(0.0, 5.0)));
        assert!(a.contains_point_strict(&Point::new(5.0, 5.0)));
    }

    #[test]
    fn expansion_for_distance_predicates() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let e = a.expanded(0.5);
        assert_eq!(e, r(-0.5, -0.5, 1.5, 1.5));
        // disjoint at distance 2, intersect once expanded by >= 1
        let b = r(3.0, 0.0, 4.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.expanded(2.0).intersects(&b));
    }

    #[test]
    fn enlargement_is_union_area_delta() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 0.0, 3.0, 1.0);
        assert_eq!(a.enlargement(&b), 3.0 - 1.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 0.0), Point::new(4.0, 2.0)];
        let bb = Rect::from_points(pts.iter());
        assert_eq!(bb, r(-2.0, 0.0, 4.0, 5.0));
        for p in &pts {
            assert!(bb.contains_point(p));
        }
    }

    #[test]
    fn axis_mindist_clamps_overlap_to_zero() {
        assert_eq!(axis_mindist(0.0, 1.0, 2.0, 3.0), 1.0); // gap to the right
        assert_eq!(axis_mindist(2.0, 3.0, 0.0, 1.0), 1.0); // gap to the left
        assert_eq!(axis_mindist(0.0, 2.0, 1.0, 3.0), 0.0); // overlap
        assert_eq!(axis_mindist(0.0, 1.0, 1.0, 2.0), 0.0); // touching
        assert_eq!(axis_mindist(1.0, 1.0, 1.0, 1.0), 0.0); // coincident points
    }

    #[test]
    fn mindist_on_degenerate_rects() {
        // Point-rects and line-rects are valid degenerate rectangles;
        // mindist must agree with plain geometry on them.
        let p = r(1.0, 1.0, 1.0, 1.0);
        let q = r(4.0, 5.0, 4.0, 5.0);
        assert_eq!(p.mindist(&q), 5.0);
        let line = r(0.0, 0.0, 10.0, 0.0);
        assert_eq!(p.mindist(&line), 1.0);
        assert_eq!(line.mindist(&line), 0.0);
        assert_eq!(p.mindist_point(&Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn corners_ccw() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 1.0));
    }
}
