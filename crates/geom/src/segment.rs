//! Line segments and the segment-level primitives the predicates build on.

use crate::point::Point;
use crate::rect::Rect;
use crate::EPS;

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The triple turns clockwise.
    Clockwise,
    /// The triple turns counterclockwise.
    CounterClockwise,
    /// The three points are collinear (within tolerance).
    Collinear,
}

/// Signed twice-area of triangle `(a, b, c)`; positive when the triple
/// turns counterclockwise.
#[inline]
pub fn cross3(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Classify the turn made at `b` when walking `a -> b -> c`.
#[inline]
pub fn orientation(a: &Point, b: &Point, c: &Point) -> Orientation {
    let v = cross3(a, b, c);
    // Scale the tolerance by the magnitude of the inputs so that large
    // coordinates (e.g. projected meters) do not misclassify near-collinear
    // triples as proper turns.
    let scale = (b.x - a.x).abs() + (b.y - a.y).abs() + (c.x - a.x).abs() + (c.y - a.y).abs();
    let tol = EPS * scale.max(1.0);
    if v > tol {
        Orientation::CounterClockwise
    } else if v < -tol {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// A closed line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// The segment from `a` to `b`.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(&self.b)
    }

    /// Bounding rectangle of the two endpoints.
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect::from_corners(self.a, self.b)
    }

    /// True when `p` lies on this segment (within tolerance): inside the
    /// segment's `EPS`-padded box and collinear with it. The box test
    /// runs first because it rejects most points for four compares.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.a.x.min(self.b.x) - EPS
            && p.x <= self.a.x.max(self.b.x) + EPS
            && p.y >= self.a.y.min(self.b.y) - EPS
            && p.y <= self.a.y.max(self.b.y) + EPS
            && orientation(&self.a, &self.b, p) == Orientation::Collinear
    }

    /// True when the closed segments share at least one point.
    ///
    /// Standard orientation-based test with collinear overlap handling.
    pub fn intersects(&self, other: &Segment) -> bool {
        let (p1, p2, p3, p4) = (&self.a, &self.b, &other.a, &other.b);
        let o1 = orientation(p1, p2, p3);
        let o2 = orientation(p1, p2, p4);
        let o3 = orientation(p3, p4, p1);
        let o4 = orientation(p3, p4, p2);

        if o1 != o2
            && o3 != o4
            && o1 != Orientation::Collinear
            && o2 != Orientation::Collinear
            && o3 != Orientation::Collinear
            && o4 != Orientation::Collinear
        {
            return true;
        }
        // Collinear / endpoint cases.
        (o1 == Orientation::Collinear && self.contains_point(p3))
            || (o2 == Orientation::Collinear && self.contains_point(p4))
            || (o3 == Orientation::Collinear && other.contains_point(p1))
            || (o4 == Orientation::Collinear && other.contains_point(p2))
            || (o1 != o2 && o3 != o4)
    }

    /// True when the segments cross at a point interior to both
    /// (a "proper" crossing: not merely touching at an endpoint and not
    /// collinear overlap).
    pub fn crosses_properly(&self, other: &Segment) -> bool {
        let o1 = orientation(&self.a, &self.b, &other.a);
        let o2 = orientation(&self.a, &self.b, &other.b);
        let o3 = orientation(&other.a, &other.b, &self.a);
        let o4 = orientation(&other.a, &other.b, &self.b);
        o1 != Orientation::Collinear
            && o2 != Orientation::Collinear
            && o3 != Orientation::Collinear
            && o4 != Orientation::Collinear
            && o1 != o2
            && o3 != o4
    }

    /// True when the segments are collinear and overlap in more than a
    /// single point.
    pub fn collinear_overlaps(&self, other: &Segment) -> bool {
        if orientation(&self.a, &self.b, &other.a) != Orientation::Collinear
            || orientation(&self.a, &self.b, &other.b) != Orientation::Collinear
        {
            return false;
        }
        // Project onto the dominant axis and test interval overlap length.
        let dx = (self.b.x - self.a.x).abs();
        let dy = (self.b.y - self.a.y).abs();
        let (s0, s1, t0, t1) = if dx >= dy {
            (
                self.a.x.min(self.b.x),
                self.a.x.max(self.b.x),
                other.a.x.min(other.b.x),
                other.a.x.max(other.b.x),
            )
        } else {
            (
                self.a.y.min(self.b.y),
                self.a.y.max(self.b.y),
                other.a.y.min(other.b.y),
                other.a.y.max(other.b.y),
            )
        };
        (s1.min(t1) - s0.max(t0)) > EPS
    }

    /// Closest point on this segment to `p`.
    pub fn closest_point(&self, p: &Point) -> Point {
        let d = self.b - self.a;
        let len2 = d.dot(&d);
        if len2 <= EPS * EPS {
            return self.a;
        }
        let t = ((*p - self.a).dot(&d) / len2).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Distance from `p` to this segment.
    #[inline]
    pub fn dist_point(&self, p: &Point) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// Minimum distance between two segments; zero when they intersect.
    pub fn dist_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        self.dist_point(&other.a)
            .min(self.dist_point(&other.b))
            .min(other.dist_point(&self.a))
            .min(other.dist_point(&self.b))
    }

    /// Intersection point of two properly crossing segments (or of their
    /// supporting lines when they merely touch). Returns `None` for
    /// parallel non-collinear segments.
    pub fn intersection_point(&self, other: &Segment) -> Option<Point> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(&s);
        if denom.abs() <= EPS {
            return None;
        }
        let t = (other.a - self.a).cross(&s) / denom;
        Some(self.a + r * t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn orientation_classifies_turns() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(orientation(&a, &b, &Point::new(1.0, 1.0)), Orientation::CounterClockwise);
        assert_eq!(orientation(&a, &b, &Point::new(1.0, -1.0)), Orientation::Clockwise);
        assert_eq!(orientation(&a, &b, &Point::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn proper_crossing() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        assert!(s1.intersects(&s2));
        assert!(s1.crosses_properly(&s2));
        assert!(s1.intersection_point(&s2).unwrap().almost_eq(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn endpoint_touch_is_intersection_but_not_proper() {
        let s1 = seg(0.0, 0.0, 1.0, 1.0);
        let s2 = seg(1.0, 1.0, 2.0, 0.0);
        assert!(s1.intersects(&s2));
        assert!(!s1.crosses_properly(&s2));
    }

    #[test]
    fn disjoint_segments() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(0.0, 1.0, 1.0, 1.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.dist_segment(&s2), 1.0);
    }

    #[test]
    fn collinear_overlap() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 0.0, 3.0, 0.0);
        assert!(s1.intersects(&s2));
        assert!(s1.collinear_overlaps(&s2));
        // touching only at a point: not an overlap
        let s3 = seg(2.0, 0.0, 3.0, 0.0);
        assert!(s1.intersects(&s3));
        assert!(!s1.collinear_overlaps(&s3));
        // vertical segments use the y-axis projection
        let v1 = seg(0.0, 0.0, 0.0, 2.0);
        let v2 = seg(0.0, 1.0, 0.0, 3.0);
        assert!(v1.collinear_overlaps(&v2));
    }

    #[test]
    fn collinear_disjoint_do_not_intersect() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(2.0, 0.0, 3.0, 0.0);
        assert!(!s1.intersects(&s2));
        assert!(!s1.collinear_overlaps(&s2));
    }

    #[test]
    fn point_on_segment() {
        let s = seg(0.0, 0.0, 2.0, 2.0);
        assert!(s.contains_point(&Point::new(1.0, 1.0)));
        assert!(s.contains_point(&Point::new(0.0, 0.0)));
        assert!(!s.contains_point(&Point::new(3.0, 3.0)));
        assert!(!s.contains_point(&Point::new(1.0, 0.0)));
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        assert_eq!(s.closest_point(&Point::new(-1.0, 0.0)), Point::new(0.0, 0.0));
        assert_eq!(s.closest_point(&Point::new(5.0, 3.0)), Point::new(1.0, 0.0));
        assert_eq!(s.closest_point(&Point::new(0.5, 2.0)), Point::new(0.5, 0.0));
        assert_eq!(s.dist_point(&Point::new(0.5, 2.0)), 2.0);
    }

    #[test]
    fn degenerate_segment_distance() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.dist_point(&Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn segment_distance_parallel() {
        let s1 = seg(0.0, 0.0, 10.0, 0.0);
        let s2 = seg(2.0, 3.0, 8.0, 3.0);
        assert_eq!(s1.dist_segment(&s2), 3.0);
    }
}
