//! Polylines.

use crate::error::GeomError;
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use serde::{Deserialize, Serialize};

/// An open polyline with at least two vertices. Its MBR is computed
/// once, at construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineString {
    points: Vec<Point>,
    bbox: Rect,
}

impl LineString {
    /// Build a line string; fails with fewer than two vertices or any
    /// non-finite coordinate.
    pub fn new(points: Vec<Point>) -> Result<Self, GeomError> {
        if points.len() < 2 {
            return Err(GeomError::TooFewPoints { expected: 2, got: points.len() });
        }
        let bbox = Rect::of_finite(&points)?;
        Ok(LineString { points, bbox })
    }

    /// The vertex sequence.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of vertices.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Iterate the consecutive segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total length along the polyline.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Bounding rectangle over every vertex (cached).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// True when first and last vertices coincide.
    pub fn is_closed(&self) -> bool {
        self.points.first().zip(self.points.last()).is_some_and(|(a, b)| a.almost_eq(b))
    }

    /// True when `p` lies on any segment of the polyline.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.segments().any(|s| s.contains_point(p))
    }

    /// Minimum distance from `p` to the polyline.
    pub fn dist_point(&self, p: &Point) -> f64 {
        self.segments().map(|s| s.dist_point(p)).fold(f64::INFINITY, f64::min)
    }

    /// Consume the polyline, yielding its vertices.
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(pts: &[(f64, f64)]) -> LineString {
        LineString::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_too_few_points() {
        assert!(matches!(
            LineString::new(vec![Point::new(0.0, 0.0)]),
            Err(GeomError::TooFewPoints { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn rejects_nan() {
        assert_eq!(
            LineString::new(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0)]),
            Err(GeomError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn length_and_bbox() {
        let l = ls(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.length(), 7.0);
        assert_eq!(l.bbox(), Rect::new(0.0, 0.0, 3.0, 4.0));
        assert_eq!(l.segments().count(), 2);
    }

    #[test]
    fn closed_detection() {
        let open = ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        assert!(!open.is_closed());
        let closed = ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]);
        assert!(closed.is_closed());
    }

    #[test]
    fn point_containment_and_distance() {
        let l = ls(&[(0.0, 0.0), (2.0, 0.0)]);
        assert!(l.contains_point(&Point::new(1.0, 0.0)));
        assert!(!l.contains_point(&Point::new(1.0, 0.5)));
        assert_eq!(l.dist_point(&Point::new(1.0, 2.0)), 2.0);
    }
}
