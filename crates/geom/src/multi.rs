//! Multi-element geometry aggregates.

use crate::error::GeomError;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// A collection of points. Its MBR is computed once, at construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPoint {
    points: Vec<Point>,
    bbox: Rect,
}

impl MultiPoint {
    /// Build from at least one finite point.
    pub fn new(points: Vec<Point>) -> Result<Self, GeomError> {
        if points.is_empty() {
            return Err(GeomError::TooFewPoints { expected: 1, got: 0 });
        }
        let bbox = Rect::of_finite(&points)?;
        Ok(MultiPoint { points, bbox })
    }

    /// The member points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Bounding rectangle over every member (cached).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }
}

/// A collection of line strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiLineString {
    lines: Vec<LineString>,
}

impl MultiLineString {
    /// Build from at least one polyline.
    pub fn new(lines: Vec<LineString>) -> Result<Self, GeomError> {
        if lines.is_empty() {
            return Err(GeomError::TooFewPoints { expected: 1, got: 0 });
        }
        Ok(MultiLineString { lines })
    }

    /// The member polylines.
    #[inline]
    pub fn lines(&self) -> &[LineString] {
        &self.lines
    }

    /// Total length across members.
    pub fn length(&self) -> f64 {
        self.lines.iter().map(|l| l.length()).sum()
    }

    /// Bounding rectangle: the union of the members' cached ones.
    pub fn bbox(&self) -> Rect {
        self.lines.iter().fold(Rect::EMPTY, |acc, l| acc.union(&l.bbox()))
    }
}

/// A collection of polygons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPolygon {
    polygons: Vec<Polygon>,
}

impl MultiPolygon {
    /// Build from at least one polygon.
    pub fn new(polygons: Vec<Polygon>) -> Result<Self, GeomError> {
        if polygons.is_empty() {
            return Err(GeomError::TooFewPoints { expected: 1, got: 0 });
        }
        Ok(MultiPolygon { polygons })
    }

    /// The member polygons.
    #[inline]
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// Total area across members.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(|p| p.area()).sum()
    }

    /// Bounding rectangle: the union of the members' cached ones.
    pub fn bbox(&self) -> Rect {
        self.polygons.iter().fold(Rect::EMPTY, |acc, p| acc.union(&p.bbox()))
    }

    /// True when any member covers `p`.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.polygons.iter().any(|poly| poly.contains_point(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Ring;

    fn poly(pts: &[(f64, f64)]) -> Polygon {
        Polygon::from_exterior(
            Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
        )
    }

    #[test]
    fn multipoint_bbox() {
        let mp = MultiPoint::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 3.0)]).unwrap();
        assert_eq!(mp.bbox(), Rect::new(0.0, 0.0, 2.0, 3.0));
        assert!(MultiPoint::new(vec![]).is_err());
    }

    #[test]
    fn multiline_length() {
        let l1 = LineString::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        let l2 = LineString::new(vec![Point::new(0.0, 1.0), Point::new(0.0, 3.0)]).unwrap();
        let ml = MultiLineString::new(vec![l1, l2]).unwrap();
        assert_eq!(ml.length(), 3.0);
        assert_eq!(ml.bbox(), Rect::new(0.0, 0.0, 1.0, 3.0));
    }

    #[test]
    fn multipolygon_area_and_containment() {
        let a = poly(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let b = poly(&[(5.0, 5.0), (7.0, 5.0), (7.0, 7.0), (5.0, 7.0)]);
        let mp = MultiPolygon::new(vec![a, b]).unwrap();
        assert_eq!(mp.area(), 1.0 + 4.0);
        assert!(mp.contains_point(&Point::new(6.0, 6.0)));
        assert!(mp.contains_point(&Point::new(0.5, 0.5)));
        assert!(!mp.contains_point(&Point::new(3.0, 3.0)));
    }
}
