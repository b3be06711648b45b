//! The `SDO_GEOMETRY` object model.
//!
//! Oracle Spatial stores every geometry as an object with three parts:
//!
//! * `SDO_GTYPE` — a `dltt` code: `d` is the dimensionality (always 2
//!   here) and `tt` the type (01 point, 02 line, 03 polygon, 05
//!   multipoint, 06 multiline, 07 multipolygon),
//! * `SDO_ELEM_INFO` — triplets `(starting_offset, etype,
//!   interpretation)` describing each element; offsets are **1-based**
//!   into the ordinate array, exactly as in Oracle,
//! * `SDO_ORDINATES` — the flat `x1, y1, x2, y2, ...` coordinate array.
//!
//! Supported etypes: `1` (point cluster), `2` (line string of straight
//! segments), `1003`/`2003` (exterior/interior polygon ring) with
//! interpretation `1` (vertex-connected) or `3` (axis-aligned rectangle
//! given by two corner ordinate pairs).

use crate::error::GeomError;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::multi::{MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// `SDO_GTYPE` `tt` digits: point.
pub const TT_POINT: u32 = 1;
/// `SDO_GTYPE` `tt` digits: line string.
pub const TT_LINE: u32 = 2;
/// `SDO_GTYPE` `tt` digits: polygon.
pub const TT_POLYGON: u32 = 3;
/// `SDO_GTYPE` `tt` digits: multipoint.
pub const TT_MULTIPOINT: u32 = 5;
/// `SDO_GTYPE` `tt` digits: multiline.
pub const TT_MULTILINE: u32 = 6;
/// `SDO_GTYPE` `tt` digits: multipolygon.
pub const TT_MULTIPOLYGON: u32 = 7;

/// `SDO_ELEM_INFO` etype: point cluster.
pub const ETYPE_POINT: u32 = 1;
/// `SDO_ELEM_INFO` etype: line string.
pub const ETYPE_LINE: u32 = 2;
/// `SDO_ELEM_INFO` etype: polygon exterior ring.
pub const ETYPE_EXTERIOR_RING: u32 = 1003;
/// `SDO_ELEM_INFO` etype: polygon interior (hole) ring.
pub const ETYPE_INTERIOR_RING: u32 = 2003;

/// Interpretation: vertex-connected straight segments.
pub const INTERP_STRAIGHT: u32 = 1;
/// Interpretation: axis-aligned rectangle given by two corners.
pub const INTERP_RECTANGLE: u32 = 3;

/// An Oracle-style encoded geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdoGeometry {
    /// `dltt` type code, e.g. `2003` for a 2-D polygon.
    pub gtype: u32,
    /// `(offset, etype, interpretation)` triplets, flattened.
    pub elem_info: Vec<u32>,
    /// Flat ordinate array `x1, y1, x2, y2, ...`.
    pub ordinates: Vec<f64>,
}

impl SdoGeometry {
    /// Dimensionality encoded in the gtype (`d` digit).
    #[inline]
    pub fn dims(&self) -> u32 {
        self.gtype / 1000
    }

    /// Geometry-type code (`tt` digits).
    #[inline]
    pub fn type_code(&self) -> u32 {
        self.gtype % 100
    }

    /// Number of `(offset, etype, interpretation)` triplets.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elem_info.len() / 3
    }

    /// Encode a typed geometry.
    pub fn from_geometry(g: &Geometry) -> SdoGeometry {
        let mut enc = Encoder::default();
        match g {
            Geometry::Point(p) => {
                enc.element(ETYPE_POINT, 1);
                enc.push_point(p);
                enc.finish(TT_POINT)
            }
            Geometry::MultiPoint(m) => {
                // Oracle encodes a point cluster as one element whose
                // interpretation is the point count.
                enc.element(ETYPE_POINT, m.points().len() as u32);
                for p in m.points() {
                    enc.push_point(p);
                }
                enc.finish(TT_MULTIPOINT)
            }
            Geometry::LineString(l) => {
                enc.element(ETYPE_LINE, INTERP_STRAIGHT);
                enc.push_points(l.points());
                enc.finish(TT_LINE)
            }
            Geometry::MultiLineString(m) => {
                for l in m.lines() {
                    enc.element(ETYPE_LINE, INTERP_STRAIGHT);
                    enc.push_points(l.points());
                }
                enc.finish(TT_MULTILINE)
            }
            Geometry::Polygon(p) => {
                enc.push_polygon(p);
                enc.finish(TT_POLYGON)
            }
            Geometry::MultiPolygon(m) => {
                for p in m.polygons() {
                    enc.push_polygon(p);
                }
                enc.finish(TT_MULTIPOLYGON)
            }
        }
    }

    /// Convenience: an axis-aligned rectangle polygon using Oracle's
    /// optimized two-corner encoding (etype 1003, interpretation 3).
    pub fn rectangle(r: &Rect) -> SdoGeometry {
        SdoGeometry {
            gtype: 2000 + TT_POLYGON,
            elem_info: vec![1, ETYPE_EXTERIOR_RING, INTERP_RECTANGLE],
            ordinates: vec![r.min_x, r.min_y, r.max_x, r.max_y],
        }
    }

    /// Decode into a typed geometry, validating the encoding.
    pub fn to_geometry(&self) -> Result<Geometry, GeomError> {
        if self.dims() != 2 {
            return Err(GeomError::InvalidSdo(format!(
                "only 2-D geometries supported, gtype={}",
                self.gtype
            )));
        }
        if !self.elem_info.len().is_multiple_of(3) || self.elem_info.is_empty() {
            return Err(GeomError::InvalidSdo(
                "elem_info length must be a positive multiple of 3".into(),
            ));
        }
        if !self.ordinates.len().is_multiple_of(2) {
            return Err(GeomError::InvalidSdo("odd ordinate count".into()));
        }
        if self.ordinates.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let elems = self.decode_elements()?;
        self.assemble(elems)
    }

    /// Split the ordinate array into per-element point runs.
    fn decode_elements(&self) -> Result<Vec<Element>, GeomError> {
        let n = self.num_elements();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let offset = self.elem_info[3 * i] as usize;
            let etype = self.elem_info[3 * i + 1];
            let interp = self.elem_info[3 * i + 2];
            if offset < 1 || offset > self.ordinates.len() || offset.is_multiple_of(2) {
                return Err(GeomError::InvalidSdo(format!(
                    "element {i}: bad starting offset {offset}"
                )));
            }
            let end = if i + 1 < n {
                let next = self.elem_info[3 * (i + 1)] as usize;
                if next <= offset {
                    return Err(GeomError::InvalidSdo(format!(
                        "element {}: offsets not increasing ({offset} -> {next})",
                        i + 1
                    )));
                }
                if next > self.ordinates.len() {
                    return Err(GeomError::InvalidSdo(format!(
                        "element {}: bad starting offset {next}",
                        i + 1
                    )));
                }
                next - 1
            } else {
                self.ordinates.len()
            };
            let ords = &self.ordinates[offset - 1..end];
            let points: Vec<Point> = ords.chunks_exact(2).map(|c| Point::new(c[0], c[1])).collect();
            out.push(Element { etype, interp, points });
        }
        Ok(out)
    }

    fn assemble(&self, elems: Vec<Element>) -> Result<Geometry, GeomError> {
        match self.type_code() {
            TT_POINT => {
                let e = single(&elems, ETYPE_POINT)?;
                let p = e.points.first().ok_or_else(|| {
                    GeomError::InvalidSdo("point element with no ordinates".into())
                })?;
                Ok(Geometry::Point(*p))
            }
            TT_MULTIPOINT => {
                let mut pts = Vec::new();
                for e in &elems {
                    if e.etype != ETYPE_POINT {
                        return Err(GeomError::InvalidSdo(
                            "multipoint may only contain point elements".into(),
                        ));
                    }
                    pts.extend_from_slice(&e.points);
                }
                Ok(Geometry::MultiPoint(MultiPoint::new(pts)?))
            }
            TT_LINE => {
                let e = single(&elems, ETYPE_LINE)?;
                Ok(Geometry::LineString(LineString::new(e.points.clone())?))
            }
            TT_MULTILINE => {
                let mut lines = Vec::new();
                for e in &elems {
                    if e.etype != ETYPE_LINE {
                        return Err(GeomError::InvalidSdo(
                            "multiline may only contain line elements".into(),
                        ));
                    }
                    lines.push(LineString::new(e.points.clone())?);
                }
                Ok(Geometry::MultiLineString(MultiLineString::new(lines)?))
            }
            TT_POLYGON | TT_MULTIPOLYGON => {
                let polys = assemble_polygons(&elems)?;
                if self.type_code() == TT_POLYGON {
                    if polys.len() != 1 {
                        return Err(GeomError::InvalidSdo(format!(
                            "polygon gtype with {} exterior rings",
                            polys.len()
                        )));
                    }
                    Ok(Geometry::Polygon(polys.into_iter().next().unwrap()))
                } else {
                    Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)?))
                }
            }
            tt => Err(GeomError::InvalidSdo(format!("unsupported gtype tt={tt}"))),
        }
    }
}

/// Incremental builder for the `elem_info` / `ordinates` arrays.
#[derive(Default)]
struct Encoder {
    elem_info: Vec<u32>,
    ordinates: Vec<f64>,
}

impl Encoder {
    /// Begin a new element at the current (1-based) ordinate offset.
    fn element(&mut self, etype: u32, interp: u32) {
        self.elem_info.extend_from_slice(&[self.ordinates.len() as u32 + 1, etype, interp]);
    }

    fn push_point(&mut self, p: &Point) {
        self.ordinates.push(p.x);
        self.ordinates.push(p.y);
    }

    fn push_points(&mut self, pts: &[Point]) {
        for p in pts {
            self.push_point(p);
        }
    }

    /// Encode a polygon's rings; the ring closure vertex is implicit in
    /// our model, so rings are written open (Oracle writes them closed,
    /// and both forms decode through [`Ring::new`]).
    fn push_polygon(&mut self, p: &Polygon) {
        self.element(ETYPE_EXTERIOR_RING, INTERP_STRAIGHT);
        self.push_ring(p.exterior());
        for h in p.holes() {
            self.element(ETYPE_INTERIOR_RING, INTERP_STRAIGHT);
            self.push_ring(h);
        }
    }

    /// A ring whose last vertex lies within tolerance of its first is
    /// written closed: [`Ring::new`] drops one such closing vertex, and
    /// written open it would drop a real one.
    fn push_ring(&mut self, r: &Ring) {
        let pts = r.points();
        self.push_points(pts);
        if pts.len() >= 2 && pts[pts.len() - 1].almost_eq(&pts[0]) {
            self.push_point(&pts[0]);
        }
    }

    fn finish(self, tt: u32) -> SdoGeometry {
        SdoGeometry { gtype: 2000 + tt, elem_info: self.elem_info, ordinates: self.ordinates }
    }
}

struct Element {
    etype: u32,
    interp: u32,
    points: Vec<Point>,
}

impl Element {
    /// Ring vertices, expanding the two-corner rectangle interpretation.
    fn ring_points(&self) -> Result<Vec<Point>, GeomError> {
        if self.interp == INTERP_RECTANGLE {
            if self.points.len() != 2 {
                return Err(GeomError::InvalidSdo(
                    "rectangle interpretation requires exactly 2 corner points".into(),
                ));
            }
            let r = Rect::from_corners(self.points[0], self.points[1]);
            Ok(r.corners().to_vec())
        } else {
            Ok(self.points.clone())
        }
    }
}

fn single(elems: &[Element], want: u32) -> Result<&Element, GeomError> {
    if elems.len() != 1 || elems[0].etype != want {
        return Err(GeomError::InvalidSdo(format!("expected a single element of etype {want}")));
    }
    Ok(&elems[0])
}

/// Group exterior rings with the interior rings that follow them.
fn assemble_polygons(elems: &[Element]) -> Result<Vec<Polygon>, GeomError> {
    let mut polys: Vec<Polygon> = Vec::new();
    let mut current: Option<(Ring, Vec<Ring>)> = None;
    for e in elems {
        match e.etype {
            ETYPE_EXTERIOR_RING => {
                if let Some((ext, holes)) = current.take() {
                    polys.push(Polygon::new(ext, holes));
                }
                current = Some((Ring::new(e.ring_points()?)?, Vec::new()));
            }
            ETYPE_INTERIOR_RING => match current.as_mut() {
                Some((_, holes)) => holes.push(Ring::new(e.ring_points()?)?),
                None => {
                    return Err(GeomError::InvalidSdo(
                        "interior ring before any exterior ring".into(),
                    ))
                }
            },
            other => {
                return Err(GeomError::InvalidSdo(format!(
                    "unexpected etype {other} in polygon geometry"
                )))
            }
        }
    }
    if let Some((ext, holes)) = current.take() {
        polys.push(Polygon::new(ext, holes));
    }
    if polys.is_empty() {
        return Err(GeomError::InvalidSdo("polygon geometry with no rings".into()));
    }
    Ok(polys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn roundtrip(g: Geometry) {
        let sdo = SdoGeometry::from_geometry(&g);
        let back = sdo.to_geometry().unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn point_roundtrip() {
        let g = Geometry::Point(pt(1.5, -2.5));
        let sdo = SdoGeometry::from_geometry(&g);
        assert_eq!(sdo.gtype, 2001);
        assert_eq!(sdo.elem_info, vec![1, 1, 1]);
        assert_eq!(sdo.ordinates, vec![1.5, -2.5]);
        roundtrip(g);
    }

    #[test]
    fn line_roundtrip() {
        let g = Geometry::LineString(
            LineString::new(vec![pt(0.0, 0.0), pt(1.0, 1.0), pt(2.0, 0.0)]).unwrap(),
        );
        let sdo = SdoGeometry::from_geometry(&g);
        assert_eq!(sdo.gtype, 2002);
        assert_eq!(sdo.ordinates.len(), 6);
        roundtrip(g);
    }

    #[test]
    fn polygon_with_hole_roundtrip() {
        let outer = Ring::new(Rect::new(0.0, 0.0, 10.0, 10.0).corners().to_vec()).unwrap();
        let hole = Ring::new(Rect::new(4.0, 4.0, 6.0, 6.0).corners().to_vec()).unwrap();
        let g = Geometry::Polygon(Polygon::new(outer, vec![hole]));
        let sdo = SdoGeometry::from_geometry(&g);
        assert_eq!(sdo.gtype, 2003);
        assert_eq!(sdo.num_elements(), 2);
        assert_eq!(sdo.elem_info[1], ETYPE_EXTERIOR_RING);
        assert_eq!(sdo.elem_info[4], ETYPE_INTERIOR_RING);
        // second element starts after the 4 outer vertices: offset 9
        assert_eq!(sdo.elem_info[3], 9);
        roundtrip(g);
    }

    #[test]
    fn ring_ending_within_tolerance_of_its_start_roundtrips() {
        // Ring::new keeps all four vertices only if the input repeats
        // the first one; written open, decoding would drop (0, 1e-10).
        let ring = Ring::new(vec![
            pt(0.0, 0.0),
            pt(1.0, 0.0),
            pt(1.0, 1e-10),
            pt(0.0, 1e-10),
            pt(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(ring.points().len(), 4);
        let g = Geometry::Polygon(Polygon::from_exterior(ring));
        assert_eq!(SdoGeometry::from_geometry(&g).ordinates.len(), 10, "written closed");
        roundtrip(g);
        // Ordinary rings stay open.
        let sq = Geometry::Polygon(Polygon::from_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)));
        assert_eq!(SdoGeometry::from_geometry(&sq).ordinates.len(), 8);
    }

    #[test]
    fn multipolygon_roundtrip() {
        let g = Geometry::MultiPolygon(
            MultiPolygon::new(vec![
                Polygon::from_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)),
                Polygon::from_rect(&Rect::new(5.0, 5.0, 7.0, 7.0)),
            ])
            .unwrap(),
        );
        let sdo = SdoGeometry::from_geometry(&g);
        assert_eq!(sdo.gtype, 2007);
        assert_eq!(sdo.num_elements(), 2);
        roundtrip(g);
    }

    #[test]
    fn multipoint_roundtrip() {
        let g = Geometry::MultiPoint(MultiPoint::new(vec![pt(1.0, 2.0), pt(3.0, 4.0)]).unwrap());
        let sdo = SdoGeometry::from_geometry(&g);
        assert_eq!(sdo.gtype, 2005);
        assert_eq!(sdo.elem_info, vec![1, 1, 2]);
        roundtrip(g);
    }

    #[test]
    fn multiline_roundtrip() {
        let g = Geometry::MultiLineString(
            MultiLineString::new(vec![
                LineString::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)]).unwrap(),
                LineString::new(vec![pt(0.0, 1.0), pt(1.0, 1.0), pt(2.0, 2.0)]).unwrap(),
            ])
            .unwrap(),
        );
        let sdo = SdoGeometry::from_geometry(&g);
        assert_eq!(sdo.gtype, 2006);
        assert_eq!(sdo.elem_info, vec![1, 2, 1, 5, 2, 1]);
        roundtrip(g);
    }

    #[test]
    fn rectangle_interpretation_expands() {
        let sdo = SdoGeometry::rectangle(&Rect::new(1.0, 2.0, 3.0, 5.0));
        let g = sdo.to_geometry().unwrap();
        assert_eq!(g.bbox(), Rect::new(1.0, 2.0, 3.0, 5.0));
        assert_eq!(g.area(), 6.0);
        match g {
            Geometry::Polygon(p) => assert_eq!(p.exterior().num_points(), 4),
            other => panic!("expected polygon, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_encodings() {
        // 3-D gtype
        let bad = SdoGeometry { gtype: 3001, elem_info: vec![1, 1, 1], ordinates: vec![0.0, 0.0] };
        assert!(bad.to_geometry().is_err());
        // odd ordinates
        let bad = SdoGeometry { gtype: 2001, elem_info: vec![1, 1, 1], ordinates: vec![0.0] };
        assert!(bad.to_geometry().is_err());
        // truncated elem_info
        let bad = SdoGeometry { gtype: 2001, elem_info: vec![1, 1], ordinates: vec![0.0, 0.0] };
        assert!(bad.to_geometry().is_err());
        // non-increasing offsets
        let bad =
            SdoGeometry { gtype: 2006, elem_info: vec![5, 2, 1, 1, 2, 1], ordinates: vec![0.0; 8] };
        assert!(bad.to_geometry().is_err());
        // a later element starting past the ordinates (used to panic
        // slicing the earlier element's run)
        let bad = SdoGeometry {
            gtype: 2007,
            elem_info: vec![1, 1003, 1, 25, 1003, 1],
            ordinates: vec![0.0; 16],
        };
        assert!(bad.to_geometry().is_err());
        // even (non 1-based-pair) offset
        let bad = SdoGeometry { gtype: 2001, elem_info: vec![2, 1, 1], ordinates: vec![0.0, 0.0] };
        assert!(bad.to_geometry().is_err());
        // interior ring first
        let bad = SdoGeometry {
            gtype: 2003,
            elem_info: vec![1, ETYPE_INTERIOR_RING, 1],
            ordinates: vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
        };
        assert!(bad.to_geometry().is_err());
        // NaN ordinate
        let bad =
            SdoGeometry { gtype: 2001, elem_info: vec![1, 1, 1], ordinates: vec![f64::NAN, 0.0] };
        assert_eq!(bad.to_geometry(), Err(GeomError::NonFiniteCoordinate));
    }

    #[test]
    fn polygon_gtype_with_two_exteriors_rejected() {
        let sdo = SdoGeometry {
            gtype: 2003,
            elem_info: vec![1, 1003, 1, 9, 1003, 1],
            ordinates: vec![
                0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, // first ring
                5.0, 5.0, 6.0, 5.0, 6.0, 6.0, 5.0, 6.0, // second ring
            ],
        };
        assert!(sdo.to_geometry().is_err());
        // but the same encoding is a valid multipolygon
        let ok = SdoGeometry { gtype: 2007, ..sdo };
        assert!(ok.to_geometry().is_ok());
    }
}
