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
//!
//! The mapping between typed geometries and these arrays exists once
//! in each direction, whether the arrays are [`SdoGeometry`]'s vectors
//! or the bytes of [`crate::codec`]: one element walk writes them, and
//! one element assembler reads and validates them.

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
    /// Number of `(offset, etype, interpretation)` triplets.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elem_info.len() / 3
    }

    /// Encode a typed geometry.
    pub fn from_geometry(g: &Geometry) -> SdoGeometry {
        let mut sdo =
            SdoGeometry { gtype: gtype_of(g), elem_info: Vec::new(), ordinates: Vec::new() };
        for_each_element(g, |e| {
            sdo.elem_info.extend_from_slice(&[sdo.ordinates.len() as u32 + 1, e.etype, e.interp]);
            sdo.ordinates.extend(e.vertices().flat_map(|p| [p.x, p.y]));
        });
        sdo
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
        assemble(self)
    }
}

// ---------------------------------------------------------------------------
// Typed geometry -> arrays
// ---------------------------------------------------------------------------

/// The `SDO_GTYPE` of a typed geometry.
pub(crate) fn gtype_of(g: &Geometry) -> u32 {
    2000 + match g {
        Geometry::Point(_) => TT_POINT,
        Geometry::LineString(_) => TT_LINE,
        Geometry::Polygon(_) => TT_POLYGON,
        Geometry::MultiPoint(_) => TT_MULTIPOINT,
        Geometry::MultiLineString(_) => TT_MULTILINE,
        Geometry::MultiPolygon(_) => TT_MULTIPOLYGON,
    }
}

/// One element of a typed geometry's encoding: its `elem_info` etype
/// and interpretation, and the vertices it writes to the ordinates.
pub(crate) struct ElementRun<'a> {
    pub(crate) etype: u32,
    pub(crate) interp: u32,
    points: &'a [Point],
    /// Written closed: the first vertex again after the last.
    closed: bool,
}

impl<'a> ElementRun<'a> {
    /// How many ordinates the element writes.
    pub(crate) fn ordinates(&self) -> usize {
        2 * (self.points.len() + usize::from(self.closed))
    }

    /// The vertices in the order they are written.
    pub(crate) fn vertices(&self) -> impl Iterator<Item = &'a Point> {
        self.points.iter().chain(self.points.first().filter(|_| self.closed))
    }
}

/// Visit the elements of `g`'s encoding in `elem_info` order. Every
/// writer of the arrays takes this one walk, so [`SdoGeometry`] and
/// [`crate::codec::put_geometry`] emit the same elements and vertices.
pub(crate) fn for_each_element<'a>(g: &'a Geometry, mut f: impl FnMut(ElementRun<'a>)) {
    let run = |etype, interp, points| ElementRun { etype, interp, points, closed: false };
    match g {
        Geometry::Point(p) => f(run(ETYPE_POINT, 1, std::slice::from_ref(p))),
        // Oracle encodes a point cluster as one element whose
        // interpretation is the point count.
        Geometry::MultiPoint(m) => f(run(ETYPE_POINT, m.points().len() as u32, m.points())),
        Geometry::LineString(l) => f(run(ETYPE_LINE, INTERP_STRAIGHT, l.points())),
        Geometry::MultiLineString(m) => {
            for l in m.lines() {
                f(run(ETYPE_LINE, INTERP_STRAIGHT, l.points()));
            }
        }
        Geometry::Polygon(p) => polygon_elements(p, &mut f),
        Geometry::MultiPolygon(m) => {
            for p in m.polygons() {
                polygon_elements(p, &mut f);
            }
        }
    }
}

/// A polygon's rings. The closing vertex is implicit in our model, so
/// rings are written open (Oracle writes them closed, and both forms
/// decode through [`Ring::new`]) — except a ring whose last vertex lies
/// within tolerance of its first: [`Ring::new`] drops one such closing
/// vertex, so written open it would lose a real one.
fn polygon_elements<'a>(p: &'a Polygon, f: &mut impl FnMut(ElementRun<'a>)) {
    let ring = |etype, r: &'a Ring| {
        let points = r.points();
        let closed = points.len() >= 2 && points[points.len() - 1].almost_eq(&points[0]);
        ElementRun { etype, interp: INTERP_STRAIGHT, points, closed }
    };
    f(ring(ETYPE_EXTERIOR_RING, p.exterior()));
    for h in p.holes() {
        f(ring(ETYPE_INTERIOR_RING, h));
    }
}

// ---------------------------------------------------------------------------
// Arrays -> typed geometry
// ---------------------------------------------------------------------------

/// Read access to an encoding's three arrays wherever they are held:
/// [`SdoGeometry`]'s vectors, or the little-endian bytes of a
/// [`crate::codec`] frame. [`assemble`] reads either, so a geometry is
/// validated by one body of code however it arrives.
pub(crate) trait SdoArrays {
    /// The `dltt` type code.
    fn gtype(&self) -> u32;
    /// Length of `elem_info`, in entries.
    fn elem_info_len(&self) -> usize;
    /// Entry `i` of `elem_info` (`i < elem_info_len()`).
    fn elem_info(&self, i: usize) -> u32;
    /// Length of `ordinates`, in entries.
    fn ordinates_len(&self) -> usize;
    /// The vertices at ordinates `2 * from .. 2 * to` (`2 * to <=
    /// ordinates_len()`).
    fn points(&self, from: usize, to: usize) -> impl Iterator<Item = Point>;
}

impl SdoArrays for SdoGeometry {
    fn gtype(&self) -> u32 {
        self.gtype
    }

    fn elem_info_len(&self) -> usize {
        self.elem_info.len()
    }

    fn elem_info(&self, i: usize) -> u32 {
        self.elem_info[i]
    }

    fn ordinates_len(&self) -> usize {
        self.ordinates.len()
    }

    fn points(&self, from: usize, to: usize) -> impl Iterator<Item = Point> {
        self.ordinates[2 * from..2 * to].chunks_exact(2).map(|c| Point::new(c[0], c[1]))
    }
}

/// Build the typed geometry an encoding describes, validating it.
///
/// Each element's vertices are read once, straight into the vector its
/// ring, line or point set keeps; every ordinate must be finite, those
/// before the first element included.
pub(crate) fn assemble(src: &impl SdoArrays) -> Result<Geometry, GeomError> {
    // `gtype` is `dltt`: `d` the dimensionality, `tt` the type.
    let gtype = src.gtype();
    if gtype / 1000 != 2 {
        return Err(GeomError::InvalidSdo(format!("only 2-D geometries supported, gtype={gtype}")));
    }
    if !src.elem_info_len().is_multiple_of(3) || src.elem_info_len() == 0 {
        return Err(GeomError::InvalidSdo(
            "elem_info length must be a positive multiple of 3".into(),
        ));
    }
    if !src.ordinates_len().is_multiple_of(2) {
        return Err(GeomError::InvalidSdo("odd ordinate count".into()));
    }
    let n = src.elem_info_len() / 3;
    let mut elems = (0..n).map(|i| element(src, i, n));
    match gtype % 100 {
        TT_POINT => {
            let e = single(n, &mut elems, ETYPE_POINT)?;
            let p = e
                .points
                .first()
                .ok_or_else(|| GeomError::InvalidSdo("point element with no ordinates".into()))?;
            Ok(Geometry::Point(*p))
        }
        TT_MULTIPOINT => {
            let mut pts = Vec::new();
            for e in elems {
                let e = e?;
                if e.etype != ETYPE_POINT {
                    return Err(GeomError::InvalidSdo(
                        "multipoint may only contain point elements".into(),
                    ));
                }
                if pts.is_empty() {
                    pts = e.points;
                } else {
                    pts.extend(e.points);
                }
            }
            Ok(Geometry::MultiPoint(MultiPoint::new(pts)?))
        }
        TT_LINE => {
            let e = single(n, &mut elems, ETYPE_LINE)?;
            Ok(Geometry::LineString(LineString::new(e.points)?))
        }
        TT_MULTILINE => {
            let mut lines = Vec::with_capacity(n);
            for e in elems {
                let e = e?;
                if e.etype != ETYPE_LINE {
                    return Err(GeomError::InvalidSdo(
                        "multiline may only contain line elements".into(),
                    ));
                }
                lines.push(LineString::new(e.points)?);
            }
            Ok(Geometry::MultiLineString(MultiLineString::new(lines)?))
        }
        TT_POLYGON => {
            // Keep the first polygon; the count rejects any more.
            let mut first = None;
            match assemble_polygons(elems, |p| _ = first.get_or_insert(p))? {
                1 => Ok(Geometry::Polygon(first.expect("one polygon"))),
                n => Err(GeomError::InvalidSdo(format!("polygon gtype with {n} exterior rings"))),
            }
        }
        TT_MULTIPOLYGON => {
            let mut polys = Vec::new();
            assemble_polygons(elems, |p| polys.push(p))?;
            Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)?))
        }
        tt => Err(GeomError::InvalidSdo(format!("unsupported gtype tt={tt}"))),
    }
}

struct Element {
    etype: u32,
    interp: u32,
    points: Vec<Point>,
}

/// Element `i` of `n`: its offsets checked, its vertices read.
fn element(src: &impl SdoArrays, i: usize, n: usize) -> Result<Element, GeomError> {
    let n_ord = src.ordinates_len();
    let offset = src.elem_info(3 * i) as usize;
    if offset < 1 || offset > n_ord || offset.is_multiple_of(2) {
        return Err(GeomError::InvalidSdo(format!("element {i}: bad starting offset {offset}")));
    }
    let end = if i + 1 < n {
        let next = src.elem_info(3 * (i + 1)) as usize;
        if next <= offset {
            return Err(GeomError::InvalidSdo(format!(
                "element {}: offsets not increasing ({offset} -> {next})",
                i + 1
            )));
        }
        if next > n_ord {
            return Err(GeomError::InvalidSdo(format!(
                "element {}: bad starting offset {next}",
                i + 1
            )));
        }
        next - 1
    } else {
        n_ord
    };
    // Vertices `from..to`; an odd run's last ordinate starts the next
    // element, whose even offset that element rejects.
    let (from, to) = ((offset - 1) / 2, end / 2);
    if i == 0 && src.points(0, from).any(|p| !p.is_finite()) {
        return Err(GeomError::NonFiniteCoordinate);
    }
    let points: Vec<Point> = src.points(from, to).collect();
    if !points.iter().all(Point::is_finite) {
        return Err(GeomError::NonFiniteCoordinate);
    }
    Ok(Element { etype: src.elem_info(3 * i + 1), interp: src.elem_info(3 * i + 2), points })
}

impl Element {
    /// Ring vertices, expanding the two-corner rectangle interpretation.
    fn ring_points(self) -> Result<Vec<Point>, GeomError> {
        if self.interp != INTERP_RECTANGLE {
            return Ok(self.points);
        }
        match self.points[..] {
            [a, b] => Ok(Rect::from_corners(a, b).corners().to_vec()),
            _ => Err(GeomError::InvalidSdo(
                "rectangle interpretation requires exactly 2 corner points".into(),
            )),
        }
    }
}

/// The one element of a geometry that has exactly one, of etype `want`.
fn single(
    n: usize,
    elems: &mut impl Iterator<Item = Result<Element, GeomError>>,
    want: u32,
) -> Result<Element, GeomError> {
    let wrong = || GeomError::InvalidSdo(format!("expected a single element of etype {want}"));
    match (n, elems.next()) {
        (1, Some(e)) => {
            let e = e?;
            if e.etype != want {
                return Err(wrong());
            }
            Ok(e)
        }
        _ => Err(wrong()),
    }
}

/// Group exterior rings with the interior rings that follow them,
/// handing each polygon to `emit`; returns how many there were.
fn assemble_polygons(
    elems: impl Iterator<Item = Result<Element, GeomError>>,
    mut emit: impl FnMut(Polygon),
) -> Result<usize, GeomError> {
    let mut count = 0;
    let mut current: Option<(Ring, Vec<Ring>)> = None;
    for e in elems {
        let e = e?;
        match e.etype {
            ETYPE_EXTERIOR_RING => {
                if let Some((ext, holes)) = current.take() {
                    emit(Polygon::new(ext, holes));
                    count += 1;
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
    match current {
        Some((ext, holes)) => {
            emit(Polygon::new(ext, holes));
            Ok(count + 1)
        }
        None => Err(GeomError::InvalidSdo("polygon geometry with no rings".into())),
    }
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
    fn ordinates_outside_every_element_must_still_be_finite() {
        // The element starts at ordinate 3: the pair before it belongs
        // to no element, and a NaN there still rejects the encoding.
        let sdo = SdoGeometry {
            gtype: 2001,
            elem_info: vec![3, 1, 1],
            ordinates: vec![0.0, 0.0, 1.0, 2.0],
        };
        assert_eq!(sdo.to_geometry(), Ok(Geometry::Point(pt(1.0, 2.0))));
        let bad = SdoGeometry { ordinates: vec![f64::NAN, 0.0, 1.0, 2.0], ..sdo };
        assert_eq!(bad.to_geometry(), Err(GeomError::NonFiniteCoordinate));
    }

    #[test]
    fn errors_are_reported_in_element_order() {
        // Elements are read and built one at a time, so the first fault
        // in element order is the one reported; gtype-level faults come
        // before any element is read.
        let cases = [
            // A two-vertex exterior ring, then a NaN in the hole.
            (
                SdoGeometry {
                    gtype: 2003,
                    elem_info: vec![1, 1003, 1, 5, 2003, 1],
                    ordinates: vec![0.0, 0.0, 1.0, 0.0, f64::NAN, 0.0, 1.0, 1.0, 0.0, 1.0],
                },
                GeomError::TooFewPoints { expected: 3, got: 2 },
            ),
            // A point gtype with two elements, one holding a NaN.
            (
                SdoGeometry {
                    gtype: 2001,
                    elem_info: vec![1, 1, 1, 3, 1, 1],
                    ordinates: vec![0.0, 0.0, f64::NAN, 0.0],
                },
                GeomError::InvalidSdo("expected a single element of etype 1".into()),
            ),
            // An unsupported gtype over a NaN.
            (
                SdoGeometry {
                    gtype: 2004,
                    elem_info: vec![1, 1, 1],
                    ordinates: vec![f64::NAN, 0.0],
                },
                GeomError::InvalidSdo("unsupported gtype tt=4".into()),
            ),
            // A one-vertex line, then an element at an even offset.
            (
                SdoGeometry {
                    gtype: 2006,
                    elem_info: vec![1, 2, 1, 4, 2, 1],
                    ordinates: vec![0.0; 8],
                },
                GeomError::TooFewPoints { expected: 2, got: 1 },
            ),
            // An even offset into an element holding a NaN.
            (
                SdoGeometry {
                    gtype: 2001,
                    elem_info: vec![2, 1, 1],
                    ordinates: vec![f64::NAN, 0.0],
                },
                GeomError::InvalidSdo("element 0: bad starting offset 2".into()),
            ),
        ];
        for (sdo, want) in cases {
            assert_eq!(sdo.to_geometry(), Err(want), "{sdo:?}");
        }
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
