#![warn(missing_docs)]
//! # sdo-geom — geometry engine
//!
//! The geometry substrate for the table-function spatial processing
//! stack. It reimplements, from scratch, the parts of Oracle Spatial's
//! geometry layer that the ICDE 2003 paper depends on:
//!
//! * the [`SdoGeometry`] object model (`gtype` +
//!   `elem_info` + `ordinates` arrays) and its conversion to typed
//!   geometries,
//! * 2-dimensional simple features: [`Point`], [`LineString`],
//!   [`Polygon`] (with holes) and their `Multi*` aggregates,
//! * minimum bounding rectangles ([`Rect`]) with the MBR algebra used by
//!   R-trees (union, intersection, `mindist`, distance expansion),
//! * exact geometry–geometry predicates (the paper's *secondary
//!   filter*): `ANYINTERACT`, containment masks, and within-distance,
//! * supporting computational geometry: robust-enough orientation
//!   tests, segment intersection, point-in-polygon, distance, area,
//!   centroid, convex hull and Douglas–Peucker simplification,
//! * WKT parsing/serialization for interchange and test fixtures.
//!
//! Everything operates on `f64` coordinates with a small absolute
//! tolerance ([`EPS`]) for degeneracy decisions, which matches the
//! fixed-precision behaviour of the original system closely enough for
//! the paper's workloads (GIS data in geographic or planar coordinates).

pub mod algorithms;
pub mod codec;
pub mod error;
pub mod geometry;
pub mod linestring;
pub mod multi;
pub mod point;
pub mod polygon;
pub mod prepared;
pub mod rect;
pub mod relate;
pub mod sdo;
pub mod segment;
pub mod simd;
pub mod validate;
pub mod wkt;

pub use error::GeomError;
pub use geometry::{Geometry, TopoDim};
pub use linestring::LineString;
pub use multi::{MultiLineString, MultiPoint, MultiPolygon};
pub use point::Point;
pub use polygon::{Polygon, Ring};
pub use prepared::{PreparedGeometry, SegIndex};
pub use rect::{axis_mindist, Rect};
pub use relate::{covered_by, distance, intersects, relate, within_distance, RelateMask};
pub use sdo::SdoGeometry;
pub use segment::Segment;

/// Absolute tolerance used for degeneracy decisions (collinearity,
/// coincident points, zero-length segments).
///
/// The paper's datasets are GIS coordinates with ~1e-6 degree precision;
/// 1e-9 is far below any meaningful coordinate difference while
/// absorbing `f64` rounding in the predicate arithmetic.
pub const EPS: f64 = 1e-9;

/// Returns true when two floating point values are equal within [`EPS`].
#[inline]
pub fn feq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}
