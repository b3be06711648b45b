//! Typed column values.

use crate::rowid::RowId;
use sdo_geom::Geometry;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single column value.
///
/// Geometries are reference counted: the same geometry value flows from
/// the heap table through candidate arrays, secondary filters and result
/// rows without deep copies, which matters for the complex block-group
/// polygons (hundreds of vertices each).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string (shared).
    Text(Arc<str>),
    /// Row address.
    RowId(RowId),
    /// Geometry object (shared).
    Geometry(Arc<Geometry>),
}

impl Value {
    /// A text value.
    pub fn text(s: impl Into<Arc<str>>) -> Value {
        Value::Text(s.into())
    }

    /// A geometry value (wraps in `Arc` for cheap sharing).
    pub fn geometry(g: Geometry) -> Value {
        Value::Geometry(Arc::new(g))
    }

    /// True for SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if any.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a double (integers widen).
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Integer(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The rowid payload, if any.
    pub fn as_rowid(&self) -> Option<RowId> {
        match self {
            Value::RowId(r) => Some(*r),
            _ => None,
        }
    }

    /// The geometry payload, if any.
    pub fn as_geometry(&self) -> Option<&Arc<Geometry>> {
        match self {
            Value::Geometry(g) => Some(g),
            _ => None,
        }
    }

    /// The [`crate::schema::DataType`] this value inhabits, or `None`
    /// for NULL (which inhabits every type).
    pub fn data_type(&self) -> Option<crate::schema::DataType> {
        use crate::schema::DataType::*;
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(Integer),
            Value::Double(_) => Some(Double),
            Value::Text(_) => Some(Text),
            Value::RowId(_) => Some(RowId),
            Value::Geometry(_) => Some(Geometry),
        }
    }

    /// SQL comparison: NULL compares less than everything (for sort
    /// stability), numbers compare numerically across Integer/Double,
    /// geometries are incomparable and collate by type only.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Integer(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Integer(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (RowId(a), RowId(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL equality (three-valued logic collapsed: NULL != NULL here,
    /// matching WHERE-clause semantics).
    pub fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => false,
            (Geometry(a), Geometry(b)) => a == b,
            (a, b) => {
                rank(a) == rank(b) && a.sql_cmp(b) == Ordering::Equal
                    || matches!((a, b), (Integer(_), Double(_)) | (Double(_), Integer(_)))
                        && a.sql_cmp(b) == Ordering::Equal
            }
        }
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Integer(_) | Value::Double(_) => 1,
        Value::Text(_) => 2,
        Value::RowId(_) => 3,
        Value::Geometry(_) => 4,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::RowId(r) => write!(f, "{r}"),
            Value::Geometry(g) => write!(f, "{}", sdo_geom::wkt::to_wkt(g)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Geometry(a), Geometry(b)) => a == b,
            (Integer(a), Integer(b)) => a == b,
            (Double(a), Double(b)) => a.total_cmp(b) == Ordering::Equal,
            (Text(a), Text(b)) => a == b,
            (RowId(a), RowId(b)) => a == b,
            _ => false,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v.to_string())
    }
}

impl From<RowId> for Value {
    fn from(v: RowId) -> Self {
        Value::RowId(v)
    }
}

impl From<Geometry> for Value {
    fn from(v: Geometry) -> Self {
        Value::geometry(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::Point;

    #[test]
    fn accessors() {
        assert_eq!(Value::Integer(4).as_integer(), Some(4));
        assert_eq!(Value::Integer(4).as_double(), Some(4.0));
        assert_eq!(Value::Double(2.5).as_double(), Some(2.5));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert_eq!(Value::from(RowId::new(9)).as_rowid(), Some(RowId::new(9)));
        assert!(Value::Null.is_null());
        assert!(Value::Double(1.0).as_integer().is_none());
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Value::Integer(2).sql_cmp(&Value::Double(2.0)), Ordering::Equal);
        assert_eq!(Value::Integer(2).sql_cmp(&Value::Double(2.5)), Ordering::Less);
        assert!(Value::Integer(2).sql_eq(&Value::Double(2.0)));
    }

    #[test]
    fn null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(-100)), Ordering::Less);
        assert_eq!(Value::Null, Value::Null); // structural eq for tests
    }

    #[test]
    fn geometry_values_share_storage() {
        let g = Geometry::Point(Point::new(1.0, 2.0));
        let v = Value::geometry(g.clone());
        let v2 = v.clone();
        match (&v, &v2) {
            (Value::Geometry(a), Value::Geometry(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        assert!(v.sql_eq(&v2));
        assert_eq!(v.data_type(), Some(crate::schema::DataType::Geometry));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Integer(42).to_string(), "42");
        let g = Geometry::Point(Point::new(1.0, 2.0));
        assert_eq!(Value::geometry(g).to_string(), "POINT (1 2)");
    }
}
