//! The extensible indexing framework.
//!
//! Oracle's ODCI framework lets a cartridge define an *indextype*
//! providing index creation, DML maintenance, and operator evaluation
//! routines that the kernel invokes (paper §3). This module is the
//! equivalent seam: `sdo-core` registers a `SPATIAL_INDEX` indextype
//! here, and `CREATE INDEX ... INDEXTYPE IS SPATIAL_INDEX` plus
//! `WHERE SDO_RELATE(...) = 'TRUE'` route through these traits.
//!
//! The framework's key (faithful) limitation: an operator is evaluated
//! against **one** indexed table and returns rowids of that table only.
//! Joins over two domain indexes don't fit — which is exactly why the
//! paper implements spatial joins as table functions instead.

use crate::error::DbError;
use sdo_geom::{Geometry, PreparedGeometry, RelateMask};
use sdo_storage::{RowId, Value};

/// The exact test of a spatial predicate — the secondary filter that
/// refines an index's candidates (paper §3, §4.2). Compiled once per
/// statement: from an `SDO_RELATE`, `SDO_WITHIN_DISTANCE` or
/// `SDO_FILTER` call where the planner classifies the WHERE clause,
/// and from `SPATIAL_JOIN`'s interaction argument where the join is
/// instantiated. A bad mask or distance is an error there, before any
/// row is read.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactPredicate {
    /// `SDO_RELATE`-style mask union.
    Masks(Vec<RelateMask>),
    /// Within-distance join.
    Distance(f64),
    /// Primary filter only: emit every MBR candidate (mask `FILTER`).
    PrimaryOnly,
}

impl ExactPredicate {
    /// Parse `SPATIAL_JOIN`'s interaction argument: `'filter'`,
    /// `'distance=d'` (the prefix in any case), or a mask list
    /// (`'intersect'`, `'mask=TOUCH+OVERLAP'`).
    pub fn parse(s: &str) -> Result<ExactPredicate, DbError> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("filter") {
            return Ok(ExactPredicate::PrimaryOnly);
        }
        match t.get(..9).filter(|p| p.eq_ignore_ascii_case("distance=")) {
            Some(_) => distance(&t[9..]).map(ExactPredicate::Distance),
            None => masks(t).map(ExactPredicate::Masks),
        }
    }

    /// Compile operator `name`'s arguments after its two geometries:
    /// `SDO_RELATE`'s mask list (default `ANYINTERACT`),
    /// `SDO_WITHIN_DISTANCE`'s number or `'distance=d'` parameter
    /// string, or `SDO_FILTER`, which takes none.
    pub fn from_operator(name: &str, args: &[Value]) -> Result<ExactPredicate, DbError> {
        let arg = args.first();
        match name.to_ascii_uppercase().as_str() {
            "SDO_RELATE" => {
                masks(arg.and_then(Value::as_text).unwrap_or("ANYINTERACT")).map(Self::Masks)
            }
            "SDO_WITHIN_DISTANCE" => match arg.and_then(Value::as_double) {
                Some(d) => Ok(ExactPredicate::Distance(d)),
                None => {
                    let p = arg.and_then(Value::as_text).map(parse_params);
                    let d = p.as_deref().and_then(|p| param(p, "distance"));
                    distance(d.unwrap_or_default()).map(ExactPredicate::Distance)
                }
            },
            "SDO_FILTER" => Ok(ExactPredicate::PrimaryOnly),
            other => Err(DbError::Plan(format!("{other} is not a pairwise spatial operator"))),
        }
    }

    /// The operator whose exact test this is, as `EXPLAIN` names it.
    pub fn operator(&self) -> &'static str {
        match self {
            ExactPredicate::Masks(_) => "SDO_RELATE",
            ExactPredicate::Distance(_) => "SDO_WITHIN_DISTANCE",
            ExactPredicate::PrimaryOnly => "SDO_FILTER",
        }
    }

    /// Test one pair, `a` the operator's first argument. Row-at-a-time
    /// callers (scans, nested loops, DML, residuals) test each row
    /// once, so they build no segment index.
    #[inline]
    pub fn test(&self, a: &Geometry, b: &Geometry) -> bool {
        match self {
            ExactPredicate::Masks(m) => sdo_geom::relate::relate_any(a, b, m),
            ExactPredicate::Distance(d) => sdo_geom::within_distance(a, b, *d),
            ExactPredicate::PrimaryOnly => a.bbox().intersects(&b.bbox()),
        }
    }

    /// [`ExactPredicate::test`] on prepared geometries, for callers
    /// that meet one geometry in many pairs (a join's candidate
    /// array): their kernels build and reuse segment indexes.
    #[inline]
    pub fn test_prepared(&self, a: &PreparedGeometry, b: &PreparedGeometry) -> bool {
        match self {
            ExactPredicate::Masks(m) => a.relate_any(b, m),
            ExactPredicate::Distance(d) => a.within_distance(b, *d),
            ExactPredicate::PrimaryOnly => a.bbox().intersects(&b.bbox()),
        }
    }
}

/// A `'+'`-separated mask list, optionally behind `mask=`.
fn masks(s: &str) -> Result<Vec<RelateMask>, DbError> {
    RelateMask::parse_list(s).map_err(|_| DbError::Plan(format!("bad mask '{s}'")))
}

fn distance(d: &str) -> Result<f64, DbError> {
    d.trim().parse().map_err(|_| DbError::Plan(format!("bad distance '{d}'")))
}

/// A live domain index instance attached to one `(table, column)`.
pub trait DomainIndex: Send + Sync {
    /// The index's registered name.
    fn name(&self) -> &str;

    /// Maintain the index after a row insert.
    fn on_insert(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError>;

    /// Maintain the index before a row delete.
    fn on_delete(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError>;

    /// The primary filter of `OP(column, query, …)`, `op` its compiled
    /// exact test: candidate rowids of the indexed table, a superset of
    /// the rows whose geometry passes `op` against `query`. They may
    /// repeat and may name versions the caller's snapshot cannot see
    /// (eager maintenance of in-flight transactions, deferred removal
    /// of superseded entries). The caller fetches each distinct
    /// candidate once at its snapshot and runs `op` — the secondary
    /// filter — the way a table scan does, so no plan answers
    /// differently.
    fn evaluate(&self, query: &Geometry, op: &ExactPredicate) -> Result<Vec<RowId>, DbError>;

    /// Implementation-specific statistics line for `EXPLAIN`-style
    /// output and experiment logs.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Incremental nearest-neighbor support: return up to `k` rowids
    /// ordered by ascending exact distance to `query` (ties broken by
    /// rowid), visiting as little of the index as possible. `Ok(None)`
    /// means the index has no kNN capability and the caller must fall
    /// back to a full sort — the default for index types without a
    /// distance-ordered traversal.
    fn nearest(
        &self,
        query: &Geometry,
        k: usize,
        snap: &sdo_storage::Snapshot,
    ) -> Result<Option<Vec<(f64, RowId)>>, DbError> {
        let (_, _, _) = (query, k, snap);
        Ok(None)
    }

    /// Downcast support so privileged callers (the spatial join table
    /// function) can reach the concrete index structure.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A factory for domain indexes — the *indextype*. Registered under a
/// name (`SPATIAL_INDEX`) and invoked by
/// `CREATE INDEX ... INDEXTYPE IS <name> PARAMETERS ('...') PARALLEL n`.
pub trait IndexType: Send + Sync {
    /// Build an index over `table.column`.
    ///
    /// `params` is the raw `PARAMETERS` string (e.g.
    /// `"sdo_level=8"` or `"tree_fanout=32"`), `dop` the requested
    /// degree of parallelism for creation.
    fn create_index(
        &self,
        db: &crate::db::Database,
        index_name: &str,
        table: &str,
        column: &str,
        params: &str,
        dop: usize,
    ) -> Result<Box<dyn DomainIndex>, DbError>;

    /// Operators this indextype implements (uppercase names).
    fn operators(&self) -> &[&'static str];
}

/// Parse an Oracle-style `PARAMETERS` string: whitespace/comma
/// separated `key=value` pairs, case-insensitive keys.
pub fn parse_params(params: &str) -> Vec<(String, String)> {
    params
        .split([',', ' ', '\t', '\n'])
        .filter(|s| !s.is_empty())
        .filter_map(|kv| {
            kv.split_once('=').map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect()
}

/// Look up a parameter value by key.
pub fn param<'a>(params: &'a [(String, String)], key: &str) -> Option<&'a str> {
    params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every spelling `SPATIAL_JOIN` (`parse`) and the operators
    /// (`from_operator`) accept, and ones they reject.
    #[test]
    fn exact_predicate_grammar() {
        use ExactPredicate::{Distance, Masks, PrimaryOnly};
        use RelateMask::*;
        let join = |s: &str| ExactPredicate::parse(s);
        let op =
            |name: &str, arg: Option<Value>| ExactPredicate::from_operator(name, arg.as_slice());
        let text = |s: &str| Some(Value::text(s));
        let accepted = [
            (join("ANYINTERACT"), Masks(vec![AnyInteract])),
            (join("intersect"), Masks(vec![AnyInteract])),
            (join(" mask=TOUCH+OVERLAP "), Masks(vec![Touch, Overlap])),
            (join("FILTER"), PrimaryOnly),
            (join("filter"), PrimaryOnly),
            (join("distance=2.5"), Distance(2.5)),
            (join("Distance=2.5"), Distance(2.5)),
            (join("DISTANCE=2.5"), Distance(2.5)),
            (join("DiStAnCe= 2.5"), Distance(2.5)),
            (op("SDO_RELATE", None), Masks(vec![AnyInteract])),
            (op("sdo_relate", text("ANYINTERACT")), Masks(vec![AnyInteract])),
            (op("SDO_RELATE", text("intersect")), Masks(vec![AnyInteract])),
            (op("SDO_RELATE", text("mask=TOUCH+OVERLAP")), Masks(vec![Touch, Overlap])),
            (op("SDO_RELATE", text("MASK=inside")), Masks(vec![Inside])),
            (op("SDO_WITHIN_DISTANCE", Some(Value::Double(0.5))), Distance(0.5)),
            (op("SDO_WITHIN_DISTANCE", Some(Value::Integer(1))), Distance(1.0)),
            (op("SDO_WITHIN_DISTANCE", text("distance=0.5")), Distance(0.5)),
            (op("SDO_WITHIN_DISTANCE", text("Distance=2.5")), Distance(2.5)),
            (op("SDO_WITHIN_DISTANCE", text("distance=0.5 unit=M")), Distance(0.5)),
            (op("SDO_FILTER", None), PrimaryOnly),
        ];
        for (i, (got, want)) in accepted.into_iter().enumerate() {
            assert_eq!(got, Ok(want), "accepted case {i}");
        }
        let rejected = [
            join("distance=abc"),
            join("Distance=abc"),
            join("distance=0.5 unit=M"),
            join("nonsense"),
            join("mask=BOGUS"),
            join(""),
            op("SDO_RELATE", text("mask=BOGUS")),
            op("SDO_RELATE", text("distance=1")),
            op("SDO_RELATE", text("FILTER")),
            op("SDO_WITHIN_DISTANCE", None),
            op("SDO_WITHIN_DISTANCE", Some(Value::Null)),
            op("SDO_WITHIN_DISTANCE", text("distance=abc")),
            op("SDO_WITHIN_DISTANCE", text("unit=M")),
            op("SDO_NN", Some(Value::Integer(1))),
            op("SDO_AREA", None),
        ];
        for (i, got) in rejected.into_iter().enumerate() {
            assert!(matches!(got, Err(DbError::Plan(_))), "rejected case {i}: {got:?}");
        }
    }

    /// `test` and `test_prepared` choose the same kernel for every
    /// predicate.
    #[test]
    fn prepared_test_equals_test() {
        let square = |x: f64| {
            sdo_geom::wkt::parse_wkt(&format!(
                "POLYGON (({x} 0, {} 0, {} 2, {x} 2, {x} 0))",
                x + 2.0,
                x + 2.0
            ))
            .unwrap()
        };
        let a = square(0.0);
        let preds =
            ["ANYINTERACT", "TOUCH", "OVERLAP+INSIDE", "DISJOINT", "distance=1.5", "FILTER"]
                .map(|s| ExactPredicate::parse(s).unwrap());
        for x in [0.0, 1.0, 2.0, 3.0, 4.0] {
            let b = square(x);
            let (pa, pb) =
                (PreparedGeometry::indexed(a.clone()), PreparedGeometry::indexed(b.clone()));
            for p in &preds {
                assert_eq!(p.test(&a, &b), p.test_prepared(&pa, &pb), "{p:?} at x={x}");
            }
        }
    }

    #[test]
    fn params_parse_oracle_style() {
        let p = parse_params("sdo_level=8, tree_fanout=32  memory=64000");
        assert_eq!(param(&p, "sdo_level"), Some("8"));
        assert_eq!(param(&p, "tree_fanout"), Some("32"));
        assert_eq!(param(&p, "memory"), Some("64000"));
        assert_eq!(param(&p, "missing"), None);
    }

    #[test]
    fn params_keys_case_insensitive() {
        let p = parse_params("SDO_LEVEL=6");
        assert_eq!(param(&p, "sdo_level"), Some("6"));
    }

    #[test]
    fn empty_params() {
        assert!(parse_params("").is_empty());
        assert!(parse_params("  ,, ").is_empty());
    }
}
