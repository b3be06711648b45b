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
use sdo_storage::{RowId, Value};

/// A parsed spatial (or other domain) operator occurrence:
/// `NAME(col, args...) = 'TRUE'`.
#[derive(Debug, Clone)]
pub struct OperatorCall {
    /// Operator name, uppercased (`SDO_RELATE`, `SDO_WITHIN_DISTANCE`,
    /// `SDO_FILTER`).
    pub name: String,
    /// Evaluated non-column arguments (query geometry, mask string,
    /// distance...).
    pub args: Vec<Value>,
}

/// A live domain index instance attached to one `(table, column)`.
pub trait DomainIndex: Send + Sync {
    /// The index's registered name.
    fn name(&self) -> &str;

    /// Maintain the index after a row insert.
    fn on_insert(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError>;

    /// Maintain the index before a row delete.
    fn on_delete(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError>;

    /// The primary filter of an operator: candidate rowids of the
    /// indexed table, a superset of the rows that satisfy it. They may
    /// repeat and may name versions the caller's snapshot cannot see
    /// (eager maintenance of in-flight transactions, deferred removal
    /// of superseded entries). The caller fetches each distinct
    /// candidate once at its snapshot and runs the exact test — the
    /// secondary filter — the way a table scan does, so no plan
    /// answers differently.
    fn evaluate(&self, call: &OperatorCall) -> Result<Vec<RowId>, DbError>;

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
        query: &sdo_geom::Geometry,
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
