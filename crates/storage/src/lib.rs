#![warn(missing_docs)]
//! # sdo-storage — mini storage engine
//!
//! The relational substrate underneath the table-function spatial stack.
//! It supplies the pieces of the Oracle kernel the ICDE 2003 paper's
//! techniques actually touch:
//!
//! * **heap tables** ([`table::Table`]) holding typed rows addressed by
//!   stable [`rowid::RowId`]s — spatial joins return *pairs of rowids*,
//!   and the secondary filter fetches geometries by rowid,
//! * a typed [`value::Value`] model including geometries
//!   (`SDO_GEOMETRY` columns are just object-typed columns in Oracle),
//! * a [`catalog::Catalog`] of tables plus index metadata (the paper's
//!   "metadata table" storing index table name, dimensionality, fanout,
//!   tiling level),
//! * [`stats::Counters`] — logical I/O and comparison counters that the
//!   experiment harness reports alongside wall-clock time.
//!
//! Everything is in-memory and single-node; concurrency follows Oracle's
//! statement-level model loosely with `parking_lot` read/write locks at
//! table granularity.

pub mod catalog;
pub mod mvcc;
pub mod pager;
pub mod rowid;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::{Catalog, IndexKind, IndexMetadata};
pub use mvcc::{Csn, Snapshot, TxnId, TxnState, TxnStatusTable, FROZEN_TXN};
pub use rowid::RowId;
pub use schema::{ColumnDef, DataType, Schema};
pub use stats::{
    ColumnStats, Counters, CountersSnapshot, SpatialHistogram, SpatialSample, TableStats,
    ANALYZE_SAMPLE, COUNTER_NAMES, HISTOGRAM_DIM,
};
pub use table::Table;
pub use value::Value;
pub use wal::{Wal, WalRecord};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Row does not exist (deleted or never allocated).
    NoSuchRow(RowId),
    /// Schema mismatch on insert/update.
    SchemaMismatch(String),
    /// Named object (table/index) not found.
    NotFound(String),
    /// Named object already exists.
    AlreadyExists(String),
    /// Value had an unexpected type.
    TypeError(String),
    /// First-updater-wins: another transaction wrote this row (still
    /// in progress, or committed after the loser's snapshot).
    WriteConflict(RowId),
    /// Filesystem failure in the WAL or pager.
    Io(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NoSuchRow(rid) => write!(f, "no such row: {rid}"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::NotFound(n) => write!(f, "not found: {n}"),
            StorageError::AlreadyExists(n) => write!(f, "already exists: {n}"),
            StorageError::TypeError(m) => write!(f, "type error: {m}"),
            StorageError::WriteConflict(rid) => {
                write!(f, "write-write conflict on row {rid}: concurrent transaction wrote it")
            }
            StorageError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}
