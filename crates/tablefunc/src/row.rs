//! Rows flowing through table functions.

use sdo_storage::Value;

/// A row produced or consumed by a table function.
///
/// Table functions are untyped at this layer — like Oracle's
/// `ANYDATASET` plumbing, the row shape is a contract between producer
/// and consumer. Geometry values are `Arc`-shared (see
/// [`sdo_storage::Value`]), so rows are cheap to move across the
/// parallel executor's channels.
pub type Row = Vec<Value>;
