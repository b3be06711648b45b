#![warn(missing_docs)]
//! # sdo-dbms — mini relational engine with extensible indexing
//!
//! The slice of the Oracle kernel the paper's techniques live in:
//!
//! * a [`Database`] façade over the storage catalog with
//!   DML that maintains registered domain indexes (Oracle: "inserts and
//!   updates ... automatically trigger an update of the corresponding
//!   spatial indexes"),
//! * the **extensible indexing framework** ([`extensible`]): an
//!   indextype registry plus the [`extensible::DomainIndex`] trait with
//!   create/insert/delete hooks and operator evaluation. The framework
//!   deliberately reproduces the constraint the paper works around:
//!   *a domain-index operator returns rows of a single table*, so
//!   two-table spatial joins cannot be answered by an operator and need
//!   table functions,
//! * a registry of **table functions** callable from SQL's
//!   `FROM TABLE(f(...))` clause, with `CURSOR(SELECT ...)` arguments,
//! * a small **SQL dialect** ([`sql`]) covering the paper's statements:
//!   `CREATE TABLE`, `INSERT`, `CREATE INDEX ... INDEXTYPE IS ...
//!   PARAMETERS (...) PARALLEL n`, and `SELECT` with spatial operators
//!   (`SDO_RELATE`, `SDO_WITHIN_DISTANCE`, `SDO_FILTER`), nested-loop
//!   joins, table-function scans and rowid-pair `IN` subqueries,
//! * a row-at-a-time executor ([`exec`]) with the two join strategies
//!   the paper compares: index-probing nested loop vs. table-function
//!   spatial join.

pub mod db;
pub mod error;
pub mod exec;
pub mod extensible;
mod operators;
mod parallel;
mod planner;
pub mod session;
pub mod sql;

pub use db::{Database, Durability, QueryResult, SessionOptions, TfArg, Txn};
pub use error::DbError;
pub use extensible::{DomainIndex, IndexType, OperatorCall};
pub use parallel::set_morsel_rows;
pub use session::Session;
