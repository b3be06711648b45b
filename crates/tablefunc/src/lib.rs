#![warn(missing_docs)]
//! # sdo-tablefunc — parallel and pipelined table functions
//!
//! A from-scratch reproduction of the Oracle9i mechanism the ICDE 2003
//! paper builds on (its §2):
//!
//! * **Pipelined table functions** — functions that produce a set of
//!   rows through a `start` / `fetch` / `close` interface
//!   ([`TableFunction`]). Each `fetch` call returns up to a requested
//!   number of rows; an empty batch signals exhaustion and `close`
//!   releases resources. Pipelining is what lets a spatial join return
//!   result sets "that cannot fit in memory".
//! * **Parallel table functions** — a function "directly accept\[s\] a
//!   set of rows (a cursor)" and the runtime *partitions the input
//!   cursor across multiple instances* of the function
//!   ([`parallel::ParallelTableFunction`]). The degree of parallelism
//!   (DOP) picks the slave count; each slave runs its own instance and
//!   result rows funnel through a bounded channel to the consumer,
//!   preserving pipelining end to end.
//!
//! The slaves run on [`parallel::Fanout`], the engine's one fan-out
//! runtime: one pool job per worker body, one bounded channel, one
//! cancel flag, and a panic reported as a message naming the worker. The
//! SQL exchanges in `sdo-dbms` use the same core.
//!
//! Input cursors are modeled by [`RowSource`]. Where the paper splits
//! the cursor once up front (`PARTITION BY ANY`), slaves here pull
//! chunks of it on demand from a shared work-stealing [`TaskQueue`]
//! ([`scheduler`]), so a dense chunk cannot pin one slave.

pub mod parallel;
pub mod pipeline;
pub mod pool;
pub mod row;
pub mod scheduler;
pub mod source;
pub mod table_function;

pub use parallel::{Fanout, Outbox, ParallelTableFunction};
pub use pool::{PoolStats, SlavePool};
pub use row::Row;
pub use scheduler::TaskQueue;
pub use source::{RowSource, VecSource};
pub use table_function::{collect_all, TableFunction};

/// Errors surfaced by table function execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TfError {
    /// The function body failed.
    Execution(String),
    /// `fetch` called before `start` or after `close`.
    Protocol(&'static str),
    /// A parallel slave panicked.
    SlavePanic(usize),
}

impl std::fmt::Display for TfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TfError::Execution(m) => write!(f, "table function failed: {m}"),
            TfError::Protocol(m) => write!(f, "table function protocol violation: {m}"),
            TfError::SlavePanic(i) => write!(f, "parallel slave {i} panicked"),
        }
    }
}

impl std::error::Error for TfError {}

impl From<sdo_storage::StorageError> for TfError {
    fn from(e: sdo_storage::StorageError) -> Self {
        TfError::Execution(e.to_string())
    }
}
