#![warn(missing_docs)]
//! # sdo-server — multi-session front door for the spatial engine
//!
//! Turns the embedded engine ([`sdo_dbms::Database`]) into a network
//! service without an async runtime:
//!
//! * **Wire protocol** ([`wire`]) — length-prefixed frames
//!   (`[u32 LE len][u8 opcode][body]`) carrying SQL, prepared
//!   statements with positional `?` binds, and tagged result values in
//!   the storage layer's value encoding (geometry travels as its binary
//!   `SDO_GEOMETRY` bytes, [`sdo_geom::codec`]).
//! * **Sessions** — each connection owns an engine [`Session`], so
//!   `ALTER SESSION`, explicit transactions, `EXPLAIN ANALYZE`
//!   profiles, and `PREPARE`d statements stay connection-private
//!   while every connection shares the catalog, MVCC, WAL, and the
//!   process-wide table-function slave pool.
//! * **Admission control** ([`admission`]) — a global resident-row
//!   budget, in the same currency as the engine's
//!   `max_resident_rows` accounting. Statements past the budget
//!   queue (bounded, with timeout) or get a clean retryable
//!   rejection; overload never cascades into memory exhaustion.
//! * **`/metrics`** — the same port answers HTTP `GET /metrics` with
//!   a Prometheus text exposition of engine, pool, and admission
//!   instruments ([`sdo_obs::export::registry_to_prometheus`]).
//!
//! [`Session`]: sdo_dbms::Session

pub mod admission;
pub mod server;
pub mod wire;

pub use admission::{AdmissionController, AdmissionError, AdmissionStats, Permit};
pub use server::{serve, Client, ClientError, ServerConfig, ServerHandle, WireResult};
pub use wire::ErrorKind;
