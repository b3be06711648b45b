#![warn(missing_docs)]
//! # sdo-obs — observability for the spatial engine
//!
//! Three complementary instruments, all cheap enough to leave compiled
//! into release builds:
//!
//! * **Metrics registry** ([`metrics`]) — named monotone [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket latency [`Histogram`]s with
//!   percentile estimation and cross-thread merge. One global registry
//!   ([`global`]) plus constructible private ones.
//! * **Span timers** ([`span()`]) — RAII guards that record elapsed wall
//!   time into a registry histogram:
//!   `let _s = obs::span("rtree.join.fetch");`
//! * **Query profiles** ([`profile`]) — a structured tree recording,
//!   per operator, rows produced, batches fetched, wall time, and
//!   arbitrary named work metrics (e.g. `Counters` deltas from
//!   `sdo-storage`). Profiles propagate across threads explicitly
//!   (parallel table-function slaves attach per-slave child nodes),
//!   and `sdo-dbms` renders them for `EXPLAIN ANALYZE`.
//!
//! When no profile session is active ([`profiling`] is `false`) the
//! per-operator hooks reduce to one relaxed atomic load, so plain
//! query execution pays essentially nothing.

pub mod export;
pub mod metrics;
pub mod profile;
pub mod span;

pub use metrics::{
    global, Counter, Gauge, GaugeCharge, Histogram, MemoryGauge, MetricsRegistry, RegistrySnapshot,
};
pub use profile::{
    current, enter, profiling, EnterGuard, OpProfile, ProfileNode, ProfileSession, QueryProfile,
};
pub use span::{span, span_in, Span};
