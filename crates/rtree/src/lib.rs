#![warn(missing_docs)]
//! # sdo-rtree — a from-scratch R-tree
//!
//! The R-tree index underneath Oracle Spatial's `spatial_index`
//! indextype, rebuilt from the literature the paper cites: Guttman's
//! original dynamic structure and quadratic split \[8\], STR bulk
//! loading (Leutenegger et al. \[13\]), and the synchronized
//! tree-matching spatial join of Brinkhoff/Huang et al. \[10\].
//!
//! Highlights:
//!
//! * generic payloads (`RTree<T>`; the spatial layer stores `RowId`s),
//! * dynamic inserts with Guttman's quadratic split
//!   ([`split::guttman_split`]), deletes with tree condensation,
//! * [`bulk`] — Sort-Tile-Recursive packing plus [`RTree::merge`],
//!   the "build subtrees in parallel, merge at the end" primitive the
//!   paper's parallel index creation uses,
//! * [`query`] — window, within-distance and k-nearest-neighbour scans,
//! * [`kernel`] — the primary filter's MBR kernels: branch-free
//!   64-wide chunk scans over a structure-of-arrays node view
//!   ([`SoaMbrs`]) and a sort + forward plane-sweep for node pairs
//!   whose entry-count product reaches [`SWEEP_THRESHOLD`]; node-pair
//!   size alone picks between the two,
//! * [`join::JoinCursor`] — a *restartable* synchronized traversal of
//!   two R-trees producing candidate pairs in batches, built to sit
//!   inside a pipelined table function's `fetch` loop (the paper's §4.2
//!   stack-based resumable join),
//! * [`RTree::subtree_roots`] — the roots at a given level, feeding the
//!   paper's `subtree_root(index, level)` table function for parallel
//!   joins.

pub mod bulk;
pub mod join;
pub mod kernel;
pub mod node;
pub mod query;
pub mod split;
pub mod tree;
pub mod validate;

pub use join::{JoinCursor, JoinPredicate, KernelStats};
pub use kernel::{SoaMbrs, SWEEP_THRESHOLD};
pub use node::{Entry, Node, NodeId};
pub use tree::{RTree, RTreeParams, SubtreeRef};

/// The ISA the geometry kernels dispatch on, re-exported for
/// benchmark host records.
pub use sdo_geom::simd::dispatched;

/// Default maximum entries per node (Oracle's default R-tree fanout is
/// in the mid-tens; 32 keeps trees shallow at paper-scale cardinality).
pub const DEFAULT_FANOUT: usize = 32;
