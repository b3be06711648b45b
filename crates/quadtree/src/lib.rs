#![warn(missing_docs)]
//! # sdo-quadtree — the linear quadtree index
//!
//! Oracle Spatial's first spatial index type, rebuilt: "The Linear
//! Quadtree ... computes tile approximations for data geometries at
//! index creation time and creates B-tree indexes on the encoded tile
//! approximations" (paper §1).
//!
//! * [`tile`] — fixed-level tiles over a world extent, encoded as
//!   Morton (Z-order) codes so tile order is B-tree order,
//! * [`tessellate`](mod@tessellate) — cover a geometry with the level-`L` tiles it
//!   interacts with, classifying each tile as *interior* (fully inside
//!   an areal geometry) or *boundary*; tessellation is the expensive
//!   step the paper parallelizes with table functions (§5, Figure 2),
//! * [`index::QuadtreeIndex`] — `(tile_code, rowid)` entries in a
//!   from-scratch B+tree ([`sdo_storage::BTree`]) with interior flags;
//!   window queries decompose the window into tiles and probe the
//!   B-tree; interior tiles yield *definite* hits that skip the
//!   secondary filter (the interior-approximation optimization of the
//!   authors' companion paper).
//!
//! The quadtree serves window queries and parallel index creation.
//! Joins over quadtree-indexed tables run `sdo-core`'s grid partition
//! join, which reads the base tables and needs no index.

pub mod index;
pub mod tessellate;
pub mod tile;

pub use index::{Candidate, QuadtreeIndex};
pub use tessellate::{tessellate, TileApprox};
pub use tile::{Tile, TileCode};

/// Default tiling level (Oracle's `sdo_level`); 2^8 = 256 tiles per
/// axis is a reasonable default for country-scale data.
pub const DEFAULT_LEVEL: u32 = 8;

/// Maximum supported tiling level (Morton codes fit u64: 2 bits/level).
pub const MAX_LEVEL: u32 = 31;
