#![warn(missing_docs)]
//! # sdo-core — spatial processing using table functions
//!
//! The primary contribution of the ICDE 2003 paper, rebuilt on the
//! substrate crates:
//!
//! * [`index`] — the `SPATIAL_INDEX` indextype: R-tree and linear
//!   quadtree indexes behind the extensible-indexing
//!   [`sdo_dbms::DomainIndex`] seam, evaluating `SDO_RELATE`,
//!   `SDO_WITHIN_DISTANCE` and `SDO_FILTER` with a two-stage
//!   primary/secondary filter,
//! * [`create`] — serial and **parallel index creation** (paper §5):
//!   quadtree tessellation runs inside parallel table functions over a
//!   partitioned geometry cursor (Figure 2), R-tree creation loads MBRs
//!   and clusters subtrees in parallel, merging them at the end,
//! * [`join`] — the **`SPATIAL_JOIN` pipelined table function**
//!   (paper §4): a restartable two-R-tree traversal producing rowid
//!   pairs through `start`/`fetch`/`close`, with a memory-bounded
//!   candidate array, rowid-sorted geometry fetches, and subtree-pair
//!   decomposition for parallel execution (Figure 1),
//! * [`functions`] — registration of the indextype and the
//!   `SPATIAL_JOIN` / `SUBTREE_ROOT` / `TESSELLATE` table functions
//!   into a [`sdo_dbms::Database`] session.
//!
//! ## Quick start
//!
//! ```
//! use sdo_dbms::Database;
//!
//! let db = Database::new();
//! sdo_core::register_spatial(&db);
//!
//! db.execute("CREATE TABLE cities (name VARCHAR2, geom SDO_GEOMETRY)").unwrap();
//! db.execute("INSERT INTO cities VALUES ('a', \
//!             SDO_GEOMETRY('POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'))").unwrap();
//! db.execute("CREATE INDEX cities_sidx ON cities(geom) \
//!             INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=16')").unwrap();
//! let hits = db.execute(
//!     "SELECT COUNT(*) FROM cities WHERE \
//!      SDO_RELATE(geom, SDO_GEOMETRY('POINT (1 1)'), 'ANYINTERACT') = 'TRUE'",
//! ).unwrap();
//! assert_eq!(hits.count(), Some(1));
//! ```

pub mod create;
pub mod functions;
pub mod index;
pub mod join;
pub mod params;
pub mod partjoin;

pub use functions::register_spatial;
pub use index::{QuadtreeSpatialIndex, RTreeSpatialIndex, SpatialIndexType};
pub use join::{SpatialJoin, SpatialJoinConfig};
pub use params::SpatialIndexParams;
pub use partjoin::{PartitionJoin, PartitionState};
