//! Using the crates as libraries: build R-trees and quadtrees directly,
//! run window/kNN queries, drive the pipelined spatial join by hand, run
//! a table function over an input cursor, and check the hand-driven join
//! against the parallel one that `SPATIAL_JOIN(…, dop)` runs in SQL.
//!
//! ```sh
//! cargo run --release --example library_api
//! ```

use parking_lot::RwLock;
use sdo_core::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::{Point, Rect, RelateMask};
use sdo_quadtree::QuadtreeIndex;
use sdo_rtree::{RTree, RTreeParams};
use sdo_storage::{Counters, DataType, RowId, Schema, Table, Value};
use sdo_tablefunc::pipeline::CursorFn;
use sdo_tablefunc::{collect_all, Row, TableFunction};
use std::sync::Arc;

fn main() {
    // --- data -----------------------------------------------------------
    let geoms = counties::generate(500, &US_EXTENT, 42);
    println!("generated {} county polygons", geoms.len());

    // --- R-tree: bulk load + queries -------------------------------------
    let items: Vec<(Rect, usize)> = geoms.iter().enumerate().map(|(i, g)| (g.bbox(), i)).collect();
    let rtree = RTree::bulk_load(items, RTreeParams::with_fanout(32));
    println!(
        "R-tree: {} items, height {}, {} nodes",
        rtree.len(),
        rtree.height(),
        rtree.node_count()
    );
    let window = Rect::new(-105.0, 32.0, -95.0, 42.0);
    println!("  window candidates: {}", rtree.query_window(&window).len());
    let knn = rtree.query_knn(&Point::new(-100.0, 38.0), 5);
    println!(
        "  5 nearest MBRs to (-100, 38): items {:?}",
        knn.iter().map(|(_, _, i)| *i).collect::<Vec<_>>()
    );

    // --- quadtree: tessellation + window query ---------------------------
    let mut qt = QuadtreeIndex::new(US_EXTENT, 7);
    for (i, g) in geoms.iter().enumerate() {
        qt.insert(RowId::new(i as u64), g);
    }
    println!(
        "quadtree: {} tile rows; county 0's tiles hold {} candidates",
        qt.tile_entries(),
        qt.query_window(&geoms[0]).len()
    );

    // --- pipelined spatial join, driven manually -------------------------
    let mut table =
        Table::new("C", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
    let mut join_items = Vec::new();
    for (i, g) in geoms.iter().enumerate() {
        let bb = g.bbox();
        let rid = table.insert(vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
        join_items.push((bb, rid));
    }
    let table = Arc::new(RwLock::new(table));
    let tree = Arc::new(RTree::bulk_load(join_items, RTreeParams::with_fanout(32)));
    let side = || JoinSide { table: Arc::clone(&table), column: 1, tree: Arc::clone(&tree) };
    let mut join = SpatialJoin::new(
        side(),
        side(),
        ExactPredicate::Masks(vec![RelateMask::Touch]),
        SpatialJoinConfig::default(),
        Arc::new(Counters::new()),
    );
    // drive start/fetch/close by hand, like the paper's §4.2 loop
    join.start().unwrap();
    let mut touching_pairs = 0usize;
    loop {
        let batch = join.fetch(256).unwrap();
        if batch.is_empty() {
            break;
        }
        touching_pairs += batch.len();
    }
    join.close();
    println!("TOUCH self-join (pipelined, 256-row fetches): {touching_pairs} pairs");

    // --- the parallel join, through SQL ----------------------------------
    // The same self-join at dop 4: four slaves pull subtree-pair tasks
    // from one shared work-stealing queue, splitting oversized ones.
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE c (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in geoms.iter().enumerate() {
        db.insert_row("c", vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
    db.execute(
        "CREATE INDEX c_sidx ON c(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('tree_fanout=32')",
    )
    .unwrap();
    let parallel_pairs = db
        .execute(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('c', 'geom', 'c', 'geom', 'mask=TOUCH', 4))",
        )
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(parallel_pairs as usize, touching_pairs);
    println!(
        "TOUCH self-join through SPATIAL_JOIN(..., 4): {parallel_pairs} pairs, parallel == serial ✓"
    );

    // --- a table function over an input cursor ---------------------------
    let rows: Vec<Row> = geoms.iter().map(|g| vec![Value::geometry(g.clone())]).collect();
    let mut areas = CursorFn::new(sdo_tablefunc::VecSource::new(rows), |row: Row| {
        let g = row[0].as_geometry().unwrap();
        Ok(vec![vec![Value::Double(g.area())]])
    });
    let total: f64 =
        collect_all(&mut areas, 128).unwrap().iter().map(|r| r[0].as_double().unwrap()).sum();
    println!(
        "total county area via a CursorFn over {} rows: {total:.1} (US extent area {:.1})",
        geoms.len(),
        US_EXTENT.area()
    );
}
