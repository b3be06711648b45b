//! Ablations for the design choices DESIGN.md §5 calls out.
//!
//! ```sh
//! cargo run --release -p sdo-bench --bin exp_ablations -- all
//! cargo run --release -p sdo-bench --bin exp_ablations -- pipeline-memory
//! cargo run --release -p sdo-bench --bin exp_ablations -- bulk-vs-insert
//! cargo run --release -p sdo-bench --bin exp_ablations -- sdo-level
//! cargo run --release -p sdo-bench --bin exp_ablations -- dop-sweep
//! ```

use parking_lot::RwLock;
use sdo_bench::*;
use sdo_core::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use sdo_datagen::{block_groups, counties, stars, SKY_EXTENT, US_EXTENT};
use sdo_geom::RelateMask;
use sdo_rtree::{RTree, RTreeParams};
use sdo_storage::{Counters, DataType, RowId, Schema, Table, Value};
use sdo_tablefunc::collect_all;
use std::sync::Arc;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "pipeline-memory" => pipeline_memory(),
        "bulk-vs-insert" => bulk_vs_insert(),
        "sdo-level" => sdo_level(),
        "dop-sweep" => dop_sweep(),
        "all" => {
            pipeline_memory();
            bulk_vs_insert();
            sdo_level();
            dop_sweep();
        }
        other => {
            eprintln!("unknown ablation '{other}'");
            std::process::exit(2);
        }
    }
}

/// Build one join side over county data.
fn county_side(n: usize, seed: u64) -> JoinSide {
    let geoms = counties::generate(n, &US_EXTENT, seed);
    let mut t =
        Table::new("T", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
    let mut items = Vec::new();
    for (i, g) in geoms.into_iter().enumerate() {
        let bb = g.bbox();
        let rid = t.insert(vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
        items.push((bb, rid));
    }
    JoinSide {
        table: Arc::new(RwLock::new(t)),
        column: 1,
        tree: Arc::new(RTree::bulk_load(items, RTreeParams::with_fanout(32))),
    }
}

fn clone_side(s: &JoinSide) -> JoinSide {
    JoinSide { table: Arc::clone(&s.table), column: s.column, tree: Arc::clone(&s.tree) }
}

/// §2 claim: pipelining bounds memory — peak live candidates stay at
/// the configured array size regardless of total result size.
fn pipeline_memory() {
    println!("== ablation: pipelined memory bound (paper §2) ==");
    let n = scaled(3230, 400);
    let side = county_side(n, 13);
    println!("{:>12} {:>12} {:>14}", "cand. array", "result rows", "peak live cands");
    for cap in [64usize, 512, 4096, 1 << 20] {
        let mut join = SpatialJoin::new(
            clone_side(&side),
            clone_side(&side),
            ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
            SpatialJoinConfig { candidate_array: cap, ..Default::default() },
            Arc::new(Counters::new()),
        );
        let rows = collect_all(&mut join, 256).unwrap();
        println!("{:>12} {:>12} {:>14}", cap, rows.len(), join.peak_candidates());
        assert!(join.peak_candidates() <= cap);
    }
    println!();
}

/// STR bulk load vs one-at-a-time insertion: creation time and query
/// work of the resulting trees.
fn bulk_vs_insert() {
    println!("== ablation: STR bulk load vs dynamic insertion ==");
    let n = scaled(230_000, 4_000);
    let geoms = stars::generate(n, &SKY_EXTENT, 3);
    let items: Vec<(sdo_geom::Rect, RowId)> =
        geoms.iter().enumerate().map(|(i, g)| (g.bbox(), RowId::new(i as u64))).collect();
    let params = RTreeParams::with_fanout(32);

    let (bulk, t_bulk) = timed(|| RTree::bulk_load(items.clone(), params));
    let (incr, t_incr) = timed(|| {
        let mut t = RTree::new(params);
        for (bb, rid) in &items {
            t.insert(*bb, *rid);
        }
        t
    });

    let probe_work = |tree: &RTree<RowId>| {
        let counters = Arc::new(Counters::new());
        let tree = tree.clone().with_counters(Arc::clone(&counters));
        for w in sdo_datagen::windows::rect_windows(200, &SKY_EXTENT, 0.05, 9) {
            let _ = tree.query_window(&w.bbox());
        }
        Counters::get(&counters.rtree_node_reads)
    };
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>18}",
        "build", "time", "height", "nodes", "probe node reads"
    );
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>18}",
        "STR",
        secs(t_bulk),
        bulk.height(),
        bulk.node_count(),
        probe_work(&bulk)
    );
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>18}",
        "insert",
        secs(t_incr),
        incr.height(),
        incr.node_count(),
        probe_work(&incr)
    );
    println!();
}

/// Quadtree tiling level: tile rows vs candidate precision.
fn sdo_level() {
    println!("== ablation: quadtree sdo_level ==");
    let n = scaled(230_000, 800);
    let geoms = block_groups::generate(n, &US_EXTENT, 5);
    let window = sdo_datagen::windows::rect_windows(1, &US_EXTENT, 0.08, 1).pop().unwrap();
    let truth = geoms.iter().filter(|g| sdo_geom::intersects(g, &window)).count();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "level", "tile rows", "build time", "candidates", "exact hits"
    );
    for level in [5u32, 6, 7, 8, 9] {
        let (idx, t) = timed(|| {
            let mut idx = sdo_quadtree::QuadtreeIndex::new(US_EXTENT, level);
            for (i, g) in geoms.iter().enumerate() {
                idx.insert(RowId::new(i as u64), g);
            }
            idx
        });
        let candidates = idx.query_window(&window);
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            level,
            idx.tile_entries(),
            secs(t),
            candidates.len(),
            truth
        );
    }
    println!("(deeper levels: more tile rows + build time, fewer false candidates)\n");
}

/// DOP beyond the paper's 4 processors.
fn dop_sweep() {
    println!("== ablation: join DOP sweep ==");
    let n = scaled(250_000, 4_000);
    let db = session();
    let geoms = stars::generate(n, &SKY_EXTENT, 8);
    load_table(&db, "s", &geoms);
    db.execute(
        "CREATE INDEX s_x ON s(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=32')",
    )
    .unwrap();
    let mut base = None;
    println!("{:>6} {:>12} {:>10} {:>10}", "dop", "join time", "wallclock", "work model");
    for dop in [1usize, 2, 4, 8] {
        let (c, t) = timed(|| {
            count(
                &db,
                &format!(
                    "SELECT COUNT(*) FROM TABLE( \
                     SPATIAL_JOIN('s','geom','s','geom','intersect', {dop}))"
                ),
            )
        });
        let b = base.get_or_insert((c, t));
        assert_eq!(b.0, c);
        let model = modeled_join_speedup(&geoms, dop);
        println!("{:>6} {:>12} {:>10} {:>9.2}x", dop, secs(t), speedup(b.1, t), model);
    }
    println!("(wall-clock is bounded by host cores; the work model is the partition quality)");
    println!();
}
