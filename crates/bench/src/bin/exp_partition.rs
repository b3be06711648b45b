//! Partitioned join vs the index-based tree join on unindexed inputs.
//!
//! The paper's SPATIAL_JOIN presumes both sides carry an R-tree; when
//! they don't (staged loads, intermediate results), the honest cost of
//! the tree join is CREATE INDEX on both sides **plus** the query. The
//! two-layer grid partition join needs no index: it samples, tiles,
//! and joins directly, so its time-to-first-result wins whenever index
//! builds can't be amortized. `SPATIAL_JOIN` picks the engine from the
//! indexes: the unindexed tables below run the partition join, and the
//! same statement after CREATE INDEX runs the tree join.
//!
//! ```sh
//! cargo run --release -p sdo-bench --bin exp_partition
//! SDO_SCALE=0.0001 cargo run -p sdo-bench --bin exp_partition   # smoke test
//! ```

use sdo_bench::*;
use sdo_datagen::{counties, hotspot, US_EXTENT};
use sdo_dbms::Database;

fn main() {
    let n = scaled(150_000, 400);
    // The hotspot workload is output-bound — ~half of all hot-cluster
    // pairs genuinely overlap, so the result grows with the square of
    // the cluster size and the shared secondary filter dominates both
    // engines. Keep it small enough that the engine difference, not
    // the output, is what's measured.
    let n_hot = scaled(20_000, 300);
    println!("== partitioned join vs tree join, unindexed inputs ==");

    for (label, n, geoms) in [
        ("uniform counties", n, counties::generate(n, &US_EXTENT, 11)),
        ("hotspot 70%", n_hot, hotspot::generate(n_hot, &US_EXTENT, 0.7, 12)),
    ] {
        println!();
        println!("-- {label}: {n} x {n} self-join, no indexes --");
        let db = session();
        load_table(&db, "a", &geoms);
        load_table(&db, "b", &geoms);

        println!("{:>4} {:>14} {:>20} {:>10}", "dop", "partition", "rtree (build+join)", "speedup");
        for dop in [1usize, 2, 4, 8] {
            let (cp, tp) = timed(|| count(&db, &join_sql("intersect", dop)));
            // Tree join from cold: index both sides, query, drop.
            let (cr, tr) = timed(|| build_and_join(&db, "intersect", dop));
            assert_eq!(cp, cr, "the engines disagree");
            println!("{:>4} {:>14} {:>20} {:>10}", dop, secs(tp), secs(tr), speedup(tr, tp));
        }
    }

    // Primary-filter-only join ('FILTER' skips the exact geometry
    // refinement): end-to-end times above are dominated by the
    // secondary filter, which both engines share, so this is the
    // engine difference itself — grid build + per-tile kernels vs
    // index build + synchronized traversal.
    println!();
    println!("-- uniform counties: {n} x {n}, primary filter only ('FILTER') --");
    let geoms = counties::generate(n, &US_EXTENT, 11);
    let db = session();
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    println!("{:>4} {:>14} {:>20} {:>10}", "dop", "partition", "rtree (build+join)", "speedup");
    for dop in [1usize, 4, 8] {
        let (cp, tp) = timed(|| count(&db, &join_sql("FILTER", dop)));
        let (cr, tr) = timed(|| build_and_join(&db, "FILTER", dop));
        assert_eq!(cp, cr, "primary-only cardinality must match");
        println!("{:>4} {:>14} {:>20} {:>10}", dop, secs(tp), secs(tr), speedup(tr, tp));
    }

    println!();
    println!("-- EXPLAIN ANALYZE (partition, dop=4) --");
    let db = session();
    let geoms = counties::generate(scaled(20_000, 300), &US_EXTENT, 13);
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    count(&db, &join_sql("intersect", 4));
    report_last_profile(&db);
}

fn join_sql(interaction: &str, dop: usize) -> String {
    format!(
        "SELECT COUNT(*) FROM TABLE( \
         SPATIAL_JOIN('a','geom','b','geom','{interaction}', {dop}))"
    )
}

/// The tree join from cold: index both sides, join, drop the indexes
/// again so the next statement sees unindexed tables.
fn build_and_join(db: &Database, interaction: &str, dop: usize) -> i64 {
    for t in ["a", "b"] {
        db.execute(&format!(
            "CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=32')"
        ))
        .unwrap();
    }
    let n = count(db, &join_sql(interaction, dop));
    for t in ["a", "b"] {
        db.execute(&format!("DROP INDEX {t}_x")).unwrap();
    }
    n
}
