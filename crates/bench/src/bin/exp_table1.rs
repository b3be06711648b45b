//! **Table 1** — Counties self-join: nested-loop vs spatial-index join.
//!
//! Paper (Oracle10i alpha, Sun 400 MHz 4-CPU):
//!
//! ```text
//! Distance  Result   Nested   Spatial Index
//!           Size     Loop     Join
//! 0         ...      ...s     144.7s
//! d1        ...      ...s     221.9s
//! d2        ...      ...s     271.8s
//! d3        ...      ...s     331.4s
//! "Spatial-index Join is 33-55% faster"
//! ```
//!
//! We reproduce the *shape*: the table-function join beats the
//! nested-loop join at every distance, and the result size (and both
//! runtimes) grow with distance.
//!
//! Run with `SDO_SCALE=1.0` for the full 3230 counties.

use sdo_bench::*;
use sdo_datagen::{counties, PAPER_COUNTIES, US_EXTENT};

fn main() {
    let profile_flag = std::env::args().any(|a| a == "--profile");
    let n = scaled(PAPER_COUNTIES, 200);
    println!("== Table 1: counties self-join (n = {n}, SDO_SCALE = {}) ==\n", scale());
    let db = session();
    let geoms = counties::generate(n, &US_EXTENT, 2003);
    // Mean county side length controls which distances add neighbours.
    let mean_side = (US_EXTENT.width() * US_EXTENT.height() / n as f64).sqrt();
    load_table(&db, "counties", &geoms);
    let (_, t_index) = timed(|| {
        db.execute(
            "CREATE INDEX counties_sidx ON counties(geom) \
             INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=32')",
        )
        .unwrap()
    });
    println!("index creation: {}\n", secs(t_index));

    // Wall-clock on an in-memory substrate understates the paper's
    // disk-bound gap, so logical reads (row fetches + index node
    // visits) are reported too: they are the machine-independent cost
    // the paper's buffer-cache-miss-bound timings track.
    println!(
        "{:>10} {:>10} {:>13} {:>13} {:>9} {:>12} {:>12}",
        "distance", "result", "nested-loop", "spatial-join", "gain", "nl reads", "join reads"
    );
    let logical_reads = |c: &sdo_storage::Counters| {
        sdo_storage::Counters::get(&c.row_fetches) + sdo_storage::Counters::get(&c.rtree_node_reads)
    };
    for frac in [0.0, 0.5, 1.0, 2.0] {
        let d = mean_side * frac;
        let (nl_pred, tf_pred) = if d == 0.0 {
            (
                "SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'".to_string(),
                "'intersect'".to_string(),
            )
        } else {
            (
                format!("SDO_WITHIN_DISTANCE(a.geom, b.geom, {d}) = 'TRUE'"),
                format!("'distance={d}'"),
            )
        };
        db.counters().reset();
        let (nl, t_nl) = timed(|| {
            count(&db, &format!("SELECT COUNT(*) FROM counties a, counties b WHERE {nl_pred}"))
        });
        let nl_reads = logical_reads(db.counters());
        db.counters().reset();
        let (tf, t_tf) = timed(|| {
            count(
                &db,
                &format!(
                    "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
                     'counties','geom','counties','geom',{tf_pred}))"
                ),
            )
        });
        let tf_reads = logical_reads(db.counters());
        assert_eq!(nl, tf, "strategies disagree at distance {d}");
        println!(
            "{:>10.3} {:>10} {:>13} {:>13} {:>9} {:>12} {:>12}",
            d,
            nl,
            secs(t_nl),
            secs(t_tf),
            speedup(t_nl, t_tf),
            nl_reads,
            tf_reads
        );
    }
    println!("\npaper claim: spatial-index join 33-55% faster than nested loop");

    // `--profile`: re-run the intersect join and dump its operator
    // profile (text, or JSON with SDO_PROFILE=json).
    if profile_flag {
        println!("\n== operator profile: parallel spatial join (dop=2) ==");
        let _ = count(
            &db,
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
             'counties','geom','counties','geom','intersect', 2))",
        );
        report_last_profile(&db);
    }
}
