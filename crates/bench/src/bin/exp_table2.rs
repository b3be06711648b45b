//! **Table 2** (and **Figure 1**) — star-catalog self-join scaling.
//!
//! Paper:
//!
//! ```text
//! Data     Result  Nested   Index    Index
//! size     size    loop     Join(1)  Join(2)
//! 25       ...     6.2s*    6.2s     3.47s
//! ...
//! 250K     ...     5024s    864s     676s
//! "Index-based join using table functions is nearly 6 times faster";
//! "gains from parallel processing are nearly 50%"
//! ```
//!
//! We reproduce the shape: at tiny sizes nested loop ≈ index join; as
//! size grows the index join wins by an increasing factor, and DOP=2
//! improves on DOP=1. (Parallel gain tracks the host's core count.)
//!
//! `--figure1` additionally prints the subtree-pair decomposition of
//! the two indexes (Figure 1) and verifies it covers the full join.
//!
//! Run with `SDO_SCALE=1.0` for the full 250K stars.

use sdo_bench::*;
use sdo_datagen::{stars, PAPER_STARS, SKY_EXTENT};
use sdo_storage::Counters;

fn main() {
    let figure1 = std::env::args().any(|a| a == "--figure1");
    let max = scaled(PAPER_STARS, 2_000);
    let all = stars::generate(max, &SKY_EXTENT, 1977);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("== Table 2: star self-join scaling (max = {max}, SDO_SCALE = {}) ==", scale());
    println!(
        "host cores: {cores} — wall-clock parallel gains are bounded by the host; \
         'model(2)' is the work-partition speedup\n(total secondary-filter work / \
         critical-path slave work), the machine-independent analogue of the paper's gain\n"
    );

    // Paper sizes: 25 up to 250K by subset selection; we sweep powers
    // of ~10 from 25 to max.
    let mut sizes = vec![25usize];
    while *sizes.last().unwrap() * 10 <= max {
        sizes.push(sizes.last().unwrap() * 10);
    }
    if *sizes.last().unwrap() != max {
        sizes.push(max);
    }

    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9}",
        "size", "result", "nested", "join(1)", "join(2)", "nl/j1", "j1/j2", "model(2)", "rd nl/j1"
    );
    for &size in &sizes {
        let subset = &all[..size.min(all.len())];
        let db = session();
        load_table(&db, "s", subset);
        db.execute(
            "CREATE INDEX s_sidx ON s(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=32')",
        )
        .unwrap();

        // Nested loop becomes prohibitive at scale — exactly the
        // paper's point; cap it like they capped their patience.
        let nl_cap = 30_000;
        let logical_reads =
            |c: &Counters| Counters::get(&c.row_fetches) + Counters::get(&c.rtree_node_reads);
        db.counters().reset();
        let (nl_count, t_nl) = if size <= nl_cap {
            let (c, t) = timed(|| {
                count(
                    &db,
                    "SELECT COUNT(*) FROM s a, s b \
                     WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'",
                )
            });
            (Some(c), Some(t))
        } else {
            (None, None)
        };
        let nl_reads = logical_reads(db.counters());

        // Two runs, keep the faster: the first run of a large join pays
        // one-time allocator growth that would skew the comparison.
        let run = |dop: usize| {
            let sql = format!(
                "SELECT COUNT(*) FROM TABLE( \
                 SPATIAL_JOIN('s','geom','s','geom','intersect', {dop}))"
            );
            let (c1, t1) = timed(|| count(&db, &sql));
            let (c2, t2) = timed(|| count(&db, &sql));
            assert_eq!(c1, c2);
            (c1, t1.min(t2))
        };
        let (c1, t1) = run(1);
        // Separate single execution for the logical-read measurement
        // (the timing runs above execute twice).
        db.counters().reset();
        let _ = count(
            &db,
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('s','geom','s','geom','intersect', 1))",
        );
        let j1_reads = logical_reads(db.counters());
        let (c2, t2) = run(2);
        assert_eq!(c1, c2);
        if let Some(nc) = nl_count {
            assert_eq!(nc, c1, "nested loop disagrees at size {size}");
        }
        let model2 = modeled_join_speedup(subset, 2);
        let reads_ratio = if nl_count.is_some() {
            format!("{:.1}x", nl_reads as f64 / j1_reads.max(1) as f64)
        } else {
            "-".into()
        };
        println!(
            "{:>9} {:>10} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8.2}x {:>9}",
            size,
            c1,
            t_nl.map(secs).unwrap_or_else(|| "(skipped)".into()),
            secs(t1),
            secs(t2),
            t_nl.map(|t| speedup(t, t1)).unwrap_or_else(|| "-".into()),
            speedup(t1, t2),
            model2,
            reads_ratio,
        );
    }

    if figure1 {
        figure1_decomposition(&all);
    }
    println!("\npaper claims: index join ~6x faster than nested loop at scale;");
    println!("parallel gains ~50% on their 4-CPU box (here: bounded by host cores)");
}

/// Figure 1: join pairs of subtrees for parallelism.
fn figure1_decomposition(all: &[sdo_geom::Geometry]) {
    println!("\n== Figure 1: subtree-pair decomposition ==");
    let db = session();
    let n = all.len().min(5_000);
    load_table(&db, "f", &all[..n]);
    db.execute(
        "CREATE INDEX f_sidx ON f(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('tree_fanout=16')",
    )
    .unwrap();
    let serial =
        count(&db, "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('f','geom','f','geom','intersect'))");
    for level in [0u32, 1, 2] {
        let pairs = db
            .execute(&format!(
                "SELECT COUNT(*) FROM TABLE(SUBTREE_PAIRS('f_sidx','f_sidx',{level},'intersect'))"
            ))
            .unwrap()
            .count()
            .unwrap();
        let via_pairs = count(
            &db,
            &format!(
                "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
                 CURSOR(SELECT lnode, rnode FROM TABLE( \
                 SUBTREE_PAIRS('f_sidx','f_sidx',{level},'intersect'))), \
                 'f','geom','f','geom','intersect', 2))"
            ),
        );
        println!(
            "  descend {level} level(s): {pairs:>5} subtree-pair tasks -> {via_pairs} rows \
             (serial: {serial})"
        );
        assert_eq!(via_pairs, serial);
    }
}
