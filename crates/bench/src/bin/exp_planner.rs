//! Cost-based planner: does the planner's pick track the best static
//! plan?
//!
//! ```sh
//! cargo run --release -p sdo-bench --bin exp_planner
//! cargo run --release -p sdo-bench --bin exp_planner -- --quick   # CI smoke
//! SDO_SCALE=0.002 cargo run -p sdo-bench --bin exp_planner        # tiny
//! ```
//!
//! Three workloads, each with its static alternative timed next to
//! the planner's pick (DESIGN.md "Cost-based planning"):
//!
//! * **unindexed primary-filter join** — no indexes exist, so
//!   `SPATIAL_JOIN` runs the grid partition join; the static
//!   alternative is the honest tree-join cost, CREATE INDEX on both
//!   sides plus the query (the `'FILTER'` interaction isolates the
//!   engines — no shared exact secondary filter to dilute the gap).
//!   On indexed inputs there is no choice left to measure: two R-trees
//!   always run the tree join.
//! * **window filter, selective** — a small window on an analyzed,
//!   indexed table: the planner answers it by index scan, fetching
//!   only the index's hits; the static alternative (functional scan,
//!   timed on an index-less twin of the same data) reads every row and
//!   pays an exact test per row.
//! * **top-k by distance** — `ORDER BY SDO_DISTANCE(...) LIMIT k`
//!   pushes into the R-tree best-first search; the static sort plan
//!   (forced with a second order key) ranks the whole table. Also
//!   reports `peak_resident_rows` for both.
//!
//! Every comparison first asserts the plans return identical results.

use sdo_bench::*;
use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use std::time::Duration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    if quick {
        // CI smoke: fixed tiny sizes regardless of SDO_SCALE.
        run(2_000, 2_000, true);
    } else {
        run(scaled(60_000, 2_000), scaled(60_000, 2_000), false);
    }
}

/// Best-of-3 wall time; the closure must be deterministic.
fn best3<T: Eq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..3 {
        let (o, t) = timed(&mut f);
        assert_eq!(o, out, "non-deterministic benchmark result");
        out = o;
        best = best.min(t);
    }
    (out, best)
}

fn join_sql(interaction: &str, dop: usize) -> String {
    format!(
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
         'a', 'geom', 'b', 'geom', '{interaction}', {dop}))"
    )
}

/// `method_chosen` attribute of the last profiled statement.
fn chosen(db: &Database) -> String {
    db.last_profile()
        .and_then(|p| {
            p.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").and_then(|op| {
                op.attrs.iter().find(|(k, _)| k == "method_chosen").map(|(_, v)| v.clone())
            })
        })
        .unwrap_or_default()
}

fn peak_resident(db: &Database) -> u64 {
    db.last_profile().and_then(|p| p.root.metric("peak_resident_rows")).unwrap_or(0)
}

fn report(label: &str, picked_t: Duration, statics: &[(&str, Duration)], quick: bool) {
    let best = statics.iter().map(|(_, t)| *t).min().unwrap();
    let worst = statics.iter().map(|(_, t)| *t).max().unwrap();
    let vs_best = picked_t.as_secs_f64() / best.as_secs_f64().max(1e-12);
    let vs_worst = worst.as_secs_f64() / picked_t.as_secs_f64().max(1e-12);
    println!(
        "   planner {} | vs best static {:.2}x | {:.2}x faster than worst",
        secs(picked_t),
        vs_best,
        vs_worst
    );
    if !quick {
        assert!(
            vs_best <= 1.15,
            "{label}: the planner ({picked_t:?}) must stay within 15% of the best static ({best:?})"
        );
    }
}

fn run(n_uniform: usize, n_topk: usize, quick: bool) {
    println!("== exp_planner: cost-picked plans vs static alternatives ==");

    // -- workload 1: unindexed primary-filter join --------------------------
    println!();
    println!("-- unindexed primary-filter join ({n_uniform} x {n_uniform}, 'FILTER', dop=4) --");
    let geoms = counties::generate(n_uniform, &US_EXTENT, 32);
    let db = session();
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    let (c_pt, t_pt) = best3(|| count(&db, &join_sql("FILTER", 4)));
    let pick = chosen(&db);
    // The honest static tree-join cost on unindexed inputs: build both
    // indexes, query, drop the session. One shot (index builds are not
    // amortizable here — that is the point).
    let (c_ix, t_ix) = timed(|| {
        let db2 = session();
        load_table(&db2, "a", &geoms);
        load_table(&db2, "b", &geoms);
        for t in ["a", "b"] {
            db2.execute(&format!("CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX"))
                .unwrap();
        }
        count(&db2, &join_sql("FILTER", 4))
    });
    assert_eq!(c_pt, c_ix, "engines disagree");
    println!("   partition {}  rtree(build+join) {}  picked '{pick}'", secs(t_pt), secs(t_ix));
    report("unindexed-filter", t_pt, &[("partition", t_pt), ("rtree+build", t_ix)], quick);
    assert_eq!(pick, "partition", "unindexed inputs must go straight to the grid partition");

    // -- workload 2: selective window, index vs functional ------------------
    println!();
    println!("-- selective window filter, indexed vs functional ({n_uniform} rows) --");
    let geoms = counties::generate(n_uniform, &US_EXTENT, 33);
    let db = session();
    load_table(&db, "t", &geoms);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("ANALYZE TABLE t").unwrap();
    // Twin without an index: the functional-scan static plan.
    let twin = session();
    load_table(&twin, "t", &geoms);
    let window = "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, \
                  SDO_GEOMETRY('POLYGON ((-104 38, -100 38, -100 41, -104 41, -104 38))'), \
                  'ANYINTERACT') = 'TRUE'";
    let (c_auto, t_auto) = best3(|| count(&db, window));
    let (c_fn, t_fn) = best3(|| count(&twin, window));
    assert_eq!(c_auto, c_fn, "filter paths disagree");
    println!("   index scan (planner) {}  functional scan {}", secs(t_auto), secs(t_fn));
    report("selective-window", t_auto, &[("index scan", t_auto), ("functional", t_fn)], quick);

    // -- workload 3: top-k by distance --------------------------------------
    println!();
    println!("-- top-k by distance, kNN pushdown vs full sort ({n_topk} rows, k=10) --");
    let geoms = counties::generate(n_topk, &US_EXTENT, 34);
    let db = session();
    load_table(&db, "t", &geoms);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let knn_q = "SELECT id FROM t \
                 ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)) LIMIT 10";
    // A second order key defeats the pushdown: the static sort plan.
    let sort_q = "SELECT id FROM t \
                  ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)), id LIMIT 10";
    let ids = |db: &Database, sql: &str| -> Vec<i64> {
        db.execute(sql).unwrap().rows.iter().map(|r| r[0].as_integer().unwrap()).collect()
    };
    let (r_knn, t_knn) = best3(|| ids(&db, knn_q));
    let res_knn = peak_resident(&db);
    let (r_sort, t_sort) = best3(|| ids(&db, sort_q));
    let res_sort = peak_resident(&db);
    assert_eq!(r_knn, r_sort, "pushdown changed the top-k order");
    println!(
        "   knn pushdown {} ({res_knn} resident rows)  full sort {} ({res_sort} resident rows)",
        secs(t_knn),
        secs(t_sort)
    );
    report("top-k", t_knn, &[("knn", t_knn), ("sort", t_sort)], quick);
    assert!(
        res_knn * 10 <= res_sort,
        "kNN pushdown must hold >=10x fewer resident rows: {res_knn} vs {res_sort}"
    );

    println!();
    println!("OK: the planner tracked the best static plan on all workloads");
}
