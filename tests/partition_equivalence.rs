//! Partitioned-join equivalence: `method=partition` must return the
//! exact rowid-pair set of the R-tree traversal and of a nested-loop
//! oracle — with **zero duplicates and no dedup pass** (the two-layer
//! tile classes route every qualifying pair to exactly one tile), at
//! any DOP, under every combination of the streaming options.

use proptest::prelude::*;
use sdo_datagen::{counties, hotspot, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::{Geometry, Polygon, Rect};
use sdo_storage::Value;

fn load(db: &Database, table: &str, geoms: &[Geometry]) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in geoms.iter().enumerate() {
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
}

/// Session with `ta`/`tb` loaded; `indexed` controls R-tree creation.
fn session(a: &[Geometry], b: &[Geometry], indexed: bool) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load(&db, "ta", a);
    load(&db, "tb", b);
    if indexed {
        for t in ["ta", "tb"] {
            db.execute(&format!(
                "CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('tree_fanout=8')"
            ))
            .unwrap();
        }
    }
    db
}

/// Sorted pair list — duplicates are PRESERVED so tests can prove the
/// partition join never emits one (no hidden dedup in the harness).
fn pairs(db: &Database, sql: &str) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = db
        .execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_rowid().unwrap().as_u64(), r[1].as_rowid().unwrap().as_u64()))
        .collect();
    out.sort_unstable();
    out
}

fn assert_no_duplicates(set: &[(u64, u64)], ctx: &str) {
    assert!(set.windows(2).all(|w| w[0] != w[1]), "duplicate pair emitted: {ctx}");
}

fn brute(a: &[Geometry], b: &[Geometry], pred: &str) -> Vec<(u64, u64)> {
    #[allow(clippy::type_complexity)]
    let keep: Box<dyn Fn(&Geometry, &Geometry) -> bool> = match pred {
        "intersect" => Box::new(|ga, gb| {
            sdo_geom::relate::relate_any(ga, gb, &[sdo_geom::RelateMask::AnyInteract])
        }),
        "mask=touch+overlap" => Box::new(|ga, gb| {
            sdo_geom::relate::relate_any(
                ga,
                gb,
                &[sdo_geom::RelateMask::Touch, sdo_geom::RelateMask::Overlap],
            )
        }),
        "distance=2.5" => Box::new(|ga, gb| sdo_geom::within_distance(ga, gb, 2.5)),
        "FILTER" => Box::new(|ga, gb| ga.bbox().intersects(&gb.bbox())),
        _ => panic!("unknown pred {pred}"),
    };
    let mut out = Vec::new();
    for (i, ga) in a.iter().enumerate() {
        for (j, gb) in b.iter().enumerate() {
            if keep(ga, gb) {
                out.push((i as u64, j as u64));
            }
        }
    }
    out.sort_unstable();
    out
}

fn join_sql(pred: &str, dop: usize, opts: &str) -> String {
    format!(
        "SELECT rid1, rid2 FROM TABLE( \
         SPATIAL_JOIN('ta','geom','tb','geom','{pred}', {dop}, -1, '{opts}'))"
    )
}

#[test]
fn partition_equals_rtree_and_nested_loop_across_dops() {
    let a = counties::generate(70, &US_EXTENT, 910);
    let b = counties::generate(70, &US_EXTENT, 911);
    let db = session(&a, &b, true);
    for pred in ["intersect", "mask=touch+overlap", "distance=2.5", "FILTER"] {
        let oracle = brute(&a, &b, pred);
        assert!(!oracle.is_empty(), "{pred} must produce pairs");
        let rtree = pairs(&db, &join_sql(pred, 1, "method=rtree"));
        assert_eq!(rtree, oracle, "rtree vs oracle, pred={pred}");
        for dop in [1, 2, 4] {
            let part = pairs(&db, &join_sql(pred, dop, "method=partition"));
            assert_no_duplicates(&part, &format!("pred={pred} dop={dop}"));
            assert_eq!(part, oracle, "partition vs oracle, pred={pred} dop={dop}");
        }
    }
}

#[test]
fn partition_handles_hotspot_skew() {
    // A dense cluster overflows single tiles; occupancy-based task
    // splitting must not double-emit across the split ranges.
    let a = hotspot::generate(300, &US_EXTENT, 0.7, 42);
    let b = hotspot::generate(300, &US_EXTENT, 0.7, 43);
    let db = session(&a, &b, false);
    let oracle = brute(&a, &b, "intersect");
    for dop in [1, 4] {
        let got = pairs(&db, &join_sql("intersect", dop, "method=partition"));
        assert_no_duplicates(&got, &format!("dop={dop}"));
        assert_eq!(got, oracle, "dop={dop}");
    }
}

#[test]
fn partition_needs_no_index_and_rtree_does() {
    let a = counties::generate(50, &US_EXTENT, 920);
    let b = counties::generate(50, &US_EXTENT, 921);
    let db = session(&a, &b, false);
    let oracle = brute(&a, &b, "intersect");

    // The paper's tree join cannot run without indexes…
    assert!(db.execute(&join_sql("intersect", 2, "method=rtree")).is_err());
    // …the grid partition join can, and auto routes around the gap.
    assert_eq!(pairs(&db, &join_sql("intersect", 2, "method=partition")), oracle);
    assert_eq!(pairs(&db, &join_sql("intersect", 2, "method=auto")), oracle);
}

#[test]
fn auto_matches_fixed_methods_when_indexed() {
    let a = counties::generate(60, &US_EXTENT, 930);
    let b = counties::generate(60, &US_EXTENT, 931);
    let db = session(&a, &b, true);
    let oracle = brute(&a, &b, "distance=2.5");
    for dop in [1, 4] {
        assert_eq!(pairs(&db, &join_sql("distance=2.5", dop, "method=auto")), oracle, "dop={dop}");
    }
}

#[test]
fn option_combos_preserve_results() {
    let a = counties::generate(60, &US_EXTENT, 940);
    let b = counties::generate(60, &US_EXTENT, 941);
    let db = session(&a, &b, true);
    for pred in ["intersect", "mask=touch+overlap", "distance=2.5"] {
        let oracle = brute(&a, &b, pred);
        for method in ["rtree", "partition"] {
            for dop in [1, 2] {
                for opts in ["fetch_order=arrival", "candidates=7,cache=0", "cache=4"] {
                    let got = pairs(&db, &join_sql(pred, dop, &format!("method={method},{opts}")));
                    let ctx = format!("pred={pred} method={method} dop={dop} opts={opts}");
                    assert_no_duplicates(&got, &ctx);
                    assert_eq!(got, oracle, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn streaming_options_preserve_partition_results() {
    // Tiny candidate arrays, caches, and fetch orders exercise the
    // carry/secondary-filter streaming path of the partition join.
    let a = counties::generate(55, &US_EXTENT, 950);
    let b = counties::generate(55, &US_EXTENT, 951);
    let db = session(&a, &b, false);
    let oracle = brute(&a, &b, "intersect");
    for opts in [
        "method=partition,candidates=3",
        "method=partition,cache=0",
        "method=partition,fetch_order=arrival,candidates=7,cache=2",
        "method=partition,fetch_order=sorted,candidates=1",
    ] {
        assert_eq!(pairs(&db, &join_sql("intersect", 3, opts)), oracle, "opts={opts}");
    }
}

#[test]
fn partition_rejects_explicit_descent_level() {
    let a = counties::generate(20, &US_EXTENT, 960);
    let db = session(&a, &a, true);
    let err = db
        .execute(
            "SELECT rid1, rid2 FROM TABLE( \
             SPATIAL_JOIN('ta','geom','tb','geom','intersect', 2, 1, 'method=partition'))",
        )
        .unwrap_err();
    assert!(format!("{err}").contains("method=rtree"), "unexpected error: {err}");
}

#[test]
fn bad_method_and_threshold_are_plan_errors() {
    let a = counties::generate(10, &US_EXTENT, 970);
    let db = session(&a, &a, false);
    assert!(db.execute(&join_sql("intersect", 1, "method=bogus")).is_err());
    assert!(db.execute(&join_sql("intersect", 1, "split=many")).is_err());
}

fn arb_rect_poly() -> impl Strategy<Value = Geometry> {
    ((0.0f64..200.0), (0.0f64..200.0), (0.5f64..30.0), (0.5f64..30.0)).prop_map(|(x, y, w, h)| {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary rectangle sets, predicates and DOPs, the
    /// partition join equals the nested-loop oracle with zero
    /// duplicates — the exactly-once tile-class argument, empirically.
    #[test]
    fn partition_join_equals_brute_force(
        a in proptest::collection::vec(arb_rect_poly(), 1..50),
        b in proptest::collection::vec(arb_rect_poly(), 1..50),
        pred in prop_oneof![
            Just("intersect"),
            Just("distance=2.5"),
            Just("FILTER"),
        ],
        dop in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let db = session(&a, &b, false);
        let oracle = brute(&a, &b, pred);
        let got = pairs(&db, &join_sql(pred, dop, "method=partition"));
        prop_assert!(got.windows(2).all(|w| w[0] != w[1]), "duplicate pair emitted");
        prop_assert_eq!(got, oracle);
    }
}
