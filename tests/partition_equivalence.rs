//! Partitioned-join equivalence: whenever the two inputs do not both
//! carry R-trees, `SPATIAL_JOIN` runs the grid partition join, which
//! must return the exact rowid-pair set of the R-tree traversal and of
//! a nested-loop oracle — with **zero duplicates and no dedup pass**
//! (the two-layer tile classes route every qualifying pair to exactly
//! one tile), at any DOP.

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

/// The engine the last statement's `SPATIAL_JOIN` ran on.
fn engine(db: &Database) -> String {
    let profile = db.last_profile().unwrap();
    let chosen = profile.root.walk().into_iter().find_map(|(_, n)| {
        n.attrs.iter().find(|(k, _)| k == "method_chosen").map(|(_, v)| v.clone())
    });
    chosen.unwrap_or_default()
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

fn join_sql(pred: &str, dop: usize) -> String {
    format!(
        "SELECT rid1, rid2 FROM TABLE( \
         SPATIAL_JOIN('ta','geom','tb','geom','{pred}', {dop}))"
    )
}

#[test]
fn partition_equals_rtree_and_nested_loop_across_dops() {
    let a = counties::generate(70, &US_EXTENT, 910);
    let b = counties::generate(70, &US_EXTENT, 911);
    let indexed = session(&a, &b, true);
    // Unindexed twins of the same tables run the partition join.
    let twins = session(&a, &b, false);
    for pred in ["intersect", "mask=touch+overlap", "distance=2.5", "FILTER"] {
        let oracle = brute(&a, &b, pred);
        assert!(!oracle.is_empty(), "{pred} must produce pairs");
        let rtree = pairs(&indexed, &join_sql(pred, 1));
        assert_eq!(engine(&indexed), "rtree");
        assert_eq!(rtree, oracle, "rtree vs oracle, pred={pred}");
        for dop in [1, 2, 4] {
            let part = pairs(&twins, &join_sql(pred, dop));
            assert_eq!(engine(&twins), "partition");
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
        let got = pairs(&db, &join_sql("intersect", dop));
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

    // Without indexes the grid partition join answers…
    assert_eq!(pairs(&db, &join_sql("intersect", 2)), oracle);
    assert_eq!(engine(&db), "partition");
    // …and only the tree join, which needs both R-trees, can take
    // an explicit descent level.
    let level = "SELECT rid1, rid2 FROM TABLE( \
                 SPATIAL_JOIN('ta','geom','tb','geom','intersect', 2, 0))";
    assert!(db.execute(level).is_err());
    for t in ["ta", "tb"] {
        db.execute(&format!("CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX")).unwrap();
    }
    assert_eq!(pairs(&db, level), oracle);
    assert_eq!(engine(&db), "rtree");
}

#[test]
fn partition_rejects_explicit_descent_level() {
    let a = counties::generate(20, &US_EXTENT, 960);
    let db = session(&a, &a, true);
    // A quadtree on one side routes to the partition join, which has no
    // subtree levels to descend.
    db.execute("DROP INDEX tb_x").unwrap();
    db.execute(
        "CREATE INDEX tb_q ON tb(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('sdo_level=6')",
    )
    .unwrap();
    let err = db
        .execute(
            "SELECT rid1, rid2 FROM TABLE( \
             SPATIAL_JOIN('ta','geom','tb','geom','intersect', 2, 1))",
        )
        .unwrap_err();
    assert!(format!("{err}").contains("need R-tree indexes"), "unexpected error: {err}");
}

#[test]
fn bad_method_and_threshold_are_plan_errors() {
    let a = counties::generate(10, &US_EXTENT, 970);
    let db = session(&a, &a, false);
    for opt in ["method=bogus", "split=many"] {
        let sql = format!(
            "SELECT rid1, rid2 FROM TABLE( \
             SPATIAL_JOIN('ta','geom','tb','geom','intersect', 1, -1, '{opt}'))"
        );
        let err = db.execute(&sql).unwrap_err();
        assert!(err.to_string().contains("options argument was removed"), "{opt}: {err}");
    }
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
        let got = pairs(&db, &join_sql(pred, dop));
        prop_assert!(got.windows(2).all(|w| w[0] != w[1]), "duplicate pair emitted");
        prop_assert_eq!(got, oracle);
    }
}
