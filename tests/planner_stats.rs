//! The cost-based planner end to end: ANALYZE statistics persisted
//! through checkpoint/WAL and reopen, plain EXPLAIN without execution,
//! plan-choice equivalence across access paths, kNN/ORDER-BY
//! pushdown, and the EXPLAIN output contract the CI golden check
//! relies on.

use proptest::prelude::*;
use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::relate::relate_any;
use sdo_geom::{Geometry, Point, RelateMask};
use sdo_storage::Value;

fn session() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db
}

fn load_counties(db: &Database, table: &str, n: usize, seed: u64) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in counties::generate(n, &US_EXTENT, seed).into_iter().enumerate() {
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
}

/// Run `EXPLAIN <sql>` and join the plan lines.
fn explain(db: &Database, sql: &str) -> String {
    let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    r.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect::<Vec<_>>().join("\n")
}

fn sorted_ids(db: &Database, sql: &str) -> Vec<i64> {
    let mut ids: Vec<i64> =
        db.execute(sql).unwrap().rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    ids.sort_unstable();
    ids
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sdo-planner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn reopen(dir: &std::path::Path) -> Database {
    let db = Database::open(dir).unwrap();
    sdo_core::register_spatial(&db);
    db.recover_indexes().unwrap();
    db
}

const WINDOW_Q: &str = "SELECT id FROM t WHERE \
     SDO_RELATE(geom, SDO_GEOMETRY('POLYGON ((-110 30, -90 30, -90 45, -110 45, -110 30))'), \
     'ANYINTERACT') = 'TRUE'";

const WITHIN_Q: &str = "SELECT id FROM t WHERE \
     SDO_WITHIN_DISTANCE(geom, SDO_GEOMETRY('POINT (-100 38)'), 'distance=5') = 'TRUE'";

const JOIN_Q: &str = "SELECT COUNT(*) FROM t a, t b \
     WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'";

// -- persisted statistics ---------------------------------------------------

/// ANALYZE estimates survive a checkpoint + reopen bit-for-bit: the
/// EXPLAIN text (estimated rows, costs, and the histogram provenance
/// notes) is identical before and after.
#[test]
fn analyze_survives_checkpoint_and_reopen() {
    let dir = fresh_dir("ckpt");
    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    load_counties(&db, "t", 120, 7);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();

    assert!(explain(&db, WINDOW_Q).contains("stats: none"), "fresh table has no stats");
    db.execute("ANALYZE TABLE t").unwrap();

    let before = [explain(&db, WINDOW_Q), explain(&db, WITHIN_Q), explain(&db, JOIN_Q)];
    assert!(before[0].contains("histogram"), "window estimate uses the histogram:\n{}", before[0]);
    assert!(before[1].contains("histogram"), "distance estimate uses the histogram");

    db.checkpoint().unwrap();
    drop(db);

    let db = reopen(&dir);
    let after = [explain(&db, WINDOW_Q), explain(&db, WITHIN_Q), explain(&db, JOIN_Q)];
    assert_eq!(before, after, "estimates must be identical across checkpoint+reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a checkpoint the stats come back through WAL replay alone.
#[test]
fn analyze_survives_wal_replay() {
    let dir = fresh_dir("wal");
    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    load_counties(&db, "t", 80, 8);
    db.execute("ANALYZE TABLE t").unwrap();
    let before = explain(&db, WINDOW_Q);
    assert!(before.contains("histogram"), "{before}");
    drop(db); // no checkpoint: recovery must replay the ANALYZE record

    let db = reopen(&dir);
    assert_eq!(before, explain(&db, WINDOW_Q));
    let _ = std::fs::remove_dir_all(&dir);
}

/// DML after ANALYZE ages the statistics: once churn passes the
/// staleness threshold the planner still uses them but flags it.
#[test]
fn dml_churn_marks_stats_stale() {
    let db = session();
    load_counties(&db, "t", 100, 9);
    db.execute("ANALYZE TABLE t").unwrap();
    assert!(!explain(&db, WINDOW_Q).contains("STALE"));

    for (i, g) in counties::generate(80, &US_EXTENT, 10).into_iter().enumerate() {
        db.insert_row("t", vec![Value::Integer(1000 + i as i64), Value::geometry(g)]).unwrap();
    }
    let p = explain(&db, WINDOW_Q);
    assert!(p.contains("STALE"), "heavy churn must be flagged: {p}");

    db.execute("ANALYZE TABLE t").unwrap();
    assert!(!explain(&db, WINDOW_Q).contains("STALE"), "re-ANALYZE clears staleness");
}

// -- plain EXPLAIN ----------------------------------------------------------

/// `EXPLAIN` costs the statement without instantiating table functions
/// or opening CURSOR arguments: a join that cannot execute (a forced
/// descent level, no index) still EXPLAINs.
#[test]
fn explain_does_not_instantiate_table_functions() {
    let db = session();
    load_counties(&db, "a", 30, 11);
    load_counties(&db, "b", 30, 12);
    let sql = "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
               'a', 'geom', 'b', 'geom', 'intersect', 1, 0))";
    assert!(db.execute(sql).is_err(), "a descent level without indexes cannot run");
    let p = explain(&db, sql);
    assert!(p.contains("TABLE FUNCTION SCAN"), "{p}");
    assert!(p.contains("cost="), "{p}");
}

// -- plan-choice equivalence ------------------------------------------------

/// Every access path the planner can pick returns the rows brute
/// force gives: indexed vs. unindexed tables (index prefilter vs.
/// functional evaluation, probe vs. build join), analyzed vs.
/// unanalyzed statistics.
#[test]
fn all_access_paths_agree() {
    let rows: Vec<(i64, Geometry)> = counties::generate(60, &US_EXTENT, 13)
        .into_iter()
        .enumerate()
        .map(|(i, g)| (i as i64, g))
        .collect();
    let window =
        sdo_geom::wkt::parse_wkt("POLYGON ((-110 30, -90 30, -90 45, -110 45, -110 30))").unwrap();
    let point = Geometry::Point(Point::new(-100.0, 38.0));
    let overlap = RelateMask::parse_list("overlap").unwrap();
    let ids_where = |keep: &dyn Fn(&Geometry) -> bool| -> Vec<i64> {
        rows.iter().filter(|(_, g)| keep(g)).map(|(id, _)| *id).collect()
    };
    let mut join_ids: Vec<i64> = rows
        .iter()
        .flat_map(|(a, ga)| {
            rows.iter().filter(|(_, gb)| relate_any(ga, gb, &overlap)).map(move |_| *a)
        })
        .collect();
    join_ids.sort_unstable();
    let cases = [
        (WINDOW_Q, ids_where(&|g| relate_any(g, &window, &[RelateMask::AnyInteract]))),
        (WITHIN_Q, ids_where(&|g| sdo_geom::within_distance(g, &point, 5.0))),
        (
            "SELECT a.id FROM t a, t b WHERE SDO_RELATE(a.geom, b.geom, 'overlap') = 'TRUE'",
            join_ids,
        ),
    ];
    for indexed in [false, true] {
        for analyzed in [false, true] {
            let db = session();
            load_counties(&db, "t", 60, 13);
            if indexed {
                db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
            }
            if analyzed {
                db.execute("ANALYZE TABLE t").unwrap();
            }
            for (q, want) in &cases {
                assert_eq!(
                    &sorted_ids(&db, q),
                    want,
                    "{q} diverged from brute force (indexed={indexed}, analyzed={analyzed})"
                );
            }
        }
    }
}

// -- kNN pushdown -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `ORDER BY SDO_DISTANCE(...) LIMIT k` through the R-tree
    /// best-first search returns exactly the same ordered prefix as
    /// the functional sort on an unindexed copy of the data.
    #[test]
    fn knn_pushdown_matches_full_sort(
        n in 30usize..100,
        seed in 0u64..500,
        k in 1usize..20,
        px in -120f64..-80f64,
        py in 28f64..45f64,
    ) {
        let order_q = format!(
            "SELECT id FROM t ORDER BY SDO_DISTANCE(geom, SDO_POINT({px}, {py})) LIMIT {k}"
        );
        let run = |indexed: bool| -> Vec<i64> {
            let db = session();
            load_counties(&db, "t", n, seed);
            if indexed {
                db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
                let p = explain(&db, &order_q);
                assert!(p.contains("KNN SCAN"), "indexed top-k must push down:\n{p}");
            }
            db.execute(&order_q)
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_integer().unwrap())
                .collect()
        };
        let pushed = run(true);
        let full = run(false);
        prop_assert_eq!(&pushed, &full, "pushdown must preserve the exact order");
        prop_assert_eq!(pushed.len(), k.min(n));
    }
}

/// The pushdown's point: the sort path holds the whole table resident,
/// the kNN scan holds only the k results (≥10× fewer at k=10).
#[test]
fn knn_pushdown_bounds_resident_rows() {
    let db = session();
    load_counties(&db, "t", 500, 14);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let q = "SELECT id FROM t ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)) LIMIT 10";
    let peak = |sql: &str| {
        db.execute(sql).unwrap();
        db.last_profile().unwrap().root.metric("peak_resident_rows").unwrap()
    };
    let pushed = peak(q);
    // Defeat the pushdown with a second (no-op) sort key: full sort.
    let full =
        peak("SELECT id FROM t ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)), id LIMIT 10");
    assert!(
        pushed * 10 <= full,
        "kNN scan must hold ≥10x fewer rows: pushed={pushed}, full-sort={full}"
    );
}

// -- EXPLAIN output contract ------------------------------------------------

/// Every EXPLAIN line follows `{indent}{LABEL} (rows=N, cost=N)[ -- reason]`
/// with two-space indent steps — the contract the CI golden check and
/// external tooling parse against.
#[test]
fn explain_lines_are_parseable() {
    let db = session();
    load_counties(&db, "t", 60, 15);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("ANALYZE TABLE t").unwrap();
    let queries = [
        "SELECT * FROM t".to_string(),
        WINDOW_Q.to_string(),
        WITHIN_Q.to_string(),
        JOIN_Q.to_string(),
        "SELECT id FROM t ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)) LIMIT 5".to_string(),
        "SELECT id FROM t ORDER BY id DESC LIMIT 3".to_string(),
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t','geom','t','geom','intersect'))".to_string(),
        "SELECT a.id FROM t a, t b WHERE (a.rowid, b.rowid) IN \
         (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('t','geom','t','geom','intersect')))"
            .to_string(),
    ];
    for q in &queries {
        let plan = explain(&db, q);
        let mut prev_depth = 0usize;
        for (ln, line) in plan.lines().enumerate() {
            let trimmed = line.trim_start();
            let indent = line.len() - trimmed.len();
            assert_eq!(indent % 2, 0, "odd indent at line {ln} of {q}:\n{plan}");
            let depth = indent / 2;
            assert!(
                ln == 0 && depth == 0 || depth <= prev_depth + 1,
                "indentation jumps at line {ln} of {q}:\n{plan}"
            );
            prev_depth = depth;
            // LABEL (rows=N, cost=N)[ -- reason]
            let open = trimmed.rfind("(rows=").unwrap_or_else(|| {
                panic!("line {ln} of {q} lacks estimates: {line}");
            });
            let rest = &trimmed[open..];
            let close = rest.find(')').expect("unclosed estimate group");
            let body = &rest["(".len()..close];
            let mut parts = body.split(", ");
            let rows = parts.next().unwrap().strip_prefix("rows=").expect("rows field");
            let cost = parts.next().unwrap().strip_prefix("cost=").expect("cost field");
            assert!(rows.chars().all(|c| c.is_ascii_digit()), "rows not integer: {line}");
            assert!(cost.chars().all(|c| c.is_ascii_digit()), "cost not integer: {line}");
            let tail = &rest[close + 1..];
            assert!(
                tail.is_empty() || tail.starts_with(" -- "),
                "unexpected tail at line {ln} of {q}: {line}"
            );
        }
    }
}
