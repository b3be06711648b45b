//! Domain-index maintenance: inserts and deletes through the engine
//! must keep both index kinds consistent with functional truth
//! ("inserts and updates ... automatically trigger an update of the
//! corresponding spatial indexes", paper §3).

use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::{Database, Session};
use sdo_geom::relate::relate_any;
use sdo_geom::wkt::parse_wkt;
use sdo_geom::{Geometry, Point, RelateMask};
use sdo_storage::Value;

fn session(params: &str) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in counties::generate(50, &US_EXTENT, 42).into_iter().enumerate() {
        db.insert_row("t", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
    db.execute(&format!(
        "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{params}')"
    ))
    .unwrap();
    db
}

const WINDOW: &str = "SDO_GEOMETRY('POLYGON ((-110 30, -95 30, -95 42, -110 42, -110 30))')";

fn window_count(db: &Database) -> i64 {
    db.execute(&format!(
        "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, {WINDOW}, 'ANYINTERACT') = 'TRUE'"
    ))
    .unwrap()
    .count()
    .unwrap()
}

fn run_dml_cycle(params: &str) {
    let db = session(params);
    let before = window_count(&db);
    assert!(before > 0);

    // Insert a polygon inside the window; the index must see it.
    db.execute(
        "INSERT INTO t VALUES (999, \
         SDO_GEOMETRY('POLYGON ((-105 35, -104 35, -104 36, -105 36, -105 35))'))",
    )
    .unwrap();
    assert_eq!(window_count(&db), before + 1, "params={params}");

    // Delete it again.
    db.execute("DELETE FROM t WHERE id = 999").unwrap();
    assert_eq!(window_count(&db), before, "params={params}");

    // Delete everything intersecting the window via ids.
    let ids: Vec<i64> = db
        .execute(&format!(
            "SELECT id FROM t WHERE SDO_RELATE(geom, {WINDOW}, 'ANYINTERACT') = 'TRUE'"
        ))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_integer().unwrap())
        .collect();
    for id in ids {
        db.execute(&format!("DELETE FROM t WHERE id = {id}")).unwrap();
    }
    assert_eq!(window_count(&db), 0, "params={params}");
}

#[test]
fn rtree_index_tracks_dml() {
    run_dml_cycle("tree_fanout=8");
}

#[test]
fn quadtree_index_tracks_dml() {
    run_dml_cycle("sdo_level=7, extent=-125:24:-66:50");
}

#[test]
fn join_sees_post_creation_inserts() {
    let db = session("tree_fanout=8");
    db.execute("CREATE TABLE probe (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    db.insert_row(
        "probe",
        vec![
            Value::Integer(0),
            Value::geometry(
                sdo_geom::wkt::parse_wkt("POLYGON ((-105 35, -104 35, -104 36, -105 36))").unwrap(),
            ),
        ],
    )
    .unwrap();
    db.execute("CREATE INDEX probe_x ON probe(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let before = db
        .execute("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('probe','geom','t','geom','intersect'))")
        .unwrap()
        .count()
        .unwrap();
    // Insert a county-overlapping polygon into t; the (snapshot-based)
    // join function picks it up on the next invocation.
    db.execute(
        "INSERT INTO t VALUES (1000, \
         SDO_GEOMETRY('POLYGON ((-104.5 35.2, -104.2 35.2, -104.2 35.5, -104.5 35.5))'))",
    )
    .unwrap();
    let after = db
        .execute("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('probe','geom','t','geom','intersect'))")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(after, before + 1);
}

#[test]
fn update_moves_rows_in_both_index_kinds() {
    for params in ["tree_fanout=8", "sdo_level=7, extent=-200:-200:200:200"] {
        let db = session(params);
        let before = window_count(&db);
        assert!(before > 0);
        // Move every in-window county far away; the index must follow.
        let ids: Vec<i64> = db
            .execute(&format!(
                "SELECT id FROM t WHERE SDO_RELATE(geom, {WINDOW}, 'ANYINTERACT') = 'TRUE'"
            ))
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_integer().unwrap())
            .collect();
        for id in &ids {
            db.execute(&format!(
                "UPDATE t SET geom = SDO_GEOMETRY('POLYGON ((150 150, 151 150, 151 151, 150 151, 150 150))') \
                 WHERE id = {id}"
            ))
            .unwrap();
        }
        assert_eq!(window_count(&db), 0, "params={params}");
        // ...and back again
        for id in &ids {
            db.execute(&format!(
                "UPDATE t SET geom = SDO_GEOMETRY('POLYGON ((-105 35, -104 35, -104 36, -105 36, -105 35))') \
                 WHERE id = {id}"
            ))
            .unwrap();
        }
        assert_eq!(window_count(&db), before.max(ids.len() as i64), "params={params}");
    }
}

/// A quadtree covers only its world extent, so a row outside it would
/// be missing from every window query. Such a row is refused: an
/// `INSERT` or `UPDATE` that would put one there fails and changes
/// nothing, and a `CREATE INDEX` whose explicit extent leaves a row
/// outside fails and creates no index.
#[test]
fn quadtree_refuses_rows_outside_its_extent() {
    // The default extent is the data's bounding box, padded by 1 %.
    let db = session("sdo_level=6");
    let count = |sql: &str| db.execute(sql).unwrap().count().unwrap();
    let total = count("SELECT COUNT(*) FROM t");
    let far = "SDO_GEOMETRY('POLYGON ((150 80, 151 80, 151 81, 150 81, 150 80))')";
    let row_0 = || format!("{:?}", db.execute("SELECT geom FROM t WHERE id = 0").unwrap().rows);
    // One square outside the data's box, one straddling its west edge.
    for g in [far, "SDO_GEOMETRY('POLYGON ((-130 35, -120 35, -120 36, -130 36, -130 35))')"] {
        let err = db.execute(&format!("INSERT INTO t VALUES (999, {g})")).unwrap_err();
        assert!(err.to_string().contains("outside the quadtree extent"), "{err}");
        assert_eq!(count("SELECT COUNT(*) FROM t"), total, "{g}");
        assert_eq!(count("SELECT COUNT(*) FROM t WHERE id = 999"), 0, "{g}");
    }
    let (before, old_row) = (window_count(&db), row_0());
    let err = db.execute(&format!("UPDATE t SET geom = {far} WHERE id = 0")).unwrap_err();
    assert!(err.to_string().contains("outside the quadtree extent"), "{err}");
    assert_eq!(count("SELECT COUNT(*) FROM t"), total);
    assert_eq!(row_0(), old_row, "the failed update changed nothing");
    assert_eq!(window_count(&db), before);

    // An explicit extent that leaves rows outside fails the build.
    db.execute("DROP INDEX t_x").unwrap();
    let err = db
        .execute(
            "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('sdo_level=6, extent=-100:24:-66:50')",
        )
        .unwrap_err();
    assert!(err.to_string().contains("outside the quadtree extent"), "{err}");
    assert!(db.index_on("t", "geom").is_none(), "a failed build leaves no index");
    db.execute(
        "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('sdo_level=6, extent=-125:24:-66:50')",
    )
    .unwrap();
    assert_eq!(window_count(&db), before);
    // An overhang of rounding size is not refused.
    db.execute(
        "INSERT INTO t VALUES (998, SDO_GEOMETRY('POLYGON ((-67 30, \
         -65.99999999999999 30, -65.99999999999999 31, -67 31, -67 30))'))",
    )
    .unwrap();
}

/// While a pinned snapshot defers an updated row's old index entry, a
/// window covering both the old and the new MBR finds the row twice in
/// the index. The candidates are merged by rowid before any fetch, so
/// the row is fetched and exact-tested once, and returned once.
#[test]
fn deferred_old_entry_is_fetched_and_tested_once() {
    let db = std::sync::Arc::new(Database::new());
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE p (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    let square = |x: f64, y: f64| {
        format!(
            "SDO_GEOMETRY('POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))')",
            x + 1.0,
            x + 1.0,
            y + 1.0,
            y + 1.0
        )
    };
    // One row inside the window, the rest far away, so the window is
    // answered by the index.
    db.execute(&format!("INSERT INTO p VALUES (0, {})", square(1.0, 1.0))).unwrap();
    for i in 1..50 {
        db.execute(&format!(
            "INSERT INTO p VALUES ({i}, {})",
            square(100.0 + i as f64 * 3.0, 100.0)
        ))
        .unwrap();
    }
    db.execute("CREATE INDEX p_sidx ON p(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();

    let a = db.session();
    a.execute("BEGIN").unwrap();
    a.execute("SELECT COUNT(*) FROM p").unwrap();

    let b = db.session();
    b.execute(&format!("UPDATE p SET geom = {} WHERE id = 0", square(5.0, 5.0))).unwrap();
    let before = db.counters().snapshot();
    let r = b
        .execute(
            "SELECT id FROM p WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))'), 'ANYINTERACT') = 'TRUE'",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Integer(0)]]);
    assert_eq!(db.counters().diff(&before).get("exact_tests"), Some(1));
    a.execute("COMMIT").unwrap();
}

/// Index entries run ahead of and behind what a reader may see: an
/// update adds the new version's tiles at once and removes the old
/// version's only when no snapshot can still see it. Whatever a
/// candidate's tiles say, the answer must come from the row version
/// the reader's snapshot sees — for the writer's own uncommitted
/// update, another session's uncommitted update, and a committed update
/// while an older snapshot is pinned.
#[test]
fn tile_evidence_respects_the_snapshot() {
    let square = |x: f64, y: f64| {
        format!(
            "SDO_GEOMETRY('POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))')",
            x + 2.0,
            x + 2.0,
            y + 2.0,
            y + 2.0
        )
    };
    // The window covers whole tiles, so its tile evidence alone would
    // claim every row it finds there.
    let select = "SELECT id FROM t WHERE SDO_RELATE(geom, \
                  SDO_GEOMETRY('POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0))'), 'ANYINTERACT') = 'TRUE' \
                  ORDER BY id";
    let ids = |r: sdo_dbms::QueryResult| -> Vec<i64> {
        r.rows.iter().map(|row| row[0].as_integer().unwrap()).collect()
    };
    for params in ["tree_fanout=8", "sdo_level=6, extent=0:0:200:200"] {
        // Row 1 inside the window, row 2 and 400 more outside it.
        let setup = || {
            let db = std::sync::Arc::new(Database::new());
            sdo_core::register_spatial(&db);
            db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
            db.execute(&format!("INSERT INTO t VALUES (1, {})", square(5.0, 5.0))).unwrap();
            db.execute(&format!("INSERT INTO t VALUES (2, {})", square(100.0, 100.0))).unwrap();
            for i in 0..400 {
                let (x, y) = (40.0 + (i % 20) as f64 * 7.0, 40.0 + (i / 20) as f64 * 7.0);
                db.execute(&format!("INSERT INTO t VALUES ({}, {})", i + 3, square(x, y))).unwrap();
            }
            db.execute(&format!(
                "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{params}')"
            ))
            .unwrap();
            let plan = db.execute(&format!("EXPLAIN {select}")).unwrap();
            let plan: Vec<_> =
                plan.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
            assert!(plan.iter().any(|l| l.contains("INDEX SCAN T")), "{params}: {plan:?}");
            db
        };
        let (inside, outside) = (square(7.0, 7.0), square(150.0, 150.0));

        // Own update: the writer moved row 1 out of the window.
        let db = setup();
        let writer = db.session();
        writer.execute("BEGIN").unwrap();
        writer.execute(&format!("UPDATE t SET geom = {outside} WHERE id = 1")).unwrap();
        assert_eq!(ids(writer.execute(select).unwrap()), Vec::<i64>::new(), "own update, {params}");
        writer.execute("ROLLBACK").unwrap();

        // Dirty read: another session moved row 2 in, not yet committed.
        let db = setup();
        let writer = db.session();
        writer.execute("BEGIN").unwrap();
        writer.execute(&format!("UPDATE t SET geom = {inside} WHERE id = 2")).unwrap();
        assert_eq!(ids(db.session().execute(select).unwrap()), vec![1], "dirty read, {params}");
        assert_eq!(ids(writer.execute(select).unwrap()), vec![1, 2], "own move-in, {params}");
        writer.execute("ROLLBACK").unwrap();

        // Pinned snapshot: a committed move-out while an older
        // snapshot still sees row 1 in the window.
        let db = setup();
        let pinned = db.session();
        pinned.execute("BEGIN").unwrap();
        assert_eq!(ids(pinned.execute(select).unwrap()), vec![1], "pinned before, {params}");
        db.session().execute(&format!("UPDATE t SET geom = {outside} WHERE id = 1")).unwrap();
        assert_eq!(
            ids(db.session().execute(select).unwrap()),
            Vec::<i64>::new(),
            "fresh reader, {params}"
        );
        assert_eq!(ids(pinned.execute(select).unwrap()), vec![1], "pinned after, {params}");
        pinned.execute("COMMIT").unwrap();
    }
}

const BOX: &str = "POLYGON ((20 20, 65 20, 65 55, 20 55, 20 20))";

fn square_at(x: f64, y: f64) -> String {
    format!(
        "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))",
        x + 4.0,
        x + 4.0,
        y + 4.0,
        y + 4.0
    )
}

/// An operator's SQL and its brute-force meaning.
type Operator = (String, fn(&Geometry) -> bool);

fn operators() -> Vec<Operator> {
    fn b() -> Geometry {
        parse_wkt(BOX).unwrap()
    }
    vec![
        (format!("SDO_FILTER(geom, SDO_GEOMETRY('{BOX}'))"), |g| g.bbox().intersects(&b().bbox())),
        (format!("SDO_RELATE(geom, SDO_GEOMETRY('{BOX}'), 'ANYINTERACT')"), |g| {
            relate_any(g, &b(), &[RelateMask::AnyInteract])
        }),
        (format!("SDO_RELATE(geom, SDO_GEOMETRY('{BOX}'), 'DISJOINT')"), |g| {
            relate_any(g, &b(), &[RelateMask::Disjoint])
        }),
        ("SDO_WITHIN_DISTANCE(geom, SDO_POINT(30, 30), 'distance=6')".into(), |g| {
            sdo_geom::within_distance(g, &Geometry::Point(Point::new(30.0, 30.0)), 6.0)
        }),
    ]
}

/// Both index kinds answer every operator through one body, so under
/// the same row versions they return the same rowids, and those are
/// brute force's: for a reader whose snapshot is pinned before a
/// committed update, a fresh reader, and a writer with its own
/// uncommitted update — `SDO_FILTER`, `SDO_RELATE` (DISJOINT
/// included) and `SDO_WITHIN_DISTANCE` alike.
#[test]
fn rtree_and_quadtree_answer_alike_under_pinned_and_uncommitted_versions() {
    type Rows = Vec<(i64, String)>;
    // 200 squares on a grid; the committed update moves some rows into
    // the box and some out, the uncommitted one likewise.
    let grid: Rows =
        (0..200).map(|i| (i, square_at((i % 20) as f64 * 10.0, (i / 20) as f64 * 10.0))).collect();
    let committed: Rows = (0..8)
        .map(|i| (i, square_at(30.0 + i as f64 * 3.0, 30.0 + i as f64 * 2.0)))
        .chain([(44, square_at(150.0, 150.0)), (45, square_at(160.0, 150.0))])
        .collect();
    let uncommitted: Rows = (100..108)
        .map(|i| (i, square_at(20.0 + (i - 100) as f64 * 4.0, 52.0)))
        .chain([(46, square_at(170.0, 150.0)), (3, square_at(180.0, 180.0))])
        .collect();
    let apply = |rows: &Rows, moves: &Rows| -> Rows {
        let mut out = rows.clone();
        for (id, wkt) in moves {
            out[*id as usize].1 = wkt.clone();
        }
        out
    };

    let db = std::sync::Arc::new(Database::new());
    sdo_core::register_spatial(&db);
    for (tab, params) in [("r", "tree_fanout=8"), ("q", "sdo_level=6, extent=0:0:210:210")] {
        db.execute(&format!("CREATE TABLE {tab} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
        for (id, wkt) in &grid {
            db.execute(&format!("INSERT INTO {tab} VALUES ({id}, SDO_GEOMETRY('{wkt}'))")).unwrap();
        }
        db.execute(&format!(
            "CREATE INDEX {tab}_x ON {tab}(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{params}')"
        ))
        .unwrap();
    }
    let update = |s: &Session, moves: &Rows| {
        for ((id, wkt), tab) in moves.iter().flat_map(|m| [(m, "r"), (m, "q")]) {
            s.execute(&format!("UPDATE {tab} SET geom = SDO_GEOMETRY('{wkt}') WHERE id = {id}"))
                .unwrap();
        }
    };
    let check = |s: &Session, rows: &Rows, who: &str| {
        for (op, keep) in operators() {
            let want: Vec<i64> = rows
                .iter()
                .filter(|(_, wkt)| keep(&parse_wkt(wkt).unwrap()))
                .map(|r| r.0)
                .collect();
            for tab in ["r", "q"] {
                let sql = format!("SELECT id FROM {tab} WHERE {op} = 'TRUE' ORDER BY id");
                let plan = s.execute(&format!("EXPLAIN {sql}")).unwrap().rows;
                let scan = format!("INDEX SCAN {}", tab.to_ascii_uppercase());
                assert!(plan.iter().any(|r| r[0].as_text().unwrap().contains(&scan)), "{sql}");
                let got = s.execute(&sql).unwrap().rows;
                let got: Vec<i64> = got.iter().map(|r| r[0].as_integer().unwrap()).collect();
                assert_eq!(got, want, "{who}: {sql}");
            }
        }
    };

    let pinned = db.session();
    pinned.execute("BEGIN").unwrap();
    check(&pinned, &grid, "pinned before");
    update(&db.session(), &committed);
    let after_commit = apply(&grid, &committed);
    let writer = db.session();
    writer.execute("BEGIN").unwrap();
    update(&writer, &uncommitted);
    check(&pinned, &grid, "pinned");
    check(&db.session(), &after_commit, "fresh reader");
    check(&writer, &apply(&after_commit, &uncommitted), "writer");
    writer.execute("ROLLBACK").unwrap();
    pinned.execute("COMMIT").unwrap();
    check(&db.session(), &after_commit, "after rollback");
}

/// A row that moves away and back while a snapshot pin defers its old
/// entries: its first and last versions share one `(MBR, rowid)` entry,
/// which the index holds once and counts twice. A self-join through the
/// index returns the same pairs before, inside and after the pin, to
/// the pinning session and to a fresh one, for both index kinds.
#[test]
fn a_row_moved_away_and_back_joins_once_under_a_pin() {
    let square = |x: f64| {
        let x1 = x + 2.0;
        format!("SDO_GEOMETRY('POLYGON (({x} {x}, {x1} {x}, {x1} {x1}, {x} {x1}, {x} {x}))')")
    };
    for params in ["tree_fanout=8", "sdo_level=6, extent=-200:-200:200:200"] {
        let db = std::sync::Arc::new(Database::new());
        sdo_core::register_spatial(&db);
        db.execute("CREATE TABLE p (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        db.execute(&format!("INSERT INTO p VALUES (0, {})", square(0.0))).unwrap();
        db.execute(&format!("INSERT INTO p VALUES (1, {})", square(1.0))).unwrap();
        db.execute(&format!(
            "CREATE INDEX p_x ON p(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{params}')"
        ))
        .unwrap();
        let join =
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('p', 'geom', 'p', 'geom', 'intersect'))";
        let pairs = |s: &Session| s.execute(join).unwrap().count().unwrap();

        let r = db.session();
        r.execute("BEGIN").unwrap();
        assert_eq!(pairs(&r), 4, "{params}: before");
        let w = db.session();
        w.execute(&format!("UPDATE p SET geom = {} WHERE id = 0", square(50.0))).unwrap();
        w.execute(&format!("UPDATE p SET geom = {} WHERE id = 0", square(0.0))).unwrap();
        assert_eq!(pairs(&r), 4, "{params}: inside the pin");
        assert_eq!(pairs(&db.session()), 4, "{params}: a fresh session");
        r.execute("COMMIT").unwrap();
        assert_eq!(pairs(&r), 4, "{params}: after the commit");
        assert_eq!(pairs(&db.session()), 4, "{params}: a fresh session after the commit");
    }
}
