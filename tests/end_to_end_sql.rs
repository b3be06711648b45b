//! End-to-end SQL workflow: the paper's statements, verbatim shapes,
//! against synthetic county data.

use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_storage::Value;

fn load_counties(db: &Database, table: &str, n: usize, seed: u64) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in counties::generate(n, &US_EXTENT, seed).into_iter().enumerate() {
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
}

fn session() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db
}

#[test]
fn paper_section4_join_queries() {
    let db = session();
    load_counties(&db, "city_table", 60, 1);
    load_counties(&db, "river_table", 60, 2);
    db.execute(
        "CREATE INDEX city_sidx ON city_table(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    db.execute(
        "CREATE INDEX river_sidx ON river_table(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();

    // Nested-loop form (paper §4 first listing).
    let nl = db
        .execute(
            "SELECT COUNT(*) FROM city_table a, river_table b \
             WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'",
        )
        .unwrap()
        .count()
        .unwrap();

    // Table-function form (paper §4 second listing).
    let tf = db
        .execute(
            "SELECT COUNT(*) FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect')))",
        )
        .unwrap()
        .count()
        .unwrap();

    assert_eq!(nl, tf, "nested-loop and table-function joins must agree");
    assert!(nl > 60, "county grids overlap across seeds: expected many pairs, got {nl}");

    // Parallel table-function form with an explicit DOP.
    let par = db
        .execute(
            "SELECT COUNT(*) FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect', 2)))",
        )
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(nl, par);
}

#[test]
fn cursor_driven_parallel_join_matches() {
    let db = session();
    load_counties(&db, "t1", 50, 3);
    load_counties(&db, "t2", 50, 4);
    db.execute("CREATE INDEX t1_sidx ON t1(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("CREATE INDEX t2_sidx ON t2(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();

    let serial = db
        .execute("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t1','geom','t2','geom','intersect'))")
        .unwrap()
        .count()
        .unwrap();

    // The paper's cursor-driven decomposition: subtree pairs flow in
    // through CURSOR(SELECT ... FROM TABLE(SUBTREE_PAIRS(...))).
    let cursor_driven = db
        .execute(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
               CURSOR(SELECT lnode, rnode FROM TABLE( \
                 SUBTREE_PAIRS('t1_sidx', 't2_sidx', 1, 'intersect'))), \
               't1','geom','t2','geom','intersect', 2))",
        )
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(serial, cursor_driven);
}

#[test]
fn cursor_node_ids_outside_the_index_are_rejected() {
    let db = session();
    load_counties(&db, "t1", 20, 3);
    load_counties(&db, "t2", 20, 4);
    db.execute("CREATE INDEX t1_sidx ON t1(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("CREATE INDEX t2_sidx ON t2(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    // Node ids come from the client: out of range, negative, and out
    // of range on the right side only.
    for (i, (bad, l, r)) in
        [(100_049, 100_049, 0), (-1, -1, 0), (100_050, 0, 100_050)].into_iter().enumerate()
    {
        let pairs = format!("pairs{i}");
        db.execute(&format!("CREATE TABLE {pairs} (lnode NUMBER, rnode NUMBER)")).unwrap();
        db.insert_row(&pairs, vec![Value::Integer(0), Value::Integer(0)]).unwrap();
        db.insert_row(&pairs, vec![Value::Integer(l), Value::Integer(r)]).unwrap();
        for dop in [1, 2] {
            let err = db
                .execute(&format!(
                    "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
                       CURSOR(SELECT lnode, rnode FROM {pairs}), \
                       't1','geom','t2','geom','intersect', {dop}))"
                ))
                .expect_err("a node id outside the index must be rejected");
            let msg = err.to_string();
            assert!(msg.contains(&format!("node id {bad}")), "dop={dop}: {msg}");
        }
    }
}

#[test]
fn sql_degree_of_parallelism_is_capped() {
    let db = session();
    load_counties(&db, "t", 20, 5);
    // CREATE INDEX … PARALLEL n: the bound is named, and the bound
    // itself is accepted.
    let err = db
        .execute("CREATE INDEX t_sidx ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARALLEL 65")
        .expect_err("PARALLEL 65 must be rejected");
    assert!(err.to_string().contains("maximum of 64"), "{err}");
    db.execute("CREATE INDEX t_sidx ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARALLEL 64").unwrap();

    // SPATIAL_JOIN's dop argument.
    let join = |dop: i64| {
        db.execute(&format!(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t','geom','t','geom','intersect', {dop}))"
        ))
    };
    let err = join(65).expect_err("dop 65 must be rejected");
    assert!(err.to_string().contains("maximum of 64"), "{err}");
    assert_eq!(join(64).unwrap().count(), join(1).unwrap().count());
}

#[test]
fn subtree_root_function_exposes_index_structure() {
    let db = session();
    load_counties(&db, "t", 120, 5);
    db.execute(
        "CREATE INDEX t_sidx ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    let roots0 = db.execute("SELECT * FROM TABLE(SUBTREE_ROOT('t_sidx', 0))").unwrap();
    assert_eq!(roots0.rows.len(), 1, "level 0 = the root itself");
    let roots1 = db.execute("SELECT * FROM TABLE(SUBTREE_ROOT('t_sidx', 1))").unwrap();
    assert!(roots1.rows.len() > 1, "descending one level must expose children");
    assert_eq!(roots0.columns[0], "NODE");
}

#[test]
fn window_queries_and_within_distance() {
    let db = session();
    load_counties(&db, "t", 100, 6);
    // Functional truth before indexing.
    let window = "SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))')";
    let functional = db
        .execute(&format!(
            "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, {window}, 'ANYINTERACT') = 'TRUE'"
        ))
        .unwrap()
        .count()
        .unwrap();
    assert!(functional > 0);

    for params in ["tree_fanout=8", "sdo_level=7"] {
        let db = session();
        load_counties(&db, "t", 100, 6);
        db.execute(&format!(
            "CREATE INDEX t_sidx ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{params}')"
        ))
        .unwrap();
        let indexed = db
            .execute(&format!(
                "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, {window}, 'ANYINTERACT') = 'TRUE'"
            ))
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(indexed, functional, "params={params}");

        let d1 = db
            .execute(&format!(
                "SELECT COUNT(*) FROM t WHERE SDO_WITHIN_DISTANCE(geom, {window}, 3) = 'TRUE'"
            ))
            .unwrap()
            .count()
            .unwrap();
        assert!(d1 >= indexed, "distance query must be a superset");
    }
}

#[test]
fn tessellate_table_function_runs_from_sql() {
    let db = session();
    load_counties(&db, "t", 30, 7);
    let tiles = db.execute("SELECT * FROM TABLE(TESSELLATE('t', 'geom', 6))").unwrap();
    assert_eq!(tiles.columns, vec!["TILE_CODE", "RID", "INTERIOR"]);
    assert!(tiles.rows.len() >= 30, "every county produces at least one tile");
    // every rowid appears
    let mut rids: Vec<u64> = tiles.rows.iter().map(|r| r[1].as_rowid().unwrap().as_u64()).collect();
    rids.sort_unstable();
    rids.dedup();
    assert_eq!(rids.len(), 30);
}

#[test]
fn tessellate_and_subtree_levels_are_checked() {
    let db = session();
    load_counties(&db, "t", 30, 7);
    // TESSELLATE takes the quadtree levels CREATE INDEX accepts: 0 and
    // 32 are out of range, and 2^32 + 1 must not wrap to level 1.
    for level in [0i64, 32, (1 << 32) + 1] {
        let err = db
            .execute(&format!("SELECT COUNT(*) FROM TABLE(TESSELLATE('t', 'geom', {level}))"))
            .expect_err("an out-of-range tiling level must be rejected");
        assert!(err.to_string().contains("sdo_level must be in 1..=31"), "{level}: {err}");
    }
    // Descent levels saturate: 2^32 goes to the leaves, like any level
    // past the tree height, instead of wrapping to the root.
    db.execute(
        "CREATE INDEX t_sidx ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=4')",
    )
    .unwrap();
    let roots = |level: i64| {
        db.execute(&format!("SELECT * FROM TABLE(SUBTREE_ROOT('t_sidx', {level}))"))
            .unwrap()
            .rows
            .len()
    };
    assert!(roots(1000) > 1);
    assert_eq!(roots(1 << 32), roots(1000));
    let join = |level: i64| {
        db.execute(&format!(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t','geom','t','geom','intersect', 2, {level}))"
        ))
        .unwrap()
        .count()
    };
    assert_eq!(join(1 << 32), join(-1));
}

#[test]
fn quadtree_spatial_join_from_sql() {
    let db = session();
    load_counties(&db, "t1", 40, 8);
    load_counties(&db, "t2", 40, 9);
    db.execute(
        "CREATE INDEX t1_q ON t1(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('sdo_level=7')",
    )
    .unwrap();
    db.execute(
        "CREATE INDEX t2_q ON t2(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('sdo_level=7')",
    )
    .unwrap();
    let qt = db
        .execute("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t1','geom','t2','geom','intersect'))")
        .unwrap()
        .count()
        .unwrap();
    // functional truth
    let nl = db
        .execute(
            "SELECT COUNT(*) FROM t1 a, t2 b \
             WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'",
        )
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(qt, nl);
}

/// The subtree forms of `SPATIAL_JOIN` — a descent level or a cursor
/// of subtree pairs — must name the rule that routed the inputs away
/// from the tree join.
fn assert_subtree_forms_rejected(db: &Database, reason: &str) {
    db.execute("CREATE TABLE pairs (lnode NUMBER, rnode NUMBER)").unwrap();
    db.insert_row("pairs", vec![Value::Integer(0), Value::Integer(0)]).unwrap();
    for sql in [
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t1','geom','t2','geom','intersect', 2, 0))",
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
           CURSOR(SELECT lnode, rnode FROM pairs), 't1','geom','t2','geom','intersect', 2))",
    ] {
        let err = db.execute(sql).expect_err("subtree tasks need two R-trees");
        let msg = err.to_string();
        assert!(msg.contains("need R-tree indexes") && msg.contains(reason), "{sql}: {msg}");
    }
}

#[test]
fn mixed_index_kinds_rejected_for_join() {
    let db = session();
    load_counties(&db, "t1", 20, 10);
    load_counties(&db, "t2", 20, 11);
    db.execute("CREATE INDEX t1_r ON t1(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute(
        "CREATE INDEX t2_q ON t2(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('sdo_level=6')",
    )
    .unwrap();
    // Only the tree join descends subtrees; an R-tree × quadtree pair
    // runs the partition join, so the subtree forms are rejected.
    assert_subtree_forms_rejected(&db, "index kinds differ");
}

#[test]
fn join_without_index_is_an_error() {
    let db = session();
    load_counties(&db, "t1", 10, 12);
    load_counties(&db, "t2", 10, 13);
    // One indexed side is not enough for the subtree forms either.
    db.execute("CREATE INDEX t1_r ON t1(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    assert_subtree_forms_rejected(&db, "no spatial index");
}

/// Only the first `(ROWID, ROWID) IN (...)` conjunct drives the
/// semijoin; a second one is rejected, not dropped from the WHERE
/// clause (which would return pairs it excludes).
#[test]
fn a_second_rowid_pair_in_is_rejected() {
    let db = session();
    load_counties(&db, "a", 20, 31);
    load_counties(&db, "b", 20, 32);
    db.execute("CREATE INDEX a_x ON a(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("CREATE INDEX b_x ON b(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let pairs = |mask: &str| {
        format!("(x.rowid, y.rowid) IN (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','{mask}')))")
    };
    let sql = format!(
        "SELECT x.id, y.id FROM a x, b y WHERE {} AND {}",
        pairs("intersect"),
        pairs("inside")
    );
    let err = db.execute(&sql).expect_err("the second rowid-pair IN cannot be evaluated");
    assert!(err.to_string().contains("rowid-pair IN must be the driving predicate"), "{err}");
}

#[test]
fn sdo_nn_nearest_neighbours() {
    let db = session();
    load_counties(&db, "t", 100, 14);
    // functional truth: 5 counties nearest to a probe point
    let probe = "SDO_POINT(-100, 35)";
    let truth = db
        .execute(&format!("SELECT id FROM t ORDER BY SDO_DISTANCE(geom, {probe}) LIMIT 5"))
        .unwrap();
    let truth_ids: std::collections::HashSet<i64> =
        truth.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();

    // without an index: functional SDO_NN path
    let r =
        db.execute(&format!("SELECT id FROM t WHERE SDO_NN(geom, {probe}, 5) = 'TRUE'")).unwrap();
    assert_eq!(r.rows.len(), 5);
    for row in &r.rows {
        assert!(truth_ids.contains(&row[0].as_integer().unwrap()));
    }

    // with an R-tree index: filter-refine SDO_NN
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let r = db
        .execute(&format!("SELECT id FROM t WHERE SDO_NN(geom, {probe}, 'sdo_num_res=5') = 'TRUE'"))
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    for row in &r.rows {
        assert!(truth_ids.contains(&row[0].as_integer().unwrap()));
    }

    // a quadtree has no best-first search: the index scan ranks the
    // rows functionally and returns the same neighbours
    let db2 = session();
    load_counties(&db2, "t", 30, 15);
    let ids = |db: &Database, sql: &str| -> Vec<i64> {
        let mut v: Vec<i64> =
            db.execute(sql).unwrap().rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
        v.sort_unstable();
        v
    };
    let truth2 =
        ids(&db2, &format!("SELECT id FROM t ORDER BY SDO_DISTANCE(geom, {probe}) LIMIT 3"));
    db2.execute(
        "CREATE INDEX t_q ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('sdo_level=6')",
    )
    .unwrap();
    let nn = format!("SELECT id FROM t WHERE SDO_NN(geom, {probe}, 3) = 'TRUE'");
    assert_eq!(ids(&db2, &nn), truth2);
    let profile = db2.last_profile().unwrap();
    let scan = profile.root.find("INDEX SCAN T (SDO_NN via T_Q)").expect("index scan");
    assert!(
        scan.attrs.iter().any(|(k, v)| k == "knn_path" && v == "functional ranking fallback"),
        "{:?}",
        scan.attrs
    );
}

#[test]
fn sdo_nn_more_than_table_size() {
    let db = session();
    load_counties(&db, "t", 10, 16);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let r = db
        .execute("SELECT COUNT(*) FROM t WHERE SDO_NN(geom, SDO_POINT(0, 0), 50) = 'TRUE'")
        .unwrap();
    assert_eq!(r.count(), Some(10));
}

#[test]
fn explain_reports_chosen_strategies() {
    let db = session();
    load_counties(&db, "a", 20, 21);
    load_counties(&db, "b", 20, 22);
    db.execute("CREATE INDEX a_x ON a(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("CREATE INDEX b_x ON b(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();

    let plan = |sql: &str| -> String {
        db.execute(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // nested loop with an indexed inner
    let p = plan(
        "EXPLAIN SELECT COUNT(*) FROM a x, b y \
         WHERE SDO_RELATE(x.geom, y.geom, 'intersect') = 'TRUE'",
    );
    assert!(p.contains("NESTED LOOP JOIN"), "{p}");
    assert!(p.contains("INDEX PROBE"), "{p}");
    assert!(p.contains("AGGREGATE COUNT(*)"), "{p}");

    // table-function join
    let p = plan(
        "EXPLAIN SELECT COUNT(*) FROM a x, b y WHERE (x.rowid, y.rowid) IN \
         (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','intersect')))",
    );
    assert!(p.contains("ROWID-PAIR SEMIJOIN"), "{p}");
    assert!(p.contains("SPATIAL_JOIN"), "{p}");

    // COUNT(*) of the table function's scan
    let p =
        plan("EXPLAIN SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','intersect'))");
    assert!(p.contains("TABLE FUNCTION SCAN SPATIAL_JOIN"), "{p}");

    // window query through the domain index, plus sort and limit
    let p = plan(
        "EXPLAIN SELECT id FROM a WHERE \
         SDO_RELATE(geom, SDO_GEOMETRY('POINT (-100 35)'), 'ANYINTERACT') = 'TRUE' \
         ORDER BY id DESC LIMIT 3",
    );
    assert!(p.contains("INDEX SCAN A (SDO_RELATE via A_X)"), "{p}");
    assert!(!p.contains("TABLE SCAN"), "{p}");
    assert!(p.contains("SORT"), "{p}");
    assert!(p.contains("LIMIT 3"), "{p}");

    // functional evaluation when no index exists
    let db2 = session();
    load_counties(&db2, "c", 10, 23);
    let p2 = db2
        .execute(
            "EXPLAIN SELECT COUNT(*) FROM c WHERE \
             SDO_RELATE(geom, SDO_GEOMETRY('POINT (0 0)'), 'ANYINTERACT') = 'TRUE'",
        )
        .unwrap();
    let text: String =
        p2.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("functional evaluation"), "{text}");
}

#[test]
fn sdo_join_alias_matches_spatial_join() {
    let db = session();
    load_counties(&db, "t", 30, 40);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let a = db
        .execute("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t','geom','t','geom','intersect'))")
        .unwrap()
        .count();
    let b = db
        .execute("SELECT COUNT(*) FROM TABLE(SDO_JOIN('t','geom','t','geom','intersect'))")
        .unwrap()
        .count();
    assert_eq!(a, b);
}

/// A bad `SDO_RELATE` mask, `SDO_WITHIN_DISTANCE` distance or `SDO_NN`
/// result count is the statement's error whichever plan would read the
/// rows — a table scan, an index scan, either nested-loop arm, a filter
/// above the rowid-pair semijoin, a residual `= 'FALSE'`, the scans of
/// `UPDATE` and `DELETE`, `SPATIAL_JOIN` — on populated and on empty
/// tables alike. None of them may answer it as a predicate no row
/// passes. Each case's plan is the one `EXPLAIN` shows for its twin
/// with a good argument on the populated tables; the bad statement
/// fails to plan.
#[test]
fn bad_spatial_argument_errors_under_every_plan() {
    for rows in [40, 0] {
        let db = session();
        for (tab, seed) in [("t", 3), ("u", 4), ("v", 5)] {
            match rows {
                0 => {
                    drop(db.execute(&format!("CREATE TABLE {tab} (id NUMBER, geom SDO_GEOMETRY)")))
                }
                n => load_counties(&db, tab, n, seed),
            }
        }
        for tab in ["t", "v"] {
            db.execute(&format!(
                "CREATE INDEX {tab}_sidx ON {tab}(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('tree_fanout=8')"
            ))
            .unwrap();
        }
        bad_arguments_error(&db, rows);
        let n = db.execute("SELECT COUNT(*) FROM u").unwrap();
        assert_eq!(n.rows, vec![vec![Value::Integer(rows as i64)]], "no DML went through");
    }
}

fn bad_arguments_error(db: &Database, rows: usize) {
    let window = "SDO_GEOMETRY('POLYGON ((-100 30, -99 30, -99 31, -100 31, -100 30))')";
    let explain = |sql: &str| -> String {
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        plan.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect::<Vec<_>>().join("\n")
    };
    let fails = |sql: &str| {
        assert!(db.execute(sql).is_err(), "{sql} ({rows} rows)");
        assert!(db.execute(&format!("EXPLAIN {sql}")).is_err(), "EXPLAIN {sql} ({rows} rows)");
    };
    // (operator call, its bad argument, a good one)
    let calls = [
        ("SDO_RELATE({a}, {b}, 'mask=BOGUS')", "'mask=BOGUS'", "'ANYINTERACT'"),
        ("SDO_WITHIN_DISTANCE({a}, {b}, 'distance=abc')", "'distance=abc'", "'distance=1'"),
    ];
    for (call, bad, good) in calls {
        let op = |a: &str, b: &str| call.replace("{a}", a).replace("{b}", b);
        let semijoin = "SELECT a.id, b.id FROM t a, v b WHERE (a.rowid, b.rowid) IN \
                        (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('t', 'geom', 'v', 'geom', \
                        'intersect')))";
        let cases = [
            (format!("SELECT id FROM u WHERE {} = 'TRUE'", op("geom", window)), "TABLE SCAN U"),
            (format!("SELECT id FROM t WHERE {} = 'TRUE'", op("geom", window)), "INDEX SCAN T"),
            (format!("SELECT id FROM u WHERE {} = 'FALSE'", op("geom", window)), "TABLE SCAN U"),
            (format!("SELECT id FROM t WHERE {} = 'FALSE'", op("geom", window)), "TABLE SCAN T"),
            (
                format!(
                    "SELECT a.id, b.id FROM u a, u b WHERE {} = 'TRUE'",
                    op("a.geom", "b.geom")
                ),
                "NESTED LOOP JOIN",
            ),
            (
                format!(
                    "SELECT a.id, b.id FROM u a, t b WHERE {} = 'TRUE'",
                    op("a.geom", "b.geom")
                ),
                "INDEX PROBE",
            ),
            (format!("{semijoin} AND {} = 'TRUE'", op("a.geom", "b.geom")), "ROWID-PAIR SEMIJOIN"),
            (format!("{semijoin} AND {} = 'FALSE'", op("a.geom", "b.geom")), "ROWID-PAIR SEMIJOIN"),
        ];
        for (sql, plan) in cases {
            // Empty tables plan as scans; the error comes before any
            // choice.
            let twin = sql.replace(bad, good);
            assert!(rows == 0 || explain(&twin).contains(plan), "{twin}\n{}", explain(&twin));
            fails(&sql);
        }
        for dml in [
            format!("DELETE FROM u WHERE {} = 'TRUE'", op("geom", window)),
            format!("UPDATE u SET id = 0 WHERE {} = 'TRUE'", op("geom", window)),
            format!("DELETE FROM t WHERE {} = 'TRUE'", op("geom", window)),
            format!("DELETE FROM t WHERE {} = 'FALSE'", op("geom", window)),
        ] {
            assert!(db.execute(&dml).is_err(), "{dml} ({rows} rows)");
        }
        let join =
            format!("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('t', 'geom', 'v', 'geom', {bad}))");
        assert!(db.execute(&join).is_err(), "{join} ({rows} rows)");
    }
    // SDO_NN: a bad result count, through the index or a ranking of the
    // whole table, and the forms that test pairs, which it cannot.
    for tab in ["t", "u"] {
        fails(&format!(
            "SELECT id FROM {tab} WHERE SDO_NN(geom, {window}, 'sdo_num_res=abc') = 'TRUE'"
        ));
        fails(&format!("SELECT id FROM {tab} WHERE SDO_NN(geom, {window}, 0) = 'TRUE'"));
        fails(&format!("SELECT id FROM {tab} WHERE SDO_NN(geom, {window}, 1) = 'FALSE'"));
        fails(&format!("SELECT a.id FROM u a, {tab} b WHERE SDO_NN(a.geom, b.geom, 1) = 'TRUE'"));
        let dml =
            format!("DELETE FROM {tab} WHERE SDO_NN(geom, {window}, 'sdo_num_res=abc') = 'TRUE'");
        assert!(db.execute(&dml).is_err(), "{dml} ({rows} rows)");
    }
}
