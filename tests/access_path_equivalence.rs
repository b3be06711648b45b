//! Access-path differential test: every plan shape that reads a base
//! table through an index scan returns exactly the rows an unindexed
//! twin table and brute force return, in the twin's order — for R-tree
//! and quadtree indexes, at dop 1 and 4, and inside a transaction that
//! has its own uncommitted inserts, updates and deletes. Growing the
//! table with rows outside the query region leaves the rows a query
//! fetches unchanged: the index scan reads hits, not the heap.

use sdo_dbms::Database;
use sdo_geom::relate::relate_any;
use sdo_geom::wkt::parse_wkt;
use sdo_geom::{Geometry, Point, RelateMask};
use sdo_storage::Value;

/// Rows in the indexed table (and its twin) before growth.
const N: usize = 400;
/// The query window and point; every row of the growth region lies
/// far outside both.
const WINDOW: &str = "SDO_GEOMETRY('POLYGON ((20 20, 45 20, 45 50, 20 50, 20 20))')";
const POINT: (f64, f64) = (30.0, 30.0);

fn window() -> Geometry {
    parse_wkt("POLYGON ((20 20, 45 20, 45 50, 20 50, 20 20))").unwrap()
}

/// One spatial predicate: its SQL over a geometry column, and its
/// brute-force meaning (`None` for SDO_NN, which ranks rather than
/// tests).
struct Pred {
    name: &'static str,
    sql: fn(&str) -> String,
    keep: Option<fn(&Geometry) -> bool>,
}

fn preds() -> Vec<Pred> {
    vec![
        Pred {
            name: "anyinteract",
            sql: |c| format!("SDO_RELATE({c}, {WINDOW}, 'ANYINTERACT') = 'TRUE'"),
            keep: Some(|g| relate_any(g, &window(), &[RelateMask::AnyInteract])),
        },
        Pred {
            name: "inside+coveredby",
            sql: |c| format!("SDO_RELATE({c}, {WINDOW}, 'inside+coveredby') = 'TRUE'"),
            keep: Some(|g| relate_any(g, &window(), &[RelateMask::Inside, RelateMask::CoveredBy])),
        },
        Pred {
            name: "filter",
            sql: |c| format!("SDO_FILTER({c}, {WINDOW}) = 'TRUE'"),
            keep: Some(|g| g.bbox().intersects(&window().bbox())),
        },
        Pred {
            name: "within_distance",
            sql: |c| {
                format!(
                    "SDO_WITHIN_DISTANCE({c}, SDO_POINT({}, {}), 'distance=6') = 'TRUE'",
                    POINT.0, POINT.1
                )
            },
            keep: Some(|g| {
                sdo_geom::within_distance(g, &Geometry::Point(Point::new(POINT.0, POINT.1)), 6.0)
            }),
        },
        Pred {
            name: "nn",
            sql: |c| format!("SDO_NN({c}, SDO_POINT({}, {}), 5) = 'TRUE'", POINT.0, POINT.1),
            keep: None,
        },
    ]
}

/// Deterministic axis-aligned squares and points inside
/// `[origin, origin + span]²`. Rectangles only: a quadtree's tiles
/// cover a geometry, not its MBR, so SDO_FILTER through tiles equals
/// the functional MBR test only where the two coincide.
fn shapes(n: usize, seed: u64, origin: f64, span: f64) -> Vec<Geometry> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let (x, y) = (origin + next() * span, origin + next() * span);
            if i % 5 == 0 {
                Geometry::Point(Point::new(x, y))
            } else {
                let d = 0.5 + next() * 3.0;
                let (x1, y1) = (x + d, y + d);
                parse_wkt(&format!("POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))"))
                    .unwrap()
            }
        })
        .collect()
}

fn wkt(g: &Geometry) -> String {
    format!("SDO_GEOMETRY('{}')", sdo_geom::wkt::to_wkt(g))
}

/// The rows both tables hold, in rowid order: `(id, geometry)`.
type Model = Vec<(i64, Geometry)>;

/// An indexed table `t`, its unindexed twin `u` (same rows, same
/// rowids), a two-row table `s` for cartesian products and an indexed
/// table `v` that joins against `t`'s rows with `t` as the outer side.
fn setup(index_params: &str) -> (Database, Model, Vec<(i64, Geometry)>) {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    for t in ["t", "u", "v"] {
        db.execute(&format!("CREATE TABLE {t} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    }
    let model: Model =
        shapes(N, 1, 0.0, 100.0).into_iter().enumerate().map(|(i, g)| (i as i64, g)).collect();
    for (id, g) in &model {
        for t in ["t", "u"] {
            db.insert_row(t, vec![Value::Integer(*id), Value::geometry(g.clone())]).unwrap();
        }
    }
    let v: Vec<(i64, Geometry)> =
        shapes(600, 2, 0.0, 100.0).into_iter().enumerate().map(|(i, g)| (i as i64, g)).collect();
    for (id, g) in &v {
        db.insert_row("v", vec![Value::Integer(*id), Value::geometry(g.clone())]).unwrap();
    }
    db.execute("CREATE TABLE s (k NUMBER)").unwrap();
    db.execute("INSERT INTO s VALUES (1)").unwrap();
    db.execute("INSERT INTO s VALUES (2)").unwrap();
    db.execute(&format!(
        "CREATE INDEX t_sidx ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{index_params}')"
    ))
    .unwrap();
    db.execute("CREATE INDEX v_sidx ON v(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    for t in ["t", "u", "v"] {
        db.execute(&format!("ANALYZE TABLE {t}")).unwrap();
    }
    (db, model, v)
}

/// Ids of the model rows `p` keeps, in rowid order. SDO_NN keeps the
/// five nearest by `(distance, rowid)`.
fn brute(model: &Model, p: &Pred) -> Vec<i64> {
    match p.keep {
        Some(keep) => model.iter().filter(|(_, g)| keep(g)).map(|(id, _)| *id).collect(),
        None => {
            let q = Geometry::Point(Point::new(POINT.0, POINT.1));
            let mut ranked: Vec<(f64, usize)> = model
                .iter()
                .enumerate()
                .map(|(pos, (_, g))| (sdo_geom::distance(g, &q), pos))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut pos: Vec<usize> = ranked.into_iter().take(5).map(|(_, p)| p).collect();
            pos.sort_unstable();
            pos.into_iter().map(|p| model[p].0).collect()
        }
    }
}

/// The SELECT shapes, over table `tab`.
fn select_shapes(tab: &str, p: &Pred) -> Vec<(&'static str, String)> {
    vec![
        ("plain", format!("SELECT id FROM {tab} WHERE {}", (p.sql)("geom"))),
        ("count", format!("SELECT COUNT(*) FROM {tab} WHERE {}", (p.sql)("geom"))),
        (
            "order_limit",
            format!("SELECT id FROM {tab} WHERE {} ORDER BY id DESC LIMIT 4", (p.sql)("geom")),
        ),
        ("product", format!("SELECT a.id, s.k FROM {tab} a, s WHERE {}", (p.sql)("a.geom"))),
        (
            "nested_loop_outer",
            format!(
                "SELECT a.id, b.id FROM {tab} a, v b \
                 WHERE SDO_RELATE(a.geom, b.geom, 'ANYINTERACT') = 'TRUE' AND {}",
                (p.sql)("a.geom")
            ),
        ),
    ]
}

/// What brute force says `shape` returns, as a sorted list of rows.
fn brute_shape(shape: &str, ids: &[i64], model: &Model, v: &[(i64, Geometry)]) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = match shape {
        "plain" => ids.iter().map(|&i| vec![i]).collect(),
        "count" => vec![vec![ids.len() as i64]],
        "order_limit" => {
            let mut d = ids.to_vec();
            d.sort_unstable_by(|a, b| b.cmp(a));
            d.into_iter().take(4).map(|i| vec![i]).collect()
        }
        "product" => ids.iter().flat_map(|&i| [vec![i, 1], vec![i, 2]]).collect(),
        "nested_loop_outer" => model
            .iter()
            .filter(|(id, _)| ids.contains(id))
            .flat_map(|(a, ga)| {
                v.iter()
                    .filter(|(_, gb)| relate_any(ga, gb, &[RelateMask::AnyInteract]))
                    .map(move |(b, _)| vec![*a, *b])
            })
            .collect(),
        other => unreachable!("shape {other}"),
    };
    rows.sort();
    rows
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<i64>> {
    let r = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    r.rows.iter().map(|row| row.iter().map(|v| v.as_integer().unwrap()).collect()).collect()
}

fn explain(db: &Database, sql: &str) -> String {
    let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    r.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect::<Vec<_>>().join("\n")
}

/// Run every SELECT shape for every predicate at dop 1 and 4: the
/// indexed table must plan an index scan, return the twin's rows in
/// the twin's order, and agree with brute force. Returns the rows each
/// dop-1 query fetched, keyed by `(predicate, shape)`.
fn check_selects(
    db: &Database,
    model: &Model,
    v: &[(i64, Geometry)],
    phase: &str,
) -> Vec<((&'static str, &'static str), u64)> {
    let mut fetched = Vec::new();
    for dop in [1, 4] {
        db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        for p in preds() {
            let ids = brute(model, &p);
            let twin = select_shapes("u", &p);
            for ((shape, sql), (_, twin_sql)) in select_shapes("t", &p).into_iter().zip(twin) {
                let ctx = format!("{phase} dop={dop} {} {shape}", p.name);
                let plan = explain(db, &sql);
                assert!(plan.contains("INDEX SCAN T"), "{ctx}: no index scan\n{plan}");
                assert!(!plan.contains("TABLE SCAN T"), "{ctx}: heap scan\n{plan}");
                assert!(explain(db, &twin_sql).contains("TABLE SCAN U"), "{ctx}: twin plan");

                let before = db.counters().snapshot();
                let got = rows(db, &sql);
                let row_fetches = db.counters().diff(&before).get("row_fetches").unwrap_or(0);
                if dop == 1 {
                    fetched.push(((p.name, shape), row_fetches));
                }
                assert_eq!(got, rows(db, &twin_sql), "{ctx}: index scan vs unindexed twin");
                let mut sorted = got;
                sorted.sort();
                assert_eq!(sorted, brute_shape(shape, &ids, model, v), "{ctx}: vs brute force");
            }
        }
    }
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    fetched
}

/// `UPDATE` and `DELETE` with each spatial `WHERE`, each inside its
/// own transaction (after `writes`, the transaction's own changes) that
/// is rolled back afterwards: the indexed table and the twin change the
/// same rows, the ones brute force picks.
fn check_dml(db: &Database, model: &Model, writes: &dyn Fn(&Database, &mut Model)) {
    for p in preds() {
        for (verb, stmt) in [
            ("UPDATE", format!("UPDATE {{tab}} SET id = -1 WHERE {}", (p.sql)("geom"))),
            ("DELETE", format!("DELETE FROM {{tab}} WHERE {}", (p.sql)("geom"))),
        ] {
            db.execute("BEGIN").unwrap();
            let mut m = model.clone();
            writes(db, &mut m);
            let want = brute(&m, &p).len() as i64;
            for tab in ["t", "u"] {
                let got = rows(db, &stmt.replace("{tab}", tab));
                assert_eq!(got, vec![vec![want]], "{verb} {} on {tab}", p.name);
            }
            let ctx = format!("{verb} {}", p.name);
            assert_eq!(rows(db, "SELECT id FROM t"), rows(db, "SELECT id FROM u"), "{ctx}");
            db.execute("ROLLBACK").unwrap();
        }
    }
}

/// A transaction's own writes, applied to both tables and the model:
/// inserts inside and outside the window, geometry updates moving rows
/// into and out of it, and deletes.
fn own_writes(db: &Database, m: &mut Model) {
    let fresh = shapes(30, 3, 15.0, 40.0);
    for (i, g) in fresh.into_iter().enumerate() {
        let id = 10_000 + i as i64;
        for tab in ["t", "u"] {
            db.execute(&format!("INSERT INTO {tab} VALUES ({id}, {})", wkt(&g))).unwrap();
        }
        m.push((id, g));
    }
    let moved = shapes(20, 4, 10.0, 50.0);
    for (k, g) in moved.into_iter().enumerate() {
        let id = (k * 17) as i64;
        for tab in ["t", "u"] {
            db.execute(&format!("UPDATE {tab} SET geom = {} WHERE id = {id}", wkt(&g))).unwrap();
        }
        m.iter_mut().find(|(i, _)| *i == id).unwrap().1 = g;
    }
    for k in 0..20 {
        let id = (k * 13 + 5) as i64;
        for tab in ["t", "u"] {
            db.execute(&format!("DELETE FROM {tab} WHERE id = {id}")).unwrap();
        }
        m.retain(|(i, _)| *i != id);
    }
}

fn run(index_params: &str) {
    sdo_dbms::set_morsel_rows(8);
    let (db, mut model, v) = setup(index_params);
    let quadtree = index_params.contains("sdo_level");

    let fetched = check_selects(&db, &model, &v, "autocommit");

    db.execute("BEGIN").unwrap();
    let mut in_txn = model.clone();
    own_writes(&db, &mut in_txn);
    check_selects(&db, &in_txn, &v, "own uncommitted writes");
    db.execute("ROLLBACK").unwrap();

    check_dml(&db, &model, &|_, _| {});
    check_dml(&db, &model, &own_writes);

    // Grow both tables 2x with rows far from the window and the point:
    // answers stay, and so does every row fetch.
    for (i, g) in shapes(N, 5, 120.0, 75.0).into_iter().enumerate() {
        let id = 20_000 + i as i64;
        for tab in ["t", "u"] {
            db.insert_row(tab, vec![Value::Integer(id), Value::geometry(g.clone())]).unwrap();
        }
        model.push((id, g));
    }
    let grown = check_selects(&db, &model, &v, "grown 2x");
    for ((key, before), (_, after)) in fetched.iter().zip(&grown) {
        // A quadtree has no best-first search: SDO_NN ranks every row.
        if quadtree && key.0 == "nn" {
            continue;
        }
        assert_eq!(before, after, "{key:?}: row fetches grew with rows outside the query");
    }
}

#[test]
fn rtree_index_scan_matches_twin_and_brute_force() {
    run("tree_fanout=8");
}

#[test]
fn quadtree_index_scan_matches_twin_and_brute_force() {
    run("sdo_level=6 extent=0:0:200:200");
}
