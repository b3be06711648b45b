//! Cross-strategy join equivalence: nested-loop, R-tree table-function
//! join, and the partition join over quadtree-indexed inputs must
//! return identical row-pair sets.

use sdo_datagen::{counties, stars, SKY_EXTENT, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::{Geometry, Polygon, Rect};
use sdo_storage::Value;

fn session_with(table: &str, geoms: &[Geometry]) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in geoms.iter().enumerate() {
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
    db
}

fn pair_set(db: &Database, sql: &str) -> Vec<(u64, u64)> {
    let res = db.execute(sql).unwrap();
    let mut out: Vec<(u64, u64)> = res
        .rows
        .iter()
        .map(|r| (r[0].as_rowid().expect("rid1").as_u64(), r[1].as_rowid().expect("rid2").as_u64()))
        .collect();
    out.sort_unstable();
    out
}

fn brute_pairs(a: &[Geometry], b: &[Geometry], d: f64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for (i, ga) in a.iter().enumerate() {
        for (j, gb) in b.iter().enumerate() {
            if sdo_geom::within_distance(ga, gb, d) {
                out.push((i as u64, j as u64));
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn rtree_join_equals_brute_force_counties() {
    let a = counties::generate(70, &US_EXTENT, 100);
    let b = counties::generate(70, &US_EXTENT, 101);
    let db = session_with("ta", &a);
    db.execute("CREATE TABLE tb (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in b.iter().enumerate() {
        db.insert_row("tb", vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
    db.execute("CREATE INDEX ta_x ON ta(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("CREATE INDEX tb_x ON tb(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let got = pair_set(
        &db,
        "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('ta','geom','tb','geom','intersect'))",
    );
    assert_eq!(got, brute_pairs(&a, &b, 0.0));
    // distance join
    let got = pair_set(
        &db,
        "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('ta','geom','tb','geom','distance=2.5'))",
    );
    assert_eq!(got, brute_pairs(&a, &b, 2.5));
}

#[test]
fn quadtree_join_equals_rtree_join_stars() {
    let s = stars::generate(400, &SKY_EXTENT, 55);
    // R-tree session
    let db_r = session_with("s1", &s);
    db_r.execute("CREATE TABLE s2 (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in s.iter().enumerate() {
        db_r.insert_row("s2", vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
    db_r.execute("CREATE INDEX s1_x ON s1(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db_r.execute("CREATE INDEX s2_x ON s2(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let rtree_pairs = pair_set(
        &db_r,
        "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('s1','geom','s2','geom','intersect'))",
    );

    // Quadtree session over the same data
    let db_q = session_with("s1", &s);
    db_q.execute("CREATE TABLE s2 (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in s.iter().enumerate() {
        db_q.insert_row("s2", vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
    db_q.execute(
        "CREATE INDEX s1_q ON s1(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('sdo_level=9, extent=0:0:360:90')",
    )
    .unwrap();
    db_q.execute(
        "CREATE INDEX s2_q ON s2(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('sdo_level=9, extent=0:0:360:90')",
    )
    .unwrap();
    let quadtree_pairs = pair_set(
        &db_q,
        "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('s1','geom','s2','geom','intersect'))",
    );
    assert_eq!(rtree_pairs, quadtree_pairs);
    assert_eq!(rtree_pairs, brute_pairs(&s, &s, 0.0));
}

/// Two quadtree-indexed inputs at dop 1 equal brute force whatever
/// their extents, tiling levels or predicate. Each index derives its
/// extent from its own table's data, so tile codes of the two indexes
/// name different places and must never be compared.
#[test]
fn quadtree_inputs_at_dop_1_equal_brute_force() {
    let squares = |x0: f64, n: usize| -> Vec<Geometry> {
        (0..n)
            .map(|i| {
                let x = x0 + ((i * 53) % 97) as f64;
                let y = ((i * 31) % 89) as f64;
                let s = 2.0 + (i % 5) as f64;
                Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + s, y + s)))
            })
            .collect()
    };
    let (a, b) = (squares(0.0, 150), squares(50.0, 150));
    for (left, right, interaction, d) in [
        ("sdo_level=6", "sdo_level=6", "intersect", 0.0),
        ("sdo_level=6", "sdo_level=7", "intersect", 0.0),
        ("sdo_level=6", "sdo_level=6", "distance=2", 2.0),
    ] {
        let db = session_with("qa", &a);
        db.execute("CREATE TABLE qb (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        for (i, g) in b.iter().enumerate() {
            db.insert_row("qb", vec![Value::Integer(i as i64), Value::geometry(g.clone())])
                .unwrap();
        }
        for (t, params) in [("qa", left), ("qb", right)] {
            db.execute(&format!(
                "CREATE INDEX {t}_q ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('{params}')"
            ))
            .unwrap();
        }
        let got = pair_set(
            &db,
            &format!(
                "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('qa','geom','qb','geom','{interaction}', 1))"
            ),
        );
        let want = brute_pairs(&a, &b, d);
        assert!(!want.is_empty());
        assert_eq!(got, want, "{left} x {right}, {interaction}");
    }
}

#[test]
fn removed_join_options_are_rejected_at_parse_time() {
    // SPATIAL_JOIN takes no options argument: the inputs' indexes pick
    // the engine and SQL always runs the paper's fetch order and
    // candidate array. Any 8th argument fails the query before any
    // join work starts, with an error naming the removed argument.
    let a = counties::generate(4, &US_EXTENT, 301);
    let db = session_with("k", &a);
    db.execute("CREATE INDEX k_x ON k(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    for opt in [
        "kernel=simd",
        "prepare=off",
        "sweep_threshold=0",
        "schedule=static",
        "split=64",
        "method=partition",
        "fetch_order=arrival",
        "candidates=5",
        "cache=0",
    ] {
        let err = db
            .execute(&format!(
                "SELECT rid1, rid2 FROM TABLE( \
                 SPATIAL_JOIN('k','geom','k','geom','intersect', 1, -1, '{opt}'))"
            ))
            .expect_err("an options argument must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("options argument was removed"), "{opt}: {msg}");
    }
}
