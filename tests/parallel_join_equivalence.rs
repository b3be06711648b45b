//! Parallel execution must be invisible in results: any DOP, any
//! descent level, any fetch size yields the serial row-pair multiset
//! (Figure 1's decomposition is a pure partitioning of the work).

use sdo_datagen::{stars, SKY_EXTENT};
use sdo_dbms::Database;
use sdo_storage::Value;

fn session(n: usize) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    let s = stars::generate(n, &SKY_EXTENT, 7);
    for t in ["a", "b"] {
        db.execute(&format!("CREATE TABLE {t} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
        for (i, g) in s.iter().enumerate() {
            db.insert_row(t, vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
        }
        db.execute(&format!(
            "CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=8')"
        ))
        .unwrap();
    }
    db
}

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

#[test]
fn dop_sweep_preserves_results() {
    let db = session(300);
    let serial =
        pairs(&db, "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','intersect'))");
    assert!(!serial.is_empty());
    for dop in [2, 3, 4, 8] {
        let par = pairs(
            &db,
            &format!(
                "SELECT rid1, rid2 FROM TABLE( \
                 SPATIAL_JOIN('a','geom','b','geom','intersect', {dop}))"
            ),
        );
        assert_eq!(par, serial, "dop={dop}");
    }
}

#[test]
fn descent_level_sweep_preserves_results() {
    let db = session(250);
    let serial =
        pairs(&db, "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','intersect'))");
    for level in [0, 1, 2] {
        let par = pairs(
            &db,
            &format!(
                "SELECT rid1, rid2 FROM TABLE( \
                 SPATIAL_JOIN('a','geom','b','geom','intersect', 2, {level}))"
            ),
        );
        assert_eq!(par, serial, "level={level}");
    }
}

#[test]
fn distance_join_parallel_equivalence() {
    let db = session(200);
    let serial = pairs(
        &db,
        "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','distance=2'))",
    );
    let par = pairs(
        &db,
        "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','distance=2', 4))",
    );
    assert_eq!(par, serial);
    assert!(serial.len() > 200, "distance join should match beyond identity pairs");
}
