//! Parallel index creation must produce indexes indistinguishable from
//! serially created ones (paper §5: the parallel build is a pure
//! performance optimization).

use sdo_datagen::{block_groups, US_EXTENT};
use sdo_dbms::Database;
use sdo_storage::Value;

fn fresh_session(n: usize) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE bg (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in block_groups::generate(n, &US_EXTENT, 5).into_iter().enumerate() {
        db.insert_row("bg", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
    db
}

const WINDOWS: [&str; 3] = [
    "SDO_GEOMETRY('POLYGON ((-120 30, -110 30, -110 40, -120 40, -120 30))')",
    "SDO_GEOMETRY('POLYGON ((-90 25, -70 25, -70 49, -90 49, -90 25))')",
    "SDO_GEOMETRY('POINT (-100 35)')",
];

fn query_fingerprint(db: &Database) -> Vec<Vec<i64>> {
    WINDOWS
        .iter()
        .map(|w| {
            let mut ids: Vec<i64> = db
                .execute(&format!(
                    "SELECT id FROM bg WHERE SDO_RELATE(geom, {w}, 'ANYINTERACT') = 'TRUE'"
                ))
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_integer().unwrap())
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

fn fingerprint_with(params: &str, parallel: usize, n: usize) -> Vec<Vec<i64>> {
    let db = fresh_session(n);
    db.execute(&format!(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('{params}') PARALLEL {parallel}"
    ))
    .unwrap();
    query_fingerprint(&db)
}

#[test]
fn rtree_creation_dop_equivalence() {
    let n = 150;
    let serial = fingerprint_with("tree_fanout=16", 1, n);
    for dop in [2, 4] {
        assert_eq!(fingerprint_with("tree_fanout=16", dop, n), serial, "dop={dop}");
    }
}

#[test]
fn quadtree_creation_dop_equivalence() {
    let n = 120;
    let params = "sdo_level=7, extent=-125:24:-66:50";
    let serial = fingerprint_with(params, 1, n);
    for dop in [2, 4] {
        assert_eq!(fingerprint_with(params, dop, n), serial, "dop={dop}");
    }
}

#[test]
fn creation_metadata_records_dop_and_kind() {
    let db = fresh_session(40);
    db.execute(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('sdo_level=6, extent=-125:24:-66:50') PARALLEL 4",
    )
    .unwrap();
    let meta = db.catalog().index_metadata("bg_x").unwrap();
    assert_eq!(meta.kind, sdo_storage::IndexKind::Quadtree);
    assert_eq!(meta.create_dop, 4);
    assert_eq!(meta.tiling_level, Some(6));
    assert_eq!(meta.table_name, "BG");
}

/// The one dynamic insert policy (quadratic split) and the STR bulk
/// load build different trees over the same rows; both answer alike.
#[test]
fn inserted_and_bulk_built_rtrees_answer_identically() {
    let n = 100;
    let bulk = fingerprint_with("tree_fanout=8", 1, n);
    let db = fresh_session(0);
    db.execute(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    for (i, g) in block_groups::generate(n, &US_EXTENT, 5).into_iter().enumerate() {
        db.insert_row("bg", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
    assert_eq!(query_fingerprint(&db), bulk);
}

/// `split`, `reinsert` and `index_type` are gone: a statement naming
/// one fails, and so does recovering an image that recorded one.
#[test]
fn removed_index_parameters_are_unknown() {
    let db = fresh_session(10);
    for (key, value) in [("split", "rstar"), ("reinsert", "true"), ("index_type", "RTREE")] {
        let err = db
            .execute(&format!(
                "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('{key}={value}')"
            ))
            .unwrap_err();
        assert!(err.to_string().contains(&format!("unknown index parameter '{key}'")), "{err}");
    }
    db.execute(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    // An older image's index parameters, in place (same length).
    let mut image = db.save_snapshot().to_vec();
    let at = image.windows(13).position(|w| w == b"tree_fanout=8").unwrap();
    image[at..at + 13].copy_from_slice(b"reinsert=true");
    let restored = Database::new();
    sdo_core::register_spatial(&restored);
    let err = restored.load_snapshot(&image[..]).unwrap_err();
    assert!(err.to_string().contains("unknown index parameter 'reinsert'"), "{err}");
}
