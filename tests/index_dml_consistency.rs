//! Domain-index maintenance: inserts and deletes through the engine
//! must keep both index kinds consistent with functional truth
//! ("inserts and updates ... automatically trigger an update of the
//! corresponding spatial indexes", paper §3).

use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
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
