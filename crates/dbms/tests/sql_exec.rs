//! End-to-end SQL tests against the mini engine, using a toy
//! MBR-list domain index to exercise the extensible-indexing seam
//! without depending on the spatial crates above this one.

use parking_lot::RwLock;
use sdo_dbms::{Database, DbError, DomainIndex, IndexType, OperatorCall};
use sdo_geom::Rect;
use sdo_storage::{IndexKind, RowId, Value};
use sdo_tablefunc::table_function::BufferedFn;
use std::sync::Arc;

use sdo_storage::catalog::IndexMetadata;

/// A trivially simple domain index: a list of (rowid, mbr) pairs with
/// exact secondary filtering against stored geometries.
struct MbrListIndex {
    name: String,
    table: Arc<RwLock<sdo_storage::Table>>,
    column: usize,
    entries: Vec<(RowId, Rect)>,
}

impl DomainIndex for MbrListIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_insert(&mut self, rid: RowId, row: &[Value]) -> Result<(), DbError> {
        if let Some(g) = row[self.column].as_geometry() {
            self.entries.push((rid, g.bbox()));
        }
        Ok(())
    }

    fn on_delete(&mut self, rid: RowId, _row: &[Value]) -> Result<(), DbError> {
        self.entries.retain(|(r, _)| *r != rid);
        Ok(())
    }

    fn evaluate(&self, call: &OperatorCall) -> Result<Vec<RowId>, DbError> {
        let q = call.args[0]
            .as_geometry()
            .ok_or_else(|| DbError::Index("expected query geometry".into()))?;
        let mut qbb = q.bbox();
        if call.name.eq_ignore_ascii_case("SDO_WITHIN_DISTANCE") {
            qbb = qbb.expanded(sdo_dbms::exec::parse_distance(&call.args[1..])?);
        }
        let mut out = Vec::new();
        let table = self.table.read();
        for (rid, mbr) in &self.entries {
            if !mbr.intersects(&qbb) {
                continue;
            }
            let row = table.get(*rid).map_err(DbError::from)?;
            let Some(g) = row[self.column].as_geometry() else { continue };
            let extra: Vec<Value> = call.args[1..].to_vec();
            if sdo_dbms::exec::eval_spatial_fn(&call.name, g, q, &extra)? {
                out.push(*rid);
            }
        }
        Ok(out)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

struct MbrListType;

impl IndexType for MbrListType {
    fn create_index(
        &self,
        db: &Database,
        index_name: &str,
        table: &str,
        column: &str,
        _params: &str,
        dop: usize,
    ) -> Result<Box<dyn DomainIndex>, DbError> {
        let t = db.table(table)?;
        let col = t
            .read()
            .schema()
            .column_index(column)
            .ok_or_else(|| DbError::Plan(format!("no column {column}")))?;
        let mut entries = Vec::new();
        for (rid, row) in t.read().scan() {
            if let Some(g) = row[col].as_geometry() {
                entries.push((rid, g.bbox()));
            }
        }
        db.catalog().register_index(IndexMetadata {
            index_name: index_name.to_string(),
            table_name: table.to_ascii_uppercase(),
            column_name: column.to_ascii_uppercase(),
            kind: IndexKind::RTree,
            dimensions: 2,
            fanout: None,
            tiling_level: None,
            create_dop: dop,
            parameters: String::new(),
        })?;
        Ok(Box::new(MbrListIndex {
            name: index_name.to_string(),
            table: Arc::clone(&t),
            column: col,
            entries,
        }))
    }

    fn operators(&self) -> &[&'static str] {
        &["SDO_RELATE", "SDO_WITHIN_DISTANCE", "SDO_FILTER"]
    }
}

fn setup() -> Database {
    let db = Database::new();
    db.register_indextype("SPATIAL_INDEX", Arc::new(MbrListType));
    db.execute("CREATE TABLE squares (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    // 5x5 grid of 2x2 squares spaced 3 apart: neighbours don't touch
    for i in 0..25 {
        let (gx, gy) = ((i % 5) * 3, (i / 5) * 3);
        let wkt = format!(
            "POLYGON (({gx} {gy}, {x1} {gy}, {x1} {y1}, {gx} {y1}, {gx} {gy}))",
            x1 = gx + 2,
            y1 = gy + 2
        );
        db.execute(&format!("INSERT INTO squares VALUES ({i}, SDO_GEOMETRY('{wkt}'))")).unwrap();
    }
    db
}

#[test]
fn create_insert_select_star() {
    let db = setup();
    let r = db.execute("SELECT * FROM squares").unwrap();
    assert_eq!(r.columns, vec!["ID", "GEOM"]);
    assert_eq!(r.rows.len(), 25);
}

#[test]
fn count_star_and_residual_filters() {
    let db = setup();
    assert_eq!(db.execute("SELECT COUNT(*) FROM squares").unwrap().count(), Some(25));
    assert_eq!(db.execute("SELECT COUNT(*) FROM squares WHERE id < 10").unwrap().count(), Some(10));
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM squares WHERE id >= 10 AND id != 12").unwrap().count(),
        Some(14)
    );
}

#[test]
fn window_query_without_index_uses_functional_path() {
    let db = setup();
    let r = db
        .execute(
            "SELECT id FROM squares WHERE \
             SDO_RELATE(geom, SDO_GEOMETRY('POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))'), \
             'ANYINTERACT') = 'TRUE'",
        )
        .unwrap();
    // squares 0, 1, 5, 6 intersect the window [0,4]^2
    let mut ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_integer().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 5, 6]);
}

#[test]
fn window_query_with_index_matches_functional() {
    let db = setup();
    let sql = "SELECT COUNT(*) FROM squares WHERE \
               SDO_RELATE(geom, SDO_GEOMETRY('POLYGON ((1 1, 7 1, 7 7, 1 7, 1 1))'), \
               'ANYINTERACT') = 'TRUE'";
    let before = db.execute(sql).unwrap().count();
    db.execute("CREATE INDEX squares_sidx ON squares(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let after = db.execute(sql).unwrap().count();
    assert_eq!(before, after);
    assert!(after.unwrap() > 0);
}

#[test]
fn nested_loop_self_join() {
    let db = setup();
    db.execute("CREATE INDEX squares_sidx ON squares(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("CREATE TABLE probes (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    // one probe overlapping squares 0 and 1
    db.execute(
        "INSERT INTO probes VALUES (100, SDO_GEOMETRY('POLYGON ((1 0, 4 0, 4 2, 1 2, 1 0))'))",
    )
    .unwrap();
    let r = db
        .execute(
            "SELECT COUNT(*) FROM probes a, squares b \
             WHERE SDO_RELATE(a.geom, b.geom, 'ANYINTERACT') = 'TRUE'",
        )
        .unwrap();
    assert_eq!(r.count(), Some(2));
    // projecting both sides works too
    let r = db
        .execute(
            "SELECT a.id, b.id FROM probes a, squares b \
             WHERE SDO_RELATE(a.geom, b.geom, 'ANYINTERACT') = 'TRUE' AND b.id = 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].as_integer(), Some(100));
    assert_eq!(r.rows[0][1].as_integer(), Some(1));
}

#[test]
fn within_distance_join() {
    let db = setup();
    db.execute("CREATE INDEX squares_sidx ON squares(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    // neighbours are 1 apart; diagonal neighbours sqrt(2) apart
    let r = db
        .execute(
            "SELECT COUNT(*) FROM squares a, squares b \
             WHERE SDO_WITHIN_DISTANCE(a.geom, b.geom, 1) = 'TRUE'",
        )
        .unwrap();
    // each square matches itself + up to 4 orthogonal neighbours:
    // interior squares have 5, edges 4, corners 3.
    // 5x5 grid: 9 interior * 5 + 12 edge * 4 + 4 corner * 3 = 105
    assert_eq!(r.count(), Some(105));
}

#[test]
fn table_function_scan_and_rowid_pair_join() {
    let db = setup();
    // a table function returning all (rowid, rowid) identity pairs of
    // the squares table
    db.register_table_function("ID_PAIRS", |db, _snap, args| {
        let table = args[0].text()?.to_string();
        let t = db.table(&table)?;
        let rids: Vec<RowId> = t.read().scan().map(|(r, _)| r).collect();
        Ok(sdo_dbms::db::TfInstance {
            func: Box::new(BufferedFn::new(move || {
                Ok(rids.iter().map(|r| vec![Value::RowId(*r), Value::RowId(*r)]).collect())
            })),
            columns: vec!["RID1".into(), "RID2".into()],
        })
    });
    let r = db.execute("SELECT rid1, rid2 FROM TABLE(ID_PAIRS('squares'))").unwrap();
    assert_eq!(r.columns, vec!["RID1", "RID2"]);
    assert_eq!(r.rows.len(), 25);
    // drive a two-table semijoin from the pairs
    let r = db
        .execute(
            "SELECT COUNT(*) FROM squares a, squares b WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(ID_PAIRS('squares')))",
        )
        .unwrap();
    assert_eq!(r.count(), Some(25));
    // and with an extra residual filter
    let r = db
        .execute(
            "SELECT a.id FROM squares a, squares b WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(ID_PAIRS('squares'))) AND a.id < 3",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn cursor_arguments_materialize_subqueries() {
    let db = setup();
    db.register_table_function("COUNT_CURSOR", |_db, _snap, args| {
        let n = args[0].cursor()?.len() as i64;
        Ok(sdo_dbms::db::TfInstance {
            func: Box::new(BufferedFn::new(move || Ok(vec![vec![Value::Integer(n)]]))),
            columns: vec!["N".into()],
        })
    });
    let r = db
        .execute("SELECT n FROM TABLE(COUNT_CURSOR(CURSOR(SELECT id FROM squares WHERE id < 7)))")
        .unwrap();
    assert_eq!(r.rows[0][0].as_integer(), Some(7));
}

#[test]
fn dml_maintains_domain_indexes() {
    let db = setup();
    db.execute("CREATE INDEX squares_sidx ON squares(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let window_sql = "SELECT COUNT(*) FROM squares WHERE \
        SDO_RELATE(geom, SDO_GEOMETRY('POLYGON ((100 100, 104 100, 104 104, 100 104, 100 100))'), \
        'ANYINTERACT') = 'TRUE'";
    assert_eq!(db.execute(window_sql).unwrap().count(), Some(0));
    db.execute(
        "INSERT INTO squares VALUES (99, \
         SDO_GEOMETRY('POLYGON ((101 101, 102 101, 102 102, 101 102, 101 101))'))",
    )
    .unwrap();
    assert_eq!(db.execute(window_sql).unwrap().count(), Some(1));
    db.execute("DELETE FROM squares WHERE id = 99").unwrap();
    assert_eq!(db.execute(window_sql).unwrap().count(), Some(0));
}

#[test]
fn drop_table_and_index() {
    let db = setup();
    db.execute("CREATE INDEX squares_sidx ON squares(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("DROP INDEX squares_sidx").unwrap();
    assert!(db.execute("DROP INDEX squares_sidx").is_err());
    db.execute("DROP TABLE squares").unwrap();
    assert!(db.execute("SELECT * FROM squares").is_err());
}

#[test]
fn errors_are_reported() {
    let db = setup();
    assert!(matches!(db.execute("SELECT * FROM missing"), Err(DbError::Storage(_))));
    assert!(matches!(db.execute("SELECT ^"), Err(DbError::Parse { .. })));
    assert!(matches!(db.execute("SELECT nope FROM squares"), Err(DbError::Plan(_))));
    assert!(matches!(
        db.execute("INSERT INTO squares VALUES (1, SDO_GEOMETRY('POINT (bad)'))"),
        Err(DbError::Geometry(_))
    ));
    assert!(db.execute("CREATE INDEX i ON squares(geom) INDEXTYPE IS NOT_REGISTERED").is_err());
}

#[test]
fn rowid_projection() {
    let db = setup();
    let r = db.execute("SELECT rowid, id FROM squares WHERE id = 3").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0][0].as_rowid().is_some());
}

#[test]
fn order_by_and_limit() {
    let db = setup();
    let r = db.execute("SELECT id FROM squares ORDER BY id DESC LIMIT 3").unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_integer().unwrap()).collect();
    assert_eq!(ids, vec![24, 23, 22]);
    // ascending is the default; keys may be unprojected expressions
    let r = db.execute("SELECT id FROM squares WHERE id >= 20 ORDER BY id ASC").unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_integer().unwrap()).collect();
    assert_eq!(ids, vec![20, 21, 22, 23, 24]);
    // LIMIT 0
    assert!(db.execute("SELECT id FROM squares LIMIT 0").unwrap().rows.is_empty());
}

#[test]
fn scalar_geometry_functions() {
    let db = setup();
    // every square is 2x2 => area 4
    let r = db.execute("SELECT SDO_AREA(geom) a FROM squares WHERE id = 0").unwrap();
    assert_eq!(r.columns, vec!["A"]);
    assert_eq!(r.rows[0][0].as_double(), Some(4.0));

    let r = db.execute("SELECT SDO_NUM_POINTS(geom) FROM squares WHERE id = 0").unwrap();
    assert_eq!(r.rows[0][0].as_integer(), Some(4));

    // distance from each square to a fixed point, ordered
    let r = db
        .execute(
            "SELECT id, SDO_DISTANCE(geom, SDO_POINT(0, 0)) d FROM squares \
             ORDER BY SDO_DISTANCE(geom, SDO_POINT(0, 0)) LIMIT 2",
        )
        .unwrap();
    assert_eq!(r.rows[0][0].as_integer(), Some(0)); // square at origin
    assert_eq!(r.rows[0][1].as_double(), Some(0.0));
    assert!(r.rows[1][1].as_double().unwrap() > 0.0);

    // centroid + wkt round trip through SQL
    let r = db.execute("SELECT SDO_WKT(SDO_CENTROID(geom)) FROM squares WHERE id = 0").unwrap();
    assert_eq!(r.rows[0][0].as_text(), Some("POINT (1 1)"));

    // MBR of a geometry is a polygon
    let r = db.execute("SELECT SDO_MBR(geom) FROM squares WHERE id = 0").unwrap();
    assert!(r.rows[0][0].as_geometry().is_some());
}

#[test]
fn order_by_rejects_bad_keys() {
    let db = setup();
    assert!(db.execute("SELECT id FROM squares ORDER BY nope").is_err());
    assert!(db.execute("SELECT id FROM squares LIMIT -1").is_err());
    assert!(db.execute("SELECT id FROM squares ORDER id").is_err());
}

#[test]
fn length_and_validate_functions() {
    let db = setup();
    // 2x2 square: perimeter 8
    let r = db.execute("SELECT SDO_LENGTH(geom) FROM squares WHERE id = 0").unwrap();
    assert_eq!(r.rows[0][0].as_double(), Some(8.0));
    let r = db.execute("SELECT SDO_VALIDATE(geom) FROM squares WHERE id = 0").unwrap();
    assert_eq!(r.rows[0][0].as_text(), Some("TRUE"));
    // a bowtie fails validation with a reason
    db.execute(
        "INSERT INTO squares VALUES (500, \
         SDO_GEOMETRY('POLYGON ((0 0, 2 2, 2 0, 0 2, 0 0))'))",
    )
    .unwrap();
    let r = db.execute("SELECT SDO_VALIDATE(geom) FROM squares WHERE id = 500").unwrap();
    assert!(r.rows[0][0].as_text().unwrap().contains("self-intersect"));
}

#[test]
fn update_statement() {
    let db = setup();
    let r = db.execute("UPDATE squares SET id = 100 WHERE id = 5").unwrap();
    assert_eq!(r.rows[0][0].as_integer(), Some(1));
    assert_eq!(db.execute("SELECT COUNT(*) FROM squares WHERE id = 5").unwrap().count(), Some(0));
    assert_eq!(db.execute("SELECT COUNT(*) FROM squares WHERE id = 100").unwrap().count(), Some(1));
    // multiple assignments, expression referencing the row
    let r = db
        .execute("UPDATE squares SET id = 200, geom = SDO_GEOMETRY('POINT (1 1)') WHERE id = 100")
        .unwrap();
    assert_eq!(r.rows[0][0].as_integer(), Some(1));
    let g = db.execute("SELECT SDO_WKT(geom) FROM squares WHERE id = 200").unwrap();
    assert_eq!(g.rows[0][0].as_text(), Some("POINT (1 1)"));
    // no-match update
    let r = db.execute("UPDATE squares SET id = 1 WHERE id = 99999").unwrap();
    assert_eq!(r.rows[0][0].as_integer(), Some(0));
    // unknown column errors
    assert!(db.execute("UPDATE squares SET nope = 1").is_err());
}
