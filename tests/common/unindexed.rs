//! The unindexed table `u` and WHERE clauses a table scan evaluates in
//! place, each with a brute-force oracle over a model of the rows:
//! shared by the streaming and MVCC differential suites. Every
//! statement runs prepared, so binds (a `ROWID` among them) reach the
//! scan as literals, as they do from a wire client.

use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Session;
use sdo_geom::{Geometry, RelateMask};
use sdo_storage::{RowId, Value};

/// One row of `u` as the oracle sees it. `rid` is known for the loaded
/// rows; rows a test inserts through SQL leave it `None`.
#[derive(Clone, Debug)]
pub struct URow {
    pub rid: Option<RowId>,
    pub id: i64,
    pub name: Option<String>,
    pub score: Option<i64>,
    pub geom: Geometry,
}

impl URow {
    pub fn new(id: i64, geom: Geometry) -> URow {
        let name = (id % 5 != 0).then(|| format!("n{}", id % 7));
        let score = (id % 4 != 0).then_some(id % 11);
        URow { rid: None, id, name, score, geom }
    }

    fn values(&self) -> Vec<Value> {
        vec![
            Value::Integer(self.id),
            self.name.as_deref().map_or(Value::Null, Value::from),
            self.score.map_or(Value::Null, Value::Integer),
            Value::geometry(self.geom.clone()),
        ]
    }
}

/// `n` county polygons from `seed`, ids `first..first + n`.
pub fn rows(first: i64, n: usize, seed: u64) -> Vec<URow> {
    let geoms = counties::generate(n, &US_EXTENT, seed);
    (first..).zip(geoms).map(|(id, g)| URow::new(id, g)).collect()
}

/// Create `u` and load 48 rows, returned in rowid order with their
/// rowids: every fifth name and every fourth score is NULL.
pub fn load(s: &Session) -> Vec<URow> {
    s.execute("CREATE TABLE u (id NUMBER, name VARCHAR2, score NUMBER, geom SDO_GEOMETRY)")
        .unwrap();
    let mut model = rows(0, 48, 5);
    for r in &mut model {
        r.rid = Some(s.database().insert_row("u", r.values()).unwrap());
    }
    model
}

/// Insert `r` through SQL in the session's current transaction.
pub fn insert(s: &Session, r: &URow) {
    s.prepare("u_ins", "INSERT INTO u VALUES (?, ?, ?, ?)").unwrap();
    s.execute_prepared("u_ins", &r.values()).unwrap();
}

/// A WHERE clause over `u`, its bind values, and the oracle's verdict
/// on one row.
pub struct Where {
    pub sql: String,
    pub binds: Vec<Value>,
    pub keep: Box<dyn Fn(&URow) -> bool>,
}

const WINDOW: &str = "POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))";

/// `=`, `<`, `<>` against binds and literals, NULL columns (a NULL
/// operand fails every comparison), a text column, `ROWID = ?`, a
/// qualified column, two columns, a conjunction, a function call, and
/// `SDO_RELATE` on a table with no index.
pub fn wheres(base: &[URow]) -> Vec<Where> {
    let rid = base[9].rid.expect("loaded rows carry their rowid");
    let window = sdo_geom::wkt::parse_wkt(WINDOW).unwrap();
    let mut areas: Vec<f64> = base.iter().map(|r| r.geom.area()).collect();
    areas.sort_by(f64::total_cmp);
    let area = areas[areas.len() / 2];
    let text = |r: &URow, f: &dyn Fn(&str) -> bool| r.name.as_deref().is_some_and(f);
    let score = |r: &URow, f: &dyn Fn(i64) -> bool| r.score.is_some_and(f);
    vec![
        Where {
            sql: "id = ?".into(),
            binds: vec![Value::Integer(7)],
            keep: Box::new(|r| r.id == 7),
        },
        Where {
            sql: "score < ?".into(),
            binds: vec![Value::Integer(5)],
            keep: Box::new(move |r| score(r, &|s| s < 5)),
        },
        Where {
            sql: "score <> ?".into(),
            binds: vec![Value::Integer(3)],
            keep: Box::new(move |r| score(r, &|s| s != 3)),
        },
        Where {
            sql: "name = ?".into(),
            binds: vec![Value::from("n2")],
            keep: Box::new(move |r| text(r, &|n| n == "n2")),
        },
        Where {
            sql: "name <> 'n2'".into(),
            binds: vec![],
            keep: Box::new(move |r| text(r, &|n| n != "n2")),
        },
        Where {
            sql: "ROWID = ?".into(),
            binds: vec![Value::RowId(rid)],
            keep: Box::new(move |r| r.rid == Some(rid)),
        },
        Where { sql: "u.id >= 30".into(), binds: vec![], keep: Box::new(|r| r.id >= 30) },
        Where {
            sql: "score < id".into(),
            binds: vec![],
            keep: Box::new(move |r| score(r, &|s| s < r.id)),
        },
        Where {
            sql: "score >= 2 AND name <> 'n1'".into(),
            binds: vec![],
            keep: Box::new(move |r| score(r, &|s| s >= 2) && text(r, &|n| n != "n1")),
        },
        Where {
            sql: "SDO_AREA(geom) > ?".into(),
            binds: vec![Value::Double(area)],
            keep: Box::new(move |r| r.geom.area() > area),
        },
        Where {
            sql: format!("SDO_RELATE(geom, SDO_GEOMETRY('{WINDOW}'), 'mask=ANYINTERACT') = 'TRUE'"),
            binds: vec![],
            keep: Box::new(move |r| {
                sdo_geom::relate::relate_any(&r.geom, &window, &[RelateMask::AnyInteract])
            }),
        },
    ]
}

fn run(s: &Session, name: &str, sql: String, w: &Where) -> Vec<Vec<Value>> {
    s.prepare(name, &sql).unwrap();
    s.execute_prepared(name, &w.binds).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
}

/// `SELECT id … WHERE w` (in scan order, which is rowid order) and
/// `SELECT COUNT(*) … WHERE w` against the oracle over `model`.
pub fn check_reads(s: &Session, w: &Where, model: &[URow], ctx: &str) {
    let want: Vec<i64> = model.iter().filter(|r| (w.keep)(r)).map(|r| r.id).collect();
    let got = run(s, "u_sel", format!("SELECT id FROM u WHERE {}", w.sql), w);
    let got: Vec<i64> = got.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert_eq!(got, want, "{ctx}: SELECT … WHERE {}", w.sql);
    let n = run(s, "u_cnt", format!("SELECT COUNT(*) FROM u WHERE {}", w.sql), w);
    assert_eq!(n, vec![vec![Value::Integer(want.len() as i64)]], "{ctx}: COUNT(*) WHERE {}", w.sql);
}

/// `UPDATE u SET score = id, name = 'upd' WHERE w`, checked against the
/// oracle's count and applied to `model`.
pub fn update(s: &Session, w: &Where, model: &mut [URow], ctx: &str) {
    let sql = format!("UPDATE u SET score = id, name = 'upd' WHERE {}", w.sql);
    let n = run(s, "u_upd", sql, w);
    let mut want = 0;
    for r in model.iter_mut().filter(|r| (w.keep)(r)) {
        (r.score, r.name) = (Some(r.id), Some("upd".into()));
        want += 1;
    }
    assert_eq!(n, vec![vec![Value::Integer(want)]], "{ctx}: UPDATE … WHERE {}", w.sql);
}

/// `DELETE FROM u WHERE w`, checked against the oracle's count and
/// applied to `model`.
pub fn delete(s: &Session, w: &Where, model: &mut Vec<URow>, ctx: &str) {
    let n = run(s, "u_del", format!("DELETE FROM u WHERE {}", w.sql), w);
    let before = model.len();
    model.retain(|r| !(w.keep)(r));
    let want = (before - model.len()) as i64;
    assert_eq!(n, vec![vec![Value::Integer(want)]], "{ctx}: DELETE … WHERE {}", w.sql);
}

/// Every row of `u` the session sees, in scan order, equals `model`,
/// and so does their count.
pub fn check_table(s: &Session, model: &[URow], ctx: &str) {
    let got = s.execute("SELECT id, name, score FROM u").unwrap().rows;
    let want: Vec<Vec<Value>> = model.iter().map(|r| r.values()[..3].to_vec()).collect();
    assert_eq!(got, want, "{ctx}: table contents");
    check_count(s, model, ctx);
}

/// `SELECT COUNT(*) FROM u`, unfiltered, equals the rows of `model`.
pub fn check_count(s: &Session, model: &[URow], ctx: &str) {
    let got = s.execute("SELECT COUNT(*) FROM u").unwrap().rows;
    assert_eq!(got, vec![vec![Value::Integer(model.len() as i64)]], "{ctx}: COUNT(*)");
}
