//! Failure injection and concurrency: a slave failure surfaces as a
//! SQL error without hanging the session, and concurrent queries /
//! DML against one session stay consistent.

use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::db::TfInstance;
use sdo_dbms::Database;
use sdo_storage::Value;
use sdo_tablefunc::parallel::ParallelTableFunction;
use sdo_tablefunc::table_function::BufferedFn;
use sdo_tablefunc::{Row, TableFunction, TfError};
use std::sync::Arc;

fn session_with_counties(n: usize, seed: u64) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in counties::generate(n, &US_EXTENT, seed).into_iter().enumerate() {
        db.insert_row("t", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
    db
}

struct PanickingFn;

impl TableFunction for PanickingFn {
    fn start(&mut self) -> Result<(), TfError> {
        Ok(())
    }
    fn fetch(&mut self, _: usize) -> Result<Vec<Row>, TfError> {
        panic!("injected slave failure")
    }
    fn close(&mut self) {}
}

#[test]
fn slave_panic_surfaces_as_sql_error() {
    let db = Database::new();
    db.register_table_function("FLAKY_PARALLEL", |_db, _snap, _args| {
        let good: Box<dyn TableFunction> =
            Box::new(BufferedFn::new(|| Ok((0..100).map(|i| vec![Value::Integer(i)]).collect())));
        let bad: Box<dyn TableFunction> = Box::new(PanickingFn);
        Ok(TfInstance {
            func: Box::new(ParallelTableFunction::new(vec![good, bad])),
            columns: vec!["N".into()],
        })
    });
    let err = db.execute("SELECT COUNT(*) FROM TABLE(FLAKY_PARALLEL())");
    match err {
        Err(sdo_dbms::DbError::TableFunction(TfError::SlavePanic(_))) => {}
        other => panic!("expected slave panic to surface, got {other:?}"),
    }
    // the session stays usable afterwards
    db.execute("CREATE TABLE ok (id NUMBER)").unwrap();
    db.execute("INSERT INTO ok VALUES (1)").unwrap();
    assert_eq!(db.execute("SELECT COUNT(*) FROM ok").unwrap().count(), Some(1));
}

#[test]
fn failing_table_function_error_propagates() {
    let db = Database::new();
    db.register_table_function("FAILS_MIDWAY", |_db, _snap, _args| {
        struct F(usize);
        impl TableFunction for F {
            fn start(&mut self) -> Result<(), TfError> {
                Ok(())
            }
            fn fetch(&mut self, _: usize) -> Result<Vec<Row>, TfError> {
                self.0 += 1;
                if self.0 > 3 {
                    Err(TfError::Execution("disk on fire".into()))
                } else {
                    Ok(vec![vec![Value::Integer(self.0 as i64)]])
                }
            }
            fn close(&mut self) {}
        }
        Ok(TfInstance { func: Box::new(F(0)), columns: vec!["N".into()] })
    });
    let err = db.execute("SELECT * FROM TABLE(FAILS_MIDWAY())").unwrap_err();
    assert!(err.to_string().contains("disk on fire"), "{err}");
}

#[test]
fn concurrent_readers_and_writers() {
    let db = Arc::new(session_with_counties(120, 31));
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let window = "SDO_GEOMETRY('POLYGON ((-110 28, -90 28, -90 45, -110 45, -110 28))')";
    let baseline = db
        .execute(&format!(
            "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, {window}, 'ANYINTERACT') = 'TRUE'"
        ))
        .unwrap()
        .count()
        .unwrap();
    assert!(baseline > 0);

    // 4 reader threads hammer window queries and joins while a writer
    // thread inserts and deletes rows far outside the window.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for _ in 0..20 {
                    let c = db
                        .execute(&format!(
                            "SELECT COUNT(*) FROM t WHERE \
                             SDO_RELATE(geom, {window}, 'ANYINTERACT') = 'TRUE'"
                        ))
                        .unwrap()
                        .count()
                        .unwrap();
                    assert_eq!(c, baseline, "reader saw torn state");
                    let j = db
                        .execute(
                            "SELECT COUNT(*) FROM TABLE( \
                             SPATIAL_JOIN('t','geom','t','geom','intersect', 2))",
                        )
                        .unwrap()
                        .count()
                        .unwrap();
                    assert!(j >= 120, "self join lost identity pairs: {j}");
                }
            });
        }
        let db_w = Arc::clone(&db);
        s.spawn(move || {
            for i in 0..20 {
                // Far outside the query window and the US extent.
                db_w.execute(&format!(
                    "INSERT INTO t VALUES ({}, \
                     SDO_GEOMETRY('POLYGON ((300 300, 301 300, 301 301, 300 301, 300 300))'))",
                    10_000 + i
                ))
                .unwrap();
                db_w.execute(&format!("DELETE FROM t WHERE id = {}", 10_000 + i)).unwrap();
            }
        });
    });

    // steady state: identical to the baseline
    let after = db
        .execute(&format!(
            "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, {window}, 'ANYINTERACT') = 'TRUE'"
        ))
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(after, baseline);
    assert_eq!(db.table("t").unwrap().read().len(), 120);
}

// -- WAL fault injection ----------------------------------------------------

fn crash_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sdo-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Kill the log mid-commit: the transaction whose commit record is
/// torn off must vanish entirely on recovery, and heap and spatial
/// index must agree on what survived.
#[test]
fn wal_torn_mid_commit_recovers_all_or_nothing() {
    let dir = crash_dir("torn-commit");
    {
        let db = Database::open(&dir).unwrap();
        sdo_core::register_spatial(&db);
        db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        db.execute(
            "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=8')",
        )
        .unwrap();
        for (i, g) in counties::generate(12, &US_EXTENT, 5).into_iter().enumerate() {
            db.insert_row("t", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
        }
        // The victim: a multi-row transaction committed last.
        db.execute("BEGIN").unwrap();
        db.execute(
            "INSERT INTO t VALUES (100, \
             SDO_GEOMETRY('POLYGON ((-100 30, -99 30, -99 31, -100 31, -100 30))'))",
        )
        .unwrap();
        db.execute(
            "INSERT INTO t VALUES (100, \
             SDO_GEOMETRY('POLYGON ((-100 30, -99 30, -99 31, -100 31, -100 30))'))",
        )
        .unwrap();
        db.execute("COMMIT").unwrap();
    }

    // Tear the final frame (the victim's commit record): cut its last
    // byte so the length/CRC check rejects it as a torn tail.
    let wal_path = dir.join(sdo_dbms::db::WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 1]).unwrap();

    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    db.recover_indexes().unwrap();
    let report = db.last_recovery().unwrap();
    assert!(report.discarded_txns >= 1, "victim transaction must be discarded");

    // All-or-nothing: neither of the victim's two rows survives.
    assert_eq!(db.execute("SELECT COUNT(*) FROM t WHERE id = 100").unwrap().count(), Some(0));
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().count(), Some(12));
    // Heap and index agree: the index finds nothing at the victim's
    // location, and exactly the surviving rows elsewhere.
    let probe = "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, \
                 SDO_GEOMETRY('POLYGON ((-101 29, -98 29, -98 32, -101 32, -101 29))'), \
                 'ANYINTERACT') = 'TRUE'";
    let full = "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, \
                SDO_GEOMETRY('POLYGON ((-130 20, -60 20, -60 55, -130 55, -130 20))'), \
                'ANYINTERACT') = 'TRUE'";
    let at_victim = db.execute(probe).unwrap().count().unwrap();
    let everywhere = db.execute(full).unwrap().count().unwrap();
    // The victim polygon sat alone at (-100,30)..(-99,31); counties may
    // overlap the probe window, so compare against a fresh rebuild.
    let rebuilt = {
        let db2 = Database::new();
        sdo_core::register_spatial(&db2);
        db2.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        for (i, g) in counties::generate(12, &US_EXTENT, 5).into_iter().enumerate() {
            db2.insert_row("t", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
        }
        db2.execute(
            "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=8')",
        )
        .unwrap();
        (db2.execute(probe).unwrap().count().unwrap(), db2.execute(full).unwrap().count().unwrap())
    };
    assert_eq!((at_victim, everywhere), rebuilt, "recovered index must equal a fresh build");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted (bit-flipped) record ends the durable prefix at the
/// corruption point — recovery keeps everything before it and never
/// errors out.
#[test]
fn wal_corrupt_record_ends_the_replayable_prefix() {
    let dir = crash_dir("bitflip");
    {
        let db = Database::open(&dir).unwrap();
        sdo_core::register_spatial(&db);
        db.execute("CREATE TABLE t (id NUMBER)").unwrap();
        for i in 0..5 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let wal_path = dir.join(sdo_dbms::db::WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Flip one payload byte three quarters of the way in.
    let victim = bytes.len() * 3 / 4;
    bytes[victim] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();

    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    db.recover_indexes().unwrap();
    let n = db.execute("SELECT COUNT(*) FROM t").unwrap().count().unwrap();
    assert!(n < 5, "the corrupted transaction and everything after must be gone");
    // Survivors form a prefix 0..n of the insert order.
    for i in 0..5 {
        let want = if (i as i64) < n { 1 } else { 0 };
        let c = db.execute(&format!("SELECT COUNT(*) FROM t WHERE id = {i}")).unwrap().count();
        assert_eq!(c, Some(want), "prefix property violated at id {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
