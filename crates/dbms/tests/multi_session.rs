//! Multi-session isolation: concurrent connections must never
//! observe each other's `ALTER SESSION` options, explicit
//! transactions, `EXPLAIN ANALYZE` profiles, or prepared statements —
//! all of which used to live in Database-global slots.

use sdo_dbms::{Database, Durability, SessionOptions};
use sdo_storage::Value;
use std::sync::{Arc, Barrier};

fn db_with_table() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id NUMBER, name VARCHAR)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')")).unwrap();
    }
    db
}

#[test]
fn session_options_do_not_leak_between_sessions() {
    let db = db_with_table();
    let s1 = db.session();
    let s2 = db.session();
    assert_ne!(s1.id(), s2.id());

    let default_rows = SessionOptions::default().max_resident_rows;
    s1.execute("ALTER SESSION SET max_resident_rows = 1234").unwrap();
    s1.execute("ALTER SESSION SET durability = buffered").unwrap();
    assert_eq!(s1.options().max_resident_rows, 1234);
    assert_eq!(s1.options().durability, Durability::Buffered);

    // s2 and the embedded default session keep their defaults.
    assert_eq!(s2.options().max_resident_rows, default_rows);
    assert_eq!(s2.options().durability, Durability::Fsync);
    assert_eq!(db.options().max_resident_rows, default_rows);

    // Engine-level defaults seed *new* sessions without touching
    // existing ones.
    db.set_default_option("max_resident_rows", "1234").unwrap();
    assert_eq!(s2.options().max_resident_rows, default_rows, "existing session must not change");
    assert_eq!(db.session().options().max_resident_rows, 1234, "new session inherits the default");
}

#[test]
fn max_resident_rows_accepts_full_u64_range() {
    let db = Arc::new(Database::new());
    let s = db.session();
    // Above i64::MAX: the old i64 parse rejected this legal value.
    let big = (i64::MAX as u64) + 7;
    s.set_option("max_resident_rows", &big.to_string()).unwrap();
    assert_eq!(s.options().max_resident_rows, big);
    // SQL numeric literals are i64-bounded in the lexer; the string
    // form carries the full u64 range through ALTER SESSION.
    s.execute(&format!("ALTER SESSION SET max_resident_rows = '{}'", u64::MAX)).unwrap();
    assert_eq!(s.options().max_resident_rows, u64::MAX);
    s.execute("ALTER SESSION SET max_resident_rows = 123456").unwrap();
    assert_eq!(s.options().max_resident_rows, 123_456);
    // Zero and garbage still fail.
    assert!(s.set_option("max_resident_rows", "0").is_err());
    assert!(s.set_option("max_resident_rows", "-1").is_err());
    assert!(s.set_option("max_resident_rows", "lots").is_err());
}

#[test]
fn sessions_hold_independent_explicit_transactions() {
    let db = db_with_table();
    let s1 = db.session();
    let s2 = db.session();

    // Two BEGINs at once — the old engine had one global slot and
    // would refuse the second.
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    assert!(s1.in_txn() && s2.in_txn());

    s1.execute("INSERT INTO t VALUES (100, 'from s1')").unwrap();
    s2.execute("INSERT INTO t VALUES (200, 'from s2')").unwrap();

    // Neither sees the other's uncommitted row; each sees its own.
    let count =
        |s: &sdo_dbms::Session| s.execute("SELECT COUNT(*) FROM t").unwrap().count().unwrap();
    assert_eq!(count(&s1), 6);
    assert_eq!(count(&s2), 6);

    s1.execute("COMMIT").unwrap();
    // s2's snapshot is still its transaction-begin view.
    assert_eq!(count(&s2), 6);
    s2.execute("COMMIT").unwrap();
    assert_eq!(count(&s2), 7);
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().count(), Some(7));
}

#[test]
fn rollback_and_drop_are_per_session() {
    let db = db_with_table();
    let s1 = db.session();
    let s2 = db.session();
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO t VALUES (100, 'doomed')").unwrap();
    s2.execute("INSERT INTO t VALUES (200, 'kept')").unwrap();
    s1.execute("ROLLBACK").unwrap();
    s2.execute("COMMIT").unwrap();
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().count(), Some(6));
    assert_eq!(db.execute("SELECT COUNT(*) FROM t WHERE id = 200").unwrap().count(), Some(1));

    // Dropping a session mid-transaction rolls it back.
    let s3 = db.session();
    s3.execute("BEGIN").unwrap();
    s3.execute("INSERT INTO t VALUES (300, 'dropped')").unwrap();
    drop(s3);
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().count(), Some(6));
}

#[test]
fn concurrent_explain_analyze_keeps_profiles_apart() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t1 (id NUMBER)").unwrap();
    db.execute("CREATE TABLE t2 (id NUMBER)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO t1 VALUES ({i})")).unwrap();
        db.execute(&format!("INSERT INTO t2 VALUES ({i})")).unwrap();
    }
    // Two sessions hammer EXPLAIN ANALYZE on different tables at the
    // same time; each must always read back its *own* statement's
    // profile. The old engine kept one global last_profile slot, so
    // this raced.
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = [("T1", 1i64), ("T2", 2i64)]
        .into_iter()
        .map(|(table, _)| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let s = db.session();
                barrier.wait();
                for _ in 0..50 {
                    s.execute(&format!("EXPLAIN ANALYZE SELECT COUNT(*) FROM {table}")).unwrap();
                    let profile = s.last_profile().expect("profile recorded");
                    let scan = format!("TABLE SCAN {table}");
                    assert!(
                        profile.root.find(&scan).is_some(),
                        "session saw a foreign profile: wanted {scan}, got\n{}",
                        profile.render_text()
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // The embedded default session never ran a statement here... but
    // the loading INSERTs above did, so it reports those, not the
    // sessions' EXPLAIN ANALYZE.
    let default_profile = db.last_profile().expect("default session profile");
    assert!(default_profile.root.find("INSERT").is_some());
}

#[test]
fn prepared_statements_are_session_private() {
    let db = db_with_table();
    let s1 = db.session();
    let s2 = db.session();
    let n = s1.prepare("pick", "SELECT name FROM t WHERE id = ?").unwrap();
    assert_eq!(n, 1);
    let r = s1.execute_prepared("pick", &[Value::Integer(2)]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::text("row2")]]);

    // s2 has no such statement — and SQL-level EXECUTE agrees.
    assert!(s2.execute_prepared("pick", &[Value::Integer(2)]).is_err());
    assert!(s2.execute("EXECUTE pick (2)").is_err());

    // SQL PREPARE/EXECUTE/DEALLOCATE round-trips within a session.
    s2.execute("PREPARE mine AS SELECT COUNT(*) FROM t WHERE id < ?").unwrap();
    let r = s2.execute("EXECUTE mine (3)").unwrap();
    assert_eq!(r.count(), Some(3));
    s2.execute("DEALLOCATE mine").unwrap();
    assert!(s2.execute("EXECUTE mine (3)").is_err());
    // s1's statement survived s2's deallocate of its own.
    s1.execute_prepared("pick", &[Value::Integer(1)]).unwrap();
}

#[test]
fn recursive_prepared_statements_error_instead_of_overflowing() {
    let db = db_with_table();
    let s = db.session();

    // Direct self-reference: PREPARE a AS EXECUTE a.
    s.execute("PREPARE a AS EXECUTE a").unwrap();
    let err = s.execute("EXECUTE a").unwrap_err().to_string();
    assert!(err.contains("depth"), "expected a depth-limit error, got: {err}");

    // Mutual recursion across two statements.
    s.execute("PREPARE b AS EXECUTE c").unwrap();
    s.execute("PREPARE c AS EXECUTE b").unwrap();
    assert!(s.execute("EXECUTE b").unwrap_err().to_string().contains("depth"));

    // The depth counter unwinds fully: bounded chains still work and
    // the session stays usable after the rejections.
    s.execute("PREPARE leaf AS SELECT COUNT(*) FROM t").unwrap();
    s.execute("PREPARE mid AS EXECUTE leaf").unwrap();
    assert_eq!(s.execute("EXECUTE mid").unwrap().count(), Some(5));
    assert_eq!(s.execute("SELECT COUNT(*) FROM t").unwrap().count(), Some(5));
}

#[test]
fn durability_is_captured_at_transaction_begin() {
    let db = db_with_table();
    let s = db.session();
    s.execute("ALTER SESSION SET durability = buffered").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (100, 'x')").unwrap();
    // Changing the option mid-transaction must not affect the open
    // transaction's commit policy (it was captured at BEGIN); this
    // just asserts the commit still succeeds and lands.
    s.execute("ALTER SESSION SET durability = fsync").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().count(), Some(6));
}

#[test]
fn session_count_tracks_attach_and_drop() {
    let db = Arc::new(Database::new());
    assert_eq!(db.session_count(), 0);
    let s1 = db.session();
    let s2 = db.session();
    assert_eq!(db.session_count(), 2);
    drop(s1);
    assert_eq!(db.session_count(), 1);
    drop(s2);
    assert_eq!(db.session_count(), 0);
}
