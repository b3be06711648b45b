//! MVCC transaction semantics end-to-end: SQL transactions, snapshot
//! isolation under concurrent writers, first-updater-wins conflicts,
//! domain-index enlistment in rollback, and crash recovery replayed at
//! every WAL truncation point.

use sdo_dbms::{Database, DbError, Durability};
use sdo_geom::wkt::parse_wkt;
use sdo_storage::{RowId, StorageError, Value};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

fn session() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db
}

/// The unit square at "location" `loc` — locations are 10 apart so
/// squares at different locations never interact, and the two rows of
/// one transaction's pair (same location) always intersect each other.
fn pair_poly(loc: i64) -> Value {
    let x = (loc * 10) as f64;
    let x1 = x + 1.0;
    Value::geometry(parse_wkt(&format!("POLYGON (({x} 0, {x1} 0, {x1} 1, {x} 1, {x} 0))")).unwrap())
}

/// Index-backed window count at `loc` (the window covers exactly that
/// location's square and nothing else).
fn window_count(db: &Database, table: &str, loc: i64) -> i64 {
    let x0 = (loc * 10) as f64 - 0.5;
    let x1 = (loc * 10) as f64 + 1.5;
    db.execute(&format!(
        "SELECT COUNT(*) FROM {table} WHERE SDO_RELATE(geom, SDO_GEOMETRY('POLYGON (({x0} -0.5, \
         {x1} -0.5, {x1} 1.5, {x0} 1.5, {x0} -0.5))'), 'ANYINTERACT') = 'TRUE'"
    ))
    .unwrap()
    .count()
    .unwrap()
}

fn count(db: &Database, sql: &str) -> i64 {
    db.execute(sql).unwrap().count().unwrap()
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sdo-mvcc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn sql_txn_lifecycle_commit_rollback_and_errors() {
    let db = session();
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();

    // Rolled-back work vanishes; the transaction saw its own writes.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1, "own writes visible in-txn");
    db.execute("ROLLBACK").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 0, "rollback undoes the insert");

    // Committed work persists.
    db.execute("BEGIN WORK").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1);

    // Errors: COMMIT/ROLLBACK without a transaction, nested BEGIN,
    // DDL inside an explicit transaction.
    let e = db.execute("COMMIT").unwrap_err().to_string();
    assert!(e.contains("COMMIT"), "bad error: {e}");
    let e = db.execute("ROLLBACK").unwrap_err().to_string();
    assert!(e.contains("ROLLBACK"), "bad error: {e}");
    db.execute("BEGIN").unwrap();
    let e = db.execute("BEGIN").unwrap_err().to_string();
    assert!(e.contains("already in progress"), "bad error: {e}");
    let e = db.execute("CREATE TABLE t2 (id NUMBER)").unwrap_err().to_string();
    assert!(e.contains("transaction"), "DDL in txn must be rejected: {e}");
    db.execute("ROLLBACK").unwrap();
}

#[test]
fn session_txn_snapshot_is_repeatable_despite_concurrent_commits() {
    let db = session();
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();

    db.execute("BEGIN").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 0);

    // A detached transaction commits while the session txn is open.
    let mut w = db.begin();
    w.insert("t", vec![Value::Integer(99)]).unwrap();
    w.commit().unwrap();

    // The session still reads its BEGIN-time snapshot.
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 0, "snapshot must be repeatable");
    db.execute("COMMIT").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 1, "new snapshot sees the commit");
}

/// Every wire client is a session of its own: a table function called
/// from one must read that session's snapshot — its transaction's own
/// uncommitted rows included — not the default session's.
#[test]
fn table_functions_read_the_calling_sessions_snapshot() {
    let db = Arc::new(session());
    for (table, index) in [("plain", None), ("indexed", Some("indexed_sidx"))] {
        db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
        db.insert_row(table, vec![Value::Integer(1), pair_poly(1)]).unwrap();
        if let Some(index) = index {
            db.execute(&format!(
                "CREATE INDEX {index} ON {table}(geom) INDEXTYPE IS SPATIAL_INDEX"
            ))
            .unwrap();
        }
        let join = format!(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('{table}','geom','{table}','geom','intersect'))"
        );
        let tiles = format!("SELECT rid FROM TABLE(TESSELLATE('{table}','geom',4))");
        let tiled_rows = |s: &sdo_dbms::Session| {
            let rows = s.execute(&tiles).unwrap().rows;
            rows.iter()
                .map(|r| format!("{:?}", r[0]))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };

        let a = db.session();
        let other = db.session();
        a.execute("BEGIN").unwrap();
        a.execute(&format!("INSERT INTO {table} VALUES (2, {})", wkt_literal(2))).unwrap();
        let in_a = |sql: &str| a.execute(sql).unwrap().count().unwrap();
        let in_other = |sql: &str| other.execute(sql).unwrap().count().unwrap();
        assert_eq!(in_a(&join), 2, "{table}: the session sees its own row");
        assert_eq!(tiled_rows(&a), 2, "{table}: tessellates its own row too");
        assert_eq!(tiled_rows(&other), 1, "{table}: others tessellate only the committed row");
        assert_eq!(in_other(&join), 1, "{table}: others do not see it");
        assert_eq!(count(&db, &join), 1, "{table}: nor does the default session");
        a.execute("COMMIT").unwrap();
        assert_eq!(in_other(&join), 2, "{table}: committed");
    }
}

/// A reader's snapshot keeps every version it can see while writers
/// churn the same rows, and once it ends the dead versions are gone.
#[test]
fn pruning_spares_open_snapshots_and_then_frees_dead_versions() {
    let db = Arc::new(session());
    db.execute("CREATE TABLE t (id NUMBER, v NUMBER)").unwrap();
    for id in 0..10 {
        db.insert_row("t", vec![Value::Integer(id), Value::Integer(0)]).unwrap();
    }
    let read_all = |s: &sdo_dbms::Session| s.execute("SELECT id, v FROM t ORDER BY id").unwrap();
    let a = db.session();
    a.execute("BEGIN").unwrap();
    let original = read_all(&a);
    assert_eq!(original.rows.len(), 10);

    let b = db.session();
    for i in 1..=500 {
        b.execute(&format!("UPDATE t SET v = {i} WHERE id < 5")).unwrap();
        b.execute("DELETE FROM t WHERE id = 9").unwrap();
        b.execute(&format!("INSERT INTO t VALUES (9, {i})")).unwrap();
    }
    let table = db.table("t").unwrap();
    assert!(table.read().version_count() > 500 * 6, "A's snapshot holds the history back");
    assert_eq!(read_all(&a), original, "A still sees its original rows");
    assert_eq!(read_all(&b).rows[0][1], Value::Integer(500));

    a.execute("COMMIT").unwrap();
    let t = table.read();
    assert_eq!(t.len(), 10);
    assert!(
        t.version_count() <= t.len(),
        "{} versions for {} live rows and no write in flight",
        t.version_count(),
        t.len()
    );
}

#[test]
fn write_write_conflict_first_updater_wins() {
    let db = session();
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();
    let rid = db.insert_row("t", vec![Value::Integer(1)]).unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.update("t", rid, vec![Value::Integer(10)]).unwrap();
    match t2.update("t", rid, vec![Value::Integer(20)]) {
        Err(DbError::Storage(StorageError::WriteConflict(r))) => assert_eq!(r, rid),
        other => panic!("expected WriteConflict, got {other:?}"),
    }
    t2.rollback();
    t1.commit().unwrap();

    // The conflict clears once the first updater is done.
    let mut t3 = db.begin();
    t3.update("t", rid, vec![Value::Integer(30)]).unwrap();
    t3.commit().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t WHERE id = 30"), 1);
}

#[test]
fn rollback_restores_heap_and_spatial_index_together() {
    let db = session();
    db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    db.insert_row("t", vec![Value::Integer(5), pair_poly(5)]).unwrap();
    db.insert_row("t", vec![Value::Integer(5), pair_poly(5)]).unwrap();
    db.execute(
        "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();

    // Inserted geometry is index-visible to the inserting transaction,
    // and rollback removes it from heap and index alike.
    db.execute("BEGIN").unwrap();
    db.execute(&format!("INSERT INTO t VALUES (7, {})", wkt_literal(7))).unwrap();
    db.execute(&format!("INSERT INTO t VALUES (7, {})", wkt_literal(7))).unwrap();
    assert_eq!(window_count(&db, "t", 7), 2, "own inserts visible through the index");
    db.execute("ROLLBACK").unwrap();
    assert_eq!(window_count(&db, "t", 7), 0, "rolled-back rows gone from the index");
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 2, "heap agrees");

    // A rolled-back DELETE leaves the rows index-findable.
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM t WHERE id = 5").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 0, "own deletes visible in-txn");
    db.execute("ROLLBACK").unwrap();
    assert_eq!(window_count(&db, "t", 5), 2, "rolled-back delete restores index hits");

    // A committed transactional insert is durable in both.
    db.execute("BEGIN").unwrap();
    db.execute(&format!("INSERT INTO t VALUES (9, {})", wkt_literal(9))).unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(window_count(&db, "t", 9), 1);
}

fn wkt_literal(loc: i64) -> String {
    let x = (loc * 10) as f64;
    let x1 = x + 1.0;
    format!("SDO_GEOMETRY('POLYGON (({x} 0, {x1} 0, {x1} 1, {x} 1, {x} 0))')")
}

/// The acceptance centrepiece: ≥4 concurrent writer transactions
/// (inserts, pair-moves, pair-deletes, rollbacks) against concurrent
/// snapshot readers, one of which streams a parallel SPATIAL_JOIN
/// mid-commit. Every transaction writes its two rows as an identical
/// square at a transaction-unique location, so any consistent snapshot
/// holds complete pairs only: COUNT(*) must be even, and the
/// self-join count must be an exact multiple of one pair's
/// contribution. A torn read (half a pair visible, or an index entry
/// without its heap row) breaks the modulus.
#[test]
fn concurrent_writers_and_snapshot_readers_see_no_torn_state() {
    let db = session();
    db.execute("CREATE TABLE a (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    db.execute(
        "CREATE INDEX a_x ON a(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();

    // Calibrate one complete pair's contribution to the self-join.
    db.insert_row("a", vec![Value::Integer(0), pair_poly(0)]).unwrap();
    db.insert_row("a", vec![Value::Integer(0), pair_poly(0)]).unwrap();
    let join_sql = "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('a','geom','a','geom','intersect', 2))";
    let per_pair = count(&db, join_sql);
    assert!(per_pair > 0, "calibration pair must self-join");

    const WRITERS: usize = 4;
    const TXNS: i64 = 60;
    let net_pairs = AtomicI64::new(1); // the calibration pair
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(WRITERS + 2);

    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let (db, barrier, net_pairs) = (&db, &barrier, &net_pairs);
            writer_handles.push(s.spawn(move || {
                barrier.wait();
                for j in 0..TXNS {
                    let loc = 1 + (w as i64) * 1000 + j;
                    let mut t = db.begin();
                    let r1 = t.insert("a", vec![Value::Integer(loc), pair_poly(loc)]).unwrap();
                    let r2 = t.insert("a", vec![Value::Integer(loc), pair_poly(loc)]).unwrap();
                    if j % 5 == 4 {
                        t.rollback();
                        continue;
                    }
                    t.commit().unwrap();
                    net_pairs.fetch_add(1, Ordering::Relaxed);
                    match j % 3 {
                        // Move the pair: one transaction updates both
                        // rows to a new (still unique) location.
                        0 => {
                            let dest = loc + 500_000;
                            let mut t = db.begin();
                            t.update("a", r1, vec![Value::Integer(loc), pair_poly(dest)]).unwrap();
                            t.update("a", r2, vec![Value::Integer(loc), pair_poly(dest)]).unwrap();
                            t.commit().unwrap();
                        }
                        // Remove the pair: one transaction deletes both.
                        1 => {
                            let mut t = db.begin();
                            t.delete("a", r1).unwrap();
                            t.delete("a", r2).unwrap();
                            t.commit().unwrap();
                            net_pairs.fetch_sub(1, Ordering::Relaxed);
                        }
                        _ => {}
                    }
                }
            }));
        }
        for _ in 0..2 {
            let (db, barrier, done) = (&db, &barrier, &done);
            s.spawn(move || {
                barrier.wait();
                let mut iters = 0u64;
                while !done.load(Ordering::Relaxed) || iters < 3 {
                    let c = count(db, "SELECT COUNT(*) FROM a");
                    assert_eq!(c % 2, 0, "torn heap read: COUNT(*) = {c}");
                    let j = count(db, join_sql);
                    assert_eq!(j % per_pair, 0, "torn join read: {j} not a multiple of {per_pair}");
                    iters += 1;
                }
            });
        }
        for h in writer_handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    // Quiesced final state: exact counts, heap and index in agreement.
    let pairs = net_pairs.load(Ordering::Relaxed);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM a"), 2 * pairs);
    assert_eq!(count(&db, join_sql), pairs * per_pair);
}

/// Crash the WAL at *every* frame boundary (plus mid-frame cuts) of a
/// scripted workload and reopen: the recovered state must be exactly
/// the serial prefix of committed transactions — each transaction's
/// pair all-or-nothing — and the rebuilt R-tree must agree with the
/// recovered heap at every location.
#[test]
fn crash_recovery_at_every_wal_point_yields_a_committed_prefix() {
    let dir = fresh_dir("crash-src");

    // Scripted workload: five committed transactions (insert, insert,
    // move, delete, insert) and one left uncommitted at the end.
    {
        let db = Database::open(&dir).unwrap();
        sdo_core::register_spatial(&db);
        db.execute("CREATE TABLE a (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        db.execute(
            "CREATE INDEX a_x ON a(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
        )
        .unwrap();

        let insert_pair = |t: &mut sdo_dbms::Txn<'_>, id: i64, loc: i64| -> (RowId, RowId) {
            let r1 = t.insert("a", vec![Value::Integer(id), pair_poly(loc)]).unwrap();
            let r2 = t.insert("a", vec![Value::Integer(id), pair_poly(loc)]).unwrap();
            (r1, r2)
        };
        let mut t1 = db.begin();
        let (p1a, p1b) = insert_pair(&mut t1, 1, 1);
        t1.commit().unwrap();
        let mut t2 = db.begin();
        let (p2a, p2b) = insert_pair(&mut t2, 2, 2);
        t2.commit().unwrap();
        let mut t3 = db.begin();
        t3.update("a", p1a, vec![Value::Integer(1), pair_poly(8)]).unwrap();
        t3.update("a", p1b, vec![Value::Integer(1), pair_poly(8)]).unwrap();
        t3.commit().unwrap();
        let mut t4 = db.begin();
        t4.delete("a", p2a).unwrap();
        t4.delete("a", p2b).unwrap();
        t4.commit().unwrap();
        let mut t5 = db.begin();
        insert_pair(&mut t5, 3, 3);
        t5.commit().unwrap();
        let mut t6 = db.begin();
        insert_pair(&mut t6, 4, 4);
        drop(t6); // in flight at the crash — abort record is advisory
    }

    // Expected (id, loc) multiset after each committed prefix.
    let states: [&[(i64, i64)]; 6] =
        [&[], &[(1, 1)], &[(1, 1), (2, 2)], &[(1, 8), (2, 2)], &[(1, 8)], &[(1, 8), (3, 3)]];
    let all_ids = [1i64, 2, 3, 4];
    let all_locs = [1i64, 2, 3, 4, 8];

    // Frame boundaries from the on-disk [len][crc][payload] framing.
    let wal_bytes = std::fs::read(dir.join(sdo_dbms::db::WAL_FILE)).unwrap();
    let mut cuts = vec![wal_bytes.len()];
    let mut pos = 0usize;
    while pos + 8 <= wal_bytes.len() {
        let len = u32::from_le_bytes(wal_bytes[pos..pos + 4].try_into().unwrap()) as usize;
        cuts.push(pos); // clean cut at the frame start
        cuts.push(pos + 3); // torn cut inside the frame header
        if len > 1 {
            cuts.push(pos + 8 + len / 2); // torn cut inside the payload
        }
        pos += 8 + len;
    }
    cuts.sort_unstable();
    cuts.dedup();
    assert!(cuts.len() > 20, "workload produced too few WAL frames: {}", cuts.len());

    for (case, &cut) in cuts.iter().enumerate() {
        let crash_dir = fresh_dir(&format!("crash-{case}"));
        std::fs::write(crash_dir.join(sdo_dbms::db::WAL_FILE), &wal_bytes[..cut]).unwrap();

        let db = Database::open(&crash_dir).unwrap();
        sdo_core::register_spatial(&db);
        let rebuilt = db.recover_indexes().unwrap();
        let report = db.last_recovery().unwrap();
        let k = report.committed_txns;
        assert!(k <= 5, "cut {cut}: impossible commit count {k}");

        if db.execute("SELECT COUNT(*) FROM a").is_err() {
            // The cut fell before CREATE TABLE reached the log.
            assert_eq!(k, 0, "cut {cut}: table lost but commits found");
            let _ = std::fs::remove_dir_all(&crash_dir);
            continue;
        }
        let expected = states[k];
        assert_eq!(
            count(&db, "SELECT COUNT(*) FROM a"),
            2 * expected.len() as i64,
            "cut {cut}: row count is not the k={k} prefix"
        );
        for id in all_ids {
            let want = if expected.iter().any(|&(e, _)| e == id) { 2 } else { 0 };
            assert_eq!(
                count(&db, &format!("SELECT COUNT(*) FROM a WHERE id = {id}")),
                want,
                "cut {cut}: transaction {id} not all-or-nothing"
            );
        }
        // The rebuilt R-tree answers every location exactly like the
        // recovered heap says it should.
        if rebuilt > 0 {
            for loc in all_locs {
                let want = if expected.iter().any(|&(_, l)| l == loc) { 2 } else { 0 };
                assert_eq!(
                    window_count(&db, "a", loc),
                    want,
                    "cut {cut}: index disagrees with heap at location {loc}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn alter_session_durability_and_value_validation() {
    let dir = fresh_dir("buffered");
    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);

    assert_eq!(db.options().durability, Durability::Fsync, "fsync is the default");
    db.execute("ALTER SESSION SET durability = buffered").unwrap();
    assert_eq!(db.options().durability, Durability::Buffered);

    // Unknown values are rejected with the option named.
    let e = db.execute("ALTER SESSION SET durability = sometimes").unwrap_err().to_string();
    assert!(e.contains("DURABILITY") && e.contains("sometimes"), "bad error: {e}");
    let e = db.execute("ALTER SESSION SET parallel_dop = maybe").unwrap_err().to_string();
    assert!(e.contains("PARALLEL_DOP") && e.to_lowercase().contains("maybe"), "bad error: {e}");
    let e = db.execute("ALTER SESSION SET frobnicate = on").unwrap_err().to_string();
    assert!(e.contains("frobnicate"), "bad error: {e}");

    // Buffered commits still reach the log file and replay on reopen.
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("COMMIT").unwrap();
    drop(db);

    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An uncommitted `UPDATE … SET geom` leaves the row's old and new
/// index entries side by side. A join candidate through either entry
/// fetches the one heap version its snapshot sees, so the join must
/// drop the entry whose MBR is not that version's: the writer and every
/// other session each get every pair exactly once, equal to a nested
/// loop over the rows they see. The moved square still overlaps its old
/// partner, so both entries reach the same pair and only the MBR check
/// keeps it single. Covers the tree join (R-tree inputs) and the
/// partition join (quadtree inputs) at dop 1 and 2.
#[test]
fn moved_row_joins_exactly_once_for_its_writer_and_for_others() {
    type Pairs = Vec<(u64, u64)>;
    fn geoms(s: &sdo_dbms::Session, table: &str) -> Vec<(u64, sdo_geom::Geometry)> {
        let rows = s.execute(&format!("SELECT rowid, geom FROM {table}")).unwrap().rows;
        rows.iter()
            .map(|r| (r[0].as_rowid().unwrap().as_u64(), (**r[1].as_geometry().unwrap()).clone()))
            .collect()
    }
    fn brute(s: &sdo_dbms::Session) -> Pairs {
        let mut out = Vec::new();
        for (l, lg) in geoms(s, "l") {
            for (r, rg) in geoms(s, "r") {
                if sdo_geom::relate::relate_any(&lg, &rg, &[sdo_geom::RelateMask::AnyInteract]) {
                    out.push((l, r));
                }
            }
        }
        out.sort_unstable();
        out
    }

    for (params, engine) in [("tree_fanout=4", "rtree"), ("sdo_level=6", "partition")] {
        let db = Arc::new(session());
        for t in ["l", "r"] {
            db.execute(&format!("CREATE TABLE {t} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
            for loc in 0..6 {
                db.insert_row(t, vec![Value::Integer(loc), pair_poly(loc)]).unwrap();
            }
            db.execute(&format!(
                "CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('{params}')"
            ))
            .unwrap();
        }
        let (writer, other) = (db.session(), db.session());
        let committed = brute(&other);
        writer.execute("BEGIN").unwrap();
        // Row 1 moves from [10, 11] to [10.5, 20.5]: it keeps its old
        // partner r1 and gains r2.
        writer
            .execute(
                "UPDATE l SET geom = SDO_GEOMETRY('POLYGON ((10.5 0, 20.5 0, 20.5 1, \
                 10.5 1, 10.5 0))') WHERE id = 1",
            )
            .unwrap();
        let moved = brute(&writer);
        assert_eq!(moved.len(), committed.len() + 1, "{engine}: the move gains one pair");

        for dop in [1, 2] {
            let sql = format!(
                "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN('l','geom','r','geom','intersect', {dop}))"
            );
            for (s, want, who) in [(&writer, &moved, "writer"), (&other, &committed, "other")] {
                let mut got: Pairs = s
                    .execute(&sql)
                    .unwrap()
                    .rows
                    .iter()
                    .map(|r| (r[0].as_rowid().unwrap().as_u64(), r[1].as_rowid().unwrap().as_u64()))
                    .collect();
                got.sort_unstable();
                let ctx = format!("{engine} dop={dop} {who}");
                assert!(got.windows(2).all(|w| w[0] != w[1]), "{ctx}: duplicate pair {got:?}");
                assert_eq!(&got, want, "{ctx}");
                let profile = s.last_profile().unwrap();
                let chosen = profile.root.walk().into_iter().find_map(|(_, n)| {
                    n.attrs.iter().find(|(k, _)| k == "method_chosen").map(|(_, v)| v.clone())
                });
                assert_eq!(chosen.as_deref(), Some(engine), "{ctx}");
            }
        }
        writer.execute("ROLLBACK").unwrap();
    }
}

#[path = "common/unindexed.rs"]
mod unindexed;

/// Unindexed `SELECT`, `COUNT(*)`, `UPDATE` and `DELETE` under each
/// WHERE clause the scan evaluates in place (see `common/unindexed.rs`),
/// at dop 1 and 4 with 8-row morsels. Session `a` runs them inside a
/// transaction that has made its own inserts, updates and deletes; `b`
/// reads beside it, then pins a snapshot with `BEGIN` and keeps it
/// across `a`'s commit. Each answer equals the brute-force oracle over
/// the rows that session may see.
#[test]
fn unindexed_scans_see_own_writes_and_keep_a_pinned_snapshot() {
    sdo_dbms::set_morsel_rows(8);
    let fresh = |dop: usize| {
        let db = Arc::new(session());
        let (a, b) = (db.session(), db.session());
        for s in [&a, &b] {
            s.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        }
        let base = unindexed::load(&a);
        (a, b, base)
    };
    let wheres = unindexed::wheres(&fresh(1).2);
    for dop in [1, 4] {
        for w in &wheres {
            let (a, b, base) = fresh(dop);
            let ctx = |who: &str| format!("dop {dop}, {who}");

            a.execute("BEGIN").unwrap();
            let mut mine = base.clone();
            for r in unindexed::rows(100, 6, 9) {
                unindexed::insert(&a, &r);
                mine.push(r);
            }
            a.execute("UPDATE u SET score = 1, name = 'n2' WHERE id < 6").unwrap();
            for r in mine.iter_mut().filter(|r| r.id < 6) {
                (r.score, r.name) = (Some(1), Some("n2".into()));
            }
            a.execute("DELETE FROM u WHERE id >= 40 AND id < 44").unwrap();
            mine.retain(|r| !(40..44).contains(&r.id));
            unindexed::check_reads(&a, w, &mine, &ctx("own writes"));
            unindexed::check_reads(&b, w, &base, &ctx("beside an open transaction"));

            b.execute("BEGIN").unwrap();
            unindexed::check_reads(&b, w, &base, &ctx("pinned reader"));
            unindexed::update(&a, w, &mut mine, &ctx("own writes"));
            unindexed::check_reads(&a, w, &mine, &ctx("own writes, updated"));
            unindexed::delete(&a, w, &mut mine, &ctx("own writes"));
            unindexed::check_table(&a, &mine, &ctx("own writes"));
            a.execute("COMMIT").unwrap();

            unindexed::check_reads(&b, w, &base, &ctx("pinned reader after the commit"));
            unindexed::check_table(&b, &base, &ctx("pinned reader after the commit"));
            b.execute("COMMIT").unwrap();
            unindexed::check_reads(&b, w, &mine, &ctx("after the pin"));
            unindexed::check_table(&b, &mine, &ctx("after the pin"));
        }
    }
}

/// `COUNT(*)` over an unindexed table: the scan counts the rows that
/// pass its predicates without building them, unfiltered and under each
/// WHERE clause (cheap conjuncts tested in place, costly ones on kept
/// handles). Inside a transaction it counts that transaction's own
/// uncommitted insert and delete, which a second session does not see,
/// and after `ROLLBACK` neither does the first.
#[test]
fn count_star_counts_own_uncommitted_writes_against_brute_force() {
    let db = Arc::new(session());
    let (a, b) = (db.session(), db.session());
    let base = unindexed::load(&a);
    let wheres = unindexed::wheres(&base);
    unindexed::check_count(&a, &base, "autocommit");
    for w in &wheres {
        unindexed::check_reads(&a, w, &base, "autocommit");
    }

    a.execute("BEGIN").unwrap();
    let mut mine = base.clone();
    let new = unindexed::rows(200, 2, 11);
    for r in &new {
        unindexed::insert(&a, r);
    }
    mine.extend(new);
    // One of its own inserts and one committed row.
    for id in [201, 3] {
        let n = a.execute(&format!("DELETE FROM u WHERE id = {id}")).unwrap().rows;
        assert_eq!(n, vec![vec![Value::Integer(1)]]);
    }
    mine.retain(|r| r.id != 201 && r.id != 3);
    assert_eq!(mine.len(), base.len());
    unindexed::check_count(&a, &mine, "own insert and delete");
    unindexed::check_count(&b, &base, "beside an open transaction");
    for w in &wheres {
        unindexed::check_reads(&a, w, &mine, "own insert and delete");
        unindexed::check_reads(&b, w, &base, "beside an open transaction");
    }
    a.execute("ROLLBACK").unwrap();
    unindexed::check_count(&a, &base, "after ROLLBACK");
}
