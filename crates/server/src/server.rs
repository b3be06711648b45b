//! The multi-session TCP server.
//!
//! One listener thread accepts connections; each connection gets its
//! own OS thread and its own engine [`Session`], so `ALTER SESSION`,
//! explicit transactions, `EXPLAIN ANALYZE` profiles, and prepared
//! statements are connection-private while all sessions share one
//! [`Database`] — and, through it, the catalog, the MVCC manager, the
//! WAL, and the process-wide table-function slave pool. Threads block
//! on socket reads (the environment has no async reactor), but query
//! *execution* is where the parallelism budget lives: concurrent
//! statements fan their slaves into the same cached pool.
//!
//! Statements pay an admission toll before running (see
//! [`crate::admission`]): the cost is the session's
//! `max_resident_rows` cap, the budget is server-global. Saturation
//! therefore queues or rejects cleanly instead of compounding memory
//! pressure.
//!
//! The listener also speaks just enough HTTP to serve Prometheus
//! scrapes: a connection whose first bytes are `GET ` is answered
//! with the metrics exposition and closed, so one port serves both
//! the wire protocol and `/metrics`.

use crate::admission::{AdmissionController, Permit};
use crate::wire::{self, encode_error, req, resp, Decoder, Encoder, ErrorKind};
use sdo_dbms::{Database, DbError, Session};
use sdo_storage::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Global admission budget, in resident rows (the same currency
    /// as the per-session `max_resident_rows` option).
    pub memory_budget: u64,
    /// How many statements may queue for admission at once.
    pub admission_queue: usize,
    /// How long one statement may wait for admission.
    pub admission_wait: Duration,
    /// `parallel_dop` applied to every new session (clients can still
    /// override per-connection with `ALTER SESSION`). `None` keeps the
    /// engine default — machine parallelism, clamped to `[1, 16]` —
    /// which on a loaded server lets concurrent statements oversubscribe
    /// the shared slave pool; pinning this to a small value trades
    /// single-statement latency for throughput under concurrency.
    pub default_parallel_dop: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // Four default-sized statements in flight.
            memory_budget: 4 * sdo_dbms::SessionOptions::default().max_resident_rows,
            admission_queue: 32,
            admission_wait: Duration::from_secs(2),
            default_parallel_dop: None,
        }
    }
}

/// Handle to a running server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the listener; connection
/// threads exit as their clients disconnect.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    admission: AdmissionController,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission controller (shared with live connections).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Stop accepting connections and join the listener thread.
    pub fn shutdown(mut self) {
        self.stop_listener();
    }

    fn stop_listener(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_listener();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `db`.
pub fn serve(db: Arc<Database>, addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let admission = AdmissionController::new(
        config.memory_budget,
        config.admission_queue,
        config.admission_wait,
    );
    let accept_stop = Arc::clone(&stop);
    let accept_admission = admission.clone();
    let default_dop = config.default_parallel_dop;
    let accept_thread =
        std::thread::Builder::new().name("sdo-server-accept".into()).spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Responses are single frames the client waits for:
                // send each at once instead of batching it behind
                // Nagle's algorithm.
                stream.set_nodelay(true).ok();
                let db = Arc::clone(&db);
                let admission = accept_admission.clone();
                let _ =
                    std::thread::Builder::new().name("sdo-server-conn".into()).spawn(move || {
                        let _ = handle_connection(stream, db, admission, default_dop);
                    });
            }
        })?;
    Ok(ServerHandle { addr: local, stop, accept_thread: Some(accept_thread), admission })
}

/// Refresh scrape-time metrics into the global registry and render
/// the Prometheus exposition.
fn metrics_text(db: &Database, admission: &AdmissionController) -> String {
    let reg = sdo_obs::global();
    // Engine + server gauges are sampled at scrape time; monotone
    // sources held outside the registry are folded in by delta so
    // the registry's counters stay monotone too.
    let set_counter = |name: &str, v: u64| {
        let c = reg.counter(name);
        c.add(v.saturating_sub(c.get()));
    };
    reg.gauge("server_sessions_active").set(db.session_count() as i64);
    let a = admission.stats();
    set_counter("server_admission_admitted_total", a.admitted);
    set_counter("server_admission_queued_total", a.queued);
    set_counter("server_admission_rejected_total", a.rejected);
    // The registry's gauges are i64; a full-range u64 budget must
    // clamp, not wrap negative.
    let as_gauge = |v: u64| v.min(i64::MAX as u64) as i64;
    reg.gauge("server_admission_in_use_rows").set(as_gauge(a.in_use));
    reg.gauge("server_admission_waiting").set(a.waiting as i64);
    reg.gauge("server_admission_budget_rows").set(as_gauge(admission.budget()));
    let p = sdo_tablefunc::pool::global().stats();
    set_counter("tf_pool_workers_spawned_total", p.workers_spawned);
    set_counter("tf_pool_jobs_total", p.jobs_submitted);
    reg.gauge("tf_pool_workers_alive").set(p.workers_alive as i64);
    reg.gauge("tf_pool_workers_idle").set(p.workers_idle as i64);
    sdo_obs::export::registry_to_prometheus(&reg.snapshot())
}

/// Serve one HTTP request on a connection that opened with `GET `.
fn handle_http(mut stream: TcpStream, db: &Database, admission: &AdmissionController) {
    // Read until the end of the request head (we ignore the body —
    // GETs have none). Bounded read so a hostile peer cannot balloon.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < 8192 && !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => break,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", metrics_text(db, admission))
    } else {
        ("404 Not Found", "only /metrics lives here\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// Run one statement under admission control, recording server
/// metrics, and encode the response payload.
///
/// The admission permit is returned *with* the payload, not dropped
/// here: the materialized rows and their wire encoding stay resident
/// until the frame is on the socket, so the budget they occupy must
/// not be handed to the next statement before then.
fn run_statement(
    session: &Session,
    admission: &AdmissionController,
    exec: impl FnOnce() -> Result<sdo_dbms::QueryResult, DbError>,
) -> (Vec<u8>, Option<Permit>) {
    let reg = sdo_obs::global();
    let cost = session.options().max_resident_rows;
    let queue_t0 = Instant::now();
    let permit = match admission.admit(cost) {
        Ok(p) => p,
        Err(e) => {
            reg.counter("server_stmt_rejected").inc();
            return (encode_error(ErrorKind::Admission, &e.to_string()), None);
        }
    };
    reg.histogram("server_admission_wait_ns").record_duration(queue_t0.elapsed());
    let t0 = Instant::now();
    let out = exec();
    reg.histogram("server_stmt_wall_ns").record_duration(t0.elapsed());
    let payload = match out {
        Ok(r) => {
            reg.counter("server_stmt_executed").inc();
            wire::encode_result(&r.columns, &r.rows)
        }
        Err(e) => {
            reg.counter("server_stmt_errors").inc();
            encode_error(ErrorKind::Statement, &e.to_string())
        }
    };
    (payload, Some(permit))
}

/// Drive one client connection until CLOSE / EOF / protocol error.
fn handle_connection(
    mut stream: TcpStream,
    db: Arc<Database>,
    admission: AdmissionController,
    default_dop: Option<usize>,
) -> io::Result<()> {
    // Dual protocol on one port: an HTTP scrape opens with "GET ",
    // which can never start a wire frame (it would be a 0x20544547
    // ≈ 542 MB length, past MAX_FRAME). Peek may deliver fewer than
    // 4 bytes on a freshly split segment; retry briefly.
    let mut probe = [0u8; 4];
    let mut n = stream.peek(&mut probe)?;
    for _ in 0..50 {
        if n >= 4 || n == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        n = stream.peek(&mut probe)?;
    }
    if n >= 4 && probe == *b"GET " {
        handle_http(stream, &db, &admission);
        return Ok(());
    }

    let session = db.session();
    if let Some(dop) = default_dop {
        // Same validation as ALTER SESSION; a misconfigured server
        // default must not take the connection down, just fall back.
        let _ = session.set_option("parallel_dop", &dop.to_string());
    }
    sdo_obs::global().counter("server_connections_total").inc();
    loop {
        let payload = match wire::read_frame(&mut stream) {
            Ok(p) => p,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let (mut response, permit) = match dispatch(&payload, &session, &admission, &db) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // CLOSE
            // Undecodable frame: report and drop the connection — we
            // cannot trust the stream's framing anymore.
            Err(e) => {
                let p = encode_error(ErrorKind::Protocol, &e.to_string());
                let _ = wire::write_frame(&mut stream, &p);
                return Err(e);
            }
        };
        // A result too big for one frame would be rejected by the
        // client as a corrupt stream; downgrade it to an in-band
        // error so the connection stays usable.
        if response.len() > wire::MAX_FRAME as usize {
            let msg = format!(
                "result of {} bytes exceeds the {} MiB frame limit; \
                 narrow the projection or add LIMIT",
                response.len(),
                wire::MAX_FRAME >> 20
            );
            response = encode_error(ErrorKind::Statement, &msg);
        }
        wire::write_frame(&mut stream, &response)?;
        // Only now may the statement's admission budget fund the next
        // one: the response buffer is off our hands.
        drop(permit);
    }
}

/// Decode and execute one request; `Ok(None)` means CLOSE. Statement
/// responses carry their admission [`Permit`], which the caller holds
/// until the response frame is written.
fn dispatch(
    payload: &[u8],
    session: &Session,
    admission: &AdmissionController,
    db: &Database,
) -> io::Result<Option<(Vec<u8>, Option<Permit>)>> {
    let (opcode, mut d) = Decoder::new(payload)?;
    Ok(Some(match opcode {
        req::EXECUTE => {
            let sql = d.str32()?;
            run_statement(session, admission, || session.execute(&sql))
        }
        req::PREPARE => {
            let name = d.str16()?;
            let sql = d.str32()?;
            let payload = match session.prepare(&name, &sql) {
                Ok(nparams) => match wire::wire_u16(nparams, "the bind-parameter count") {
                    Ok(n) => {
                        let mut e = Encoder::new(resp::PREPARED);
                        e.u16(n);
                        e.finish()
                    }
                    // No client could bind it: do not keep it.
                    Err(e) => {
                        let _ = session.deallocate(&name);
                        encode_error(ErrorKind::Statement, &e.to_string())
                    }
                },
                Err(e) => encode_error(ErrorKind::Statement, &e.to_string()),
            };
            (payload, None)
        }
        req::EXEC_PREPARED => {
            let name = d.str16()?;
            let n = d.u16()? as usize;
            // Each value takes at least its tag byte.
            let mut params = Vec::with_capacity(n.min(payload.len()));
            for _ in 0..n {
                params.push(d.value()?);
            }
            run_statement(session, admission, || session.execute_prepared(&name, &params))
        }
        req::DEALLOCATE => {
            let name = d.str16()?;
            let payload = match session.deallocate(&name) {
                Ok(()) => wire::encode_result(&[], &[]),
                Err(e) => encode_error(ErrorKind::Statement, &e.to_string()),
            };
            (payload, None)
        }
        req::METRICS => {
            let mut e = Encoder::new(resp::TEXT);
            e.str32(&metrics_text(db, admission));
            (e.finish(), None)
        }
        req::PING => (vec![resp::PONG], None),
        req::CLOSE => return Ok(None),
        other => {
            (encode_error(ErrorKind::Protocol, &format!("unknown opcode 0x{other:02x}")), None)
        }
    }))
}

/// A blocking wire-protocol client.
pub struct Client {
    stream: TcpStream,
}

/// Client-side failure: transport trouble or a server-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / framing failure.
    Io(io::Error),
    /// The server answered with an ERROR frame.
    Server {
        /// Error class (admission errors are retryable).
        kind: ErrorKind,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether this is an admission rejection (load, not a bug).
    pub fn is_admission(&self) -> bool {
        matches!(self, ClientError::Server { kind: ErrorKind::Admission, .. })
    }
}

/// Columns + rows as decoded from a RESULT frame.
pub type WireResult = (Vec<String>, Vec<Vec<Value>>);

impl Client {
    /// Connect to a serving address.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    fn roundtrip(&mut self, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        wire::write_frame(&mut self.stream, payload)?;
        Ok(wire::read_frame(&mut self.stream)?)
    }

    fn expect_result(&mut self, payload: &[u8]) -> Result<WireResult, ClientError> {
        let answer = self.roundtrip(payload)?;
        let (opcode, mut d) = Decoder::new(&answer)?;
        match opcode {
            resp::RESULT => Ok(wire::decode_result(&mut d)?),
            resp::ERROR => Err(decode_error(&mut d)?),
            other => Err(unexpected(other)),
        }
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        let mut e = Encoder::new(req::EXECUTE);
        e.str32(sql);
        self.expect_result(&e.finish())
    }

    /// Cache a statement server-side; returns its bind-param count.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize, ClientError> {
        wire::wire_u16(name.len(), "the byte length of a statement name")?;
        let mut e = Encoder::new(req::PREPARE);
        e.str16(name);
        e.str32(sql);
        let answer = self.roundtrip(&e.finish())?;
        let (opcode, mut d) = Decoder::new(&answer)?;
        match opcode {
            resp::PREPARED => Ok(d.u16()? as usize),
            resp::ERROR => Err(decode_error(&mut d)?),
            other => Err(unexpected(other)),
        }
    }

    /// Execute a prepared statement with positional bind values.
    pub fn execute_prepared(
        &mut self,
        name: &str,
        params: &[Value],
    ) -> Result<WireResult, ClientError> {
        wire::wire_u16(name.len(), "the byte length of a statement name")?;
        let nparams = wire::wire_u16(params.len(), "the bind-value count")?;
        let mut e = Encoder::new(req::EXEC_PREPARED);
        e.str16(name);
        e.u16(nparams);
        for p in params {
            e.value(p);
        }
        self.expect_result(&e.finish())
    }

    /// Drop a server-side prepared statement.
    pub fn deallocate(&mut self, name: &str) -> Result<(), ClientError> {
        wire::wire_u16(name.len(), "the byte length of a statement name")?;
        let mut e = Encoder::new(req::DEALLOCATE);
        e.str16(name);
        self.expect_result(&e.finish()).map(|_| ())
    }

    /// Fetch the Prometheus metrics exposition over the wire protocol.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let answer = self.roundtrip(&[req::METRICS])?;
        let (opcode, mut d) = Decoder::new(&answer)?;
        match opcode {
            resp::TEXT => Ok(d.str32()?),
            resp::ERROR => Err(decode_error(&mut d)?),
            other => Err(unexpected(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let answer = self.roundtrip(&[req::PING])?;
        match Decoder::new(&answer)?.0 {
            resp::PONG => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Orderly shutdown of this connection.
    pub fn close(mut self) -> Result<(), ClientError> {
        wire::write_frame(&mut self.stream, &[req::CLOSE])?;
        Ok(())
    }
}

fn decode_error(d: &mut Decoder<'_>) -> Result<ClientError, ClientError> {
    let kind = ErrorKind::from_code(d.u8()?);
    let message = d.str32()?;
    Ok(ClientError::Server { kind, message })
}

fn unexpected(opcode: u8) -> ClientError {
    ClientError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response opcode 0x{opcode:02x}"),
    ))
}

#[cfg(test)]
mod fuzz;
