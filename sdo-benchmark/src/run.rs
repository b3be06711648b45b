//! The closed loop: set up, warm up, drive the server through its
//! clients for the measured time, check every answer — and, for a
//! traced run, the replay that follows.
//!
//! Each client is a session that waits for its reply before sending
//! the next request, as real callers of this server do. Latency is the
//! client-side time from writing a request frame to decoding the last
//! byte of its result, summed over the statements of an operation; the
//! harness's own checking between statements is not in it.

use crate::stats::Sample;
use crate::trace::Tracer;
use crate::workloads::{Env, Replay, ReplayState, Stmt, Workload};
use sdo_dbms::Session;
use sdo_server::wire::{self, req, Decoder};
use sdo_server::{Client, ClientError, WireResult};
use sdo_storage::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Measured rounds per run; per-round quantiles give each metric's
/// within-run spread.
pub const ROUNDS: usize = 3;
/// Discarded operations per client before the clock starts.
pub const WARMUP_OPS: u64 = 4;

pub struct Ready {
    pub env: Env,
    pub clients: Vec<Client>,
    pub setup_s: f64,
}

fn send(c: &mut Client, s: &Stmt) -> Result<WireResult, ClientError> {
    match s {
        Stmt::Text(sql) => c.execute(sql),
        Stmt::Prepared { name, params } => c.execute_prepared(name, params),
    }
}

/// One operation over the wire. Returns its latency and whether every
/// statement succeeded with the right answer.
fn wire_op(
    w: &dyn Workload,
    env: &Env,
    c: &mut Client,
    actor: usize,
    i: u64,
    stmt_nanos: &mut [Vec<u64>],
) -> (Duration, bool) {
    let (mut total, mut ok) = (Duration::ZERO, true);
    for (k, s) in w.op(actor, i).iter().enumerate() {
        let t = Instant::now();
        let answer = send(c, s);
        let took = t.elapsed();
        total += took;
        stmt_nanos[k].push(took.as_nanos() as u64);
        ok &= matches!(answer, Ok((_, rows)) if w.check(env, actor, i, k, &rows));
    }
    (total, ok)
}

/// Set-up as `setup_s` times it: the engine's own (create, load,
/// index, analyze, bind) plus what each client does once before its
/// first request (connect, prepare). Generating the inputs and the
/// oracle's answers is the harness's work and is not in it.
pub fn set_up(w: &dyn Workload, scratch: &Path) -> Result<Ready, String> {
    let t = Instant::now();
    let env = w.setup(scratch);
    let mut clients = Vec::new();
    for _ in 0..w.clients() {
        let mut c = Client::connect(env.server.addr()).map_err(|e| format!("connect: {e}"))?;
        for (name, sql) in w.prepared() {
            c.prepare(name, &sql).map_err(|e| format!("prepare {name}: {e}"))?;
        }
        clients.push(c);
    }
    Ok(Ready { env, clients, setup_s: t.elapsed().as_secs_f64() })
}

/// Operations `0..WARMUP_OPS` of every client, checked and discarded:
/// slave-pool threads spawned, caches filled, lazy set-up done.
pub fn warm_up(w: &dyn Workload, ready: &mut Ready) -> Result<(), String> {
    for (actor, c) in ready.clients.iter_mut().enumerate() {
        let mut sink = vec![Vec::new(); w.op(actor, 0).len()];
        for i in 0..WARMUP_OPS {
            if !wire_op(w, &ready.env, c, actor, i, &mut sink).1 {
                return Err(format!("warm-up operation {i} of client {actor} failed"));
            }
        }
    }
    Ok(())
}

pub fn tear_down(ready: Ready) {
    for c in ready.clients {
        let _ = c.close();
    }
    ready.env.server.shutdown();
}

#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time from the start signal to the last client's last reply.
    pub elapsed_s: f64,
    /// Round-trip nanoseconds per statement position in the operation.
    pub stmt_nanos: Vec<Vec<u64>>,
    /// Next operation index per client.
    pub next_op: Vec<u64>,
    /// With tracing on: when each client's correct operations started
    /// and how long they took — the root spans to be.
    pub timings: Vec<Vec<(Instant, Duration)>>,
}

/// Drive every client in its own thread for `measure`; client `c`
/// numbers its operations from `first_op[c]`.
pub fn closed_loop(
    w: &dyn Workload,
    env: &Env,
    clients: &mut [Client],
    first_op: &[u64],
    measure: Duration,
    tracing: bool,
) -> Outcome {
    let start = Instant::now();
    let round_len = measure / ROUNDS as u32;
    let per_client: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(actor, c)| {
                scope.spawn(move || {
                    let mut out = Outcome {
                        stmt_nanos: vec![Vec::new(); w.op(actor, 0).len()],
                        timings: vec![Vec::new()],
                        ..Outcome::default()
                    };
                    let mut i = first_op[actor];
                    loop {
                        let began = start.elapsed();
                        if began >= measure {
                            break;
                        }
                        let t = Instant::now();
                        let (took, ok) = wire_op(w, env, c, actor, i, &mut out.stmt_nanos);
                        out.attempted += 1;
                        if ok {
                            let round = ((began.as_nanos() / round_len.as_nanos()) as usize)
                                .min(ROUNDS - 1);
                            out.samples.push(Sample { round, millis: took.as_secs_f64() * 1e3 });
                            if tracing {
                                out.timings[0].push((t, took));
                            }
                        } else {
                            out.failed += 1;
                        }
                        i += 1;
                    }
                    out.elapsed_s = start.elapsed().as_secs_f64();
                    out.next_op = vec![i];
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut all = Outcome::default();
    for o in per_client {
        all.samples.extend(o.samples);
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.elapsed_s = all.elapsed_s.max(o.elapsed_s);
        if all.stmt_nanos.len() < o.stmt_nanos.len() {
            all.stmt_nanos.resize(o.stmt_nanos.len(), Vec::new());
        }
        for (k, v) in o.stmt_nanos.into_iter().enumerate() {
            all.stmt_nanos[k].extend(v);
        }
        all.next_op.extend(o.next_op);
        all.timings.extend(o.timings);
    }
    all
}

/// What the replay of a traced run's wire operations produced.
pub struct Replayed {
    /// One `wire_op` root per replayed operation, its steps below it.
    pub tracer: Tracer,
    pub ops: u64,
    pub failed: u64,
    /// Largest `peak_resident_rows` any replayed statement reported.
    pub peak_resident_rows: u64,
    /// Encoded result payload bytes over all replayed statements.
    pub result_bytes: u64,
}

/// Replay the traced loop's operations, one thread per client as in
/// the loop, until `budget` runs out or every operation has been
/// replayed. Replaying *after* the loop keeps the loop's cadence that
/// of real callers: spans are linked by parent id, not by time, so
/// nothing is lost, and the socket sees no idle gaps it would not see
/// in service.
pub fn replay_phase(
    w: &dyn Workload,
    env: &Env,
    timings: &[Vec<(Instant, Duration)>],
    budget: Duration,
    scratch: &Path,
) -> Replayed {
    // Root timestamps precede the replay; the clock's zero is the
    // earliest of them.
    let epoch = timings.iter().flatten().map(|(t, _)| *t).min().unwrap_or_else(Instant::now);
    let deadline = Instant::now() + budget;
    let per_client: Vec<Replayer<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = timings
            .iter()
            .enumerate()
            .map(|(client, ops)| {
                scope.spawn(move || {
                    let mut r = Replayer::new(w, env, client, epoch, scratch);
                    for (start, took) in ops {
                        if Instant::now() >= deadline {
                            break;
                        }
                        r.replay(*start, *took);
                    }
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    });
    let mut all = Replayed {
        tracer: Tracer::new(epoch),
        ops: 0,
        failed: 0,
        peak_resident_rows: 0,
        result_bytes: 0,
    };
    for r in per_client {
        all.tracer.merge(r.tracer);
        all.ops += r.next_op;
        all.failed += r.failed;
        all.peak_resident_rows = all.peak_resident_rows.max(r.peak_resident_rows);
        all.result_bytes += r.result_bytes;
    }
    all
}

/// For each of a client's wire operations, runs the next operation of
/// actor `clients + client` — the same stream definition, its own ids
/// — on an embedded session of the same engine, a span per step.
struct Replayer<'a> {
    w: &'a dyn Workload,
    env: &'a Env,
    actor: usize,
    next_op: u64,
    failed: u64,
    session: Session,
    tracer: Tracer,
    state: ReplayState,
    scratch: &'a Path,
    peak_resident_rows: u64,
    result_bytes: u64,
}

impl<'a> Replayer<'a> {
    fn new(
        w: &'a dyn Workload,
        env: &'a Env,
        client: usize,
        epoch: Instant,
        scratch: &'a Path,
    ) -> Self {
        let session = env.db.session();
        for (name, sql) in w.prepared() {
            session.prepare(name, &sql).expect("prepare on the replay session");
        }
        Replayer {
            w,
            env,
            actor: w.clients() + client,
            next_op: 0,
            failed: 0,
            session,
            tracer: Tracer::new(epoch),
            state: ReplayState::default(),
            scratch,
            peak_resident_rows: 0,
            result_bytes: 0,
        }
    }

    /// Record a measured wire operation as the root span, then do for
    /// this actor's next operation what the server's connection thread
    /// does for each statement, a span around every step.
    fn replay(&mut self, wire_start: Instant, wire_took: Duration) {
        let i = self.next_op;
        self.next_op += 1;
        let op_id = (self.actor as u64) << 32 | i;
        let root = self.tracer.root(op_id, "wire_op", wire_start, wire_took.as_nanos() as u64);
        let mut ok = true;
        for (k, s) in self.w.op(self.actor, i).iter().enumerate() {
            let tr = &mut self.tracer;
            let (_, frame) = tr.child("wire.encode_request", root, || s.frame());
            let (_, decoded) = tr.child("wire.decode_request", root, || decode_request(&frame));
            let cost = self.session.options().max_resident_rows;
            let (_, permit) =
                tr.child("admission.admit", root, || self.env.server.admission().admit(cost));
            let (exec, result) = tr.child("exec.execute", root, || match &decoded {
                Stmt::Text(sql) => self.session.execute(sql),
                Stmt::Prepared { name, params } => self.session.execute_prepared(name, params),
            });
            let Ok(result) = result else {
                ok = false;
                continue;
            };
            let (_, payload) = tr.child("wire.encode_result", root, || {
                wire::encode_result(&result.columns, &result.rows)
            });
            // The server holds the permit until the frame is written.
            drop(permit);
            self.result_bytes += payload.len() as u64;
            let (_, rows) = tr.child("wire.decode_result", root, || {
                let (_, mut d) = Decoder::new(&payload).expect("result payload");
                wire::decode_result(&mut d).expect("decode own encoding").1
            });
            ok &= self.w.check(self.env, self.actor, i, k, &rows);
            if let Some(p) = self.session.last_profile() {
                self.peak_resident_rows =
                    self.peak_resident_rows.max(p.root.metric("peak_resident_rows").unwrap_or(0));
            }
            self.w.replay_below(
                &mut Replay {
                    env: self.env,
                    tracer: &mut self.tracer,
                    exec,
                    actor: self.actor,
                    i,
                    state: &mut self.state,
                    scratch: self.scratch,
                },
                k,
                s,
            );
        }
        // A replay with a wrong answer is a failure of the engine all
        // the same.
        self.failed += u64::from(!ok);
    }
}

/// Decode a request payload the way the server's dispatch does.
fn decode_request(frame: &[u8]) -> Stmt {
    let (opcode, mut d) = Decoder::new(frame).expect("request payload");
    match opcode {
        req::EXECUTE => Stmt::Text(d.str32().expect("sql")),
        req::EXEC_PREPARED => {
            let name = d.str16().expect("name");
            let n = d.u16().expect("count") as usize;
            let params: Vec<Value> = (0..n).map(|_| d.value().expect("value")).collect();
            Stmt::Prepared { name, params }
        }
        other => panic!("harness built a request with opcode 0x{other:02x}"),
    }
}
