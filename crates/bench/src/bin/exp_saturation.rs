//! Multi-session saturation: N concurrent wire clients vs one engine.
//!
//! Drives the `sdo-server` front door with N concurrent clients each
//! running the partitioned spatial-join workload of `exp_partition`
//! over the wire protocol, and reports tail latency (p50/p95/p99) as
//! concurrency grows. Two regimes:
//!
//! 1. **Headroom** — the admission budget fits several statements;
//!    added clients queue briefly and throughput holds. All
//!    statements succeed.
//! 2. **Overload** — the budget fits two statements and the queue is
//!    zero-length: excess statements get clean, immediate admission
//!    rejections (never crashes, never memory blow-up), and the
//!    server keeps answering.
//!
//! ```sh
//! cargo run --release -p sdo-bench --bin exp_saturation
//! SDO_SCALE=0.0001 cargo run -p sdo-bench --bin exp_saturation   # smoke test
//! ```

use sdo_bench::*;
use sdo_datagen::{counties, US_EXTENT};
use sdo_obs::Histogram;
use sdo_server::{serve, Client, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-statement admission cost (the default `max_resident_rows` every
/// wire session inherits). The workload holds far fewer rows resident;
/// the cost is the worst case a statement may pin, which is what
/// admission arbitrates.
const STMT_COST: u64 = 1_000_000;

/// The tables carry no index, so the join runs the partition engine.
fn join_sql(dop: usize) -> String {
    format!("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('a','geom','b','geom','FILTER', {dop}))")
}

fn ns(v: u64) -> String {
    format!("{:.1}ms", v as f64 / 1e6)
}

struct SweepOutcome {
    ok: usize,
    rejected: usize,
    failed: usize,
    wall: Duration,
    latency: Arc<Histogram>,
}

/// Run `nclients` concurrent connections, each executing the workload
/// `per_client` times; per-statement latency lands in one histogram.
fn sweep(handle: &ServerHandle, nclients: usize, per_client: usize, dop: usize) -> SweepOutcome {
    let latency = Arc::new(Histogram::latency());
    let addr = handle.addr();
    let t0 = Instant::now();
    let workers: Vec<_> = (0..nclients)
        .map(|_| {
            let latency = Arc::clone(&latency);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let sql = join_sql(dop);
                let (mut ok, mut rejected, mut failed) = (0usize, 0usize, 0usize);
                let mut counts = Vec::new();
                for _ in 0..per_client {
                    let t = Instant::now();
                    match c.execute(&sql) {
                        Ok((_, rows)) => {
                            latency.record_duration(t.elapsed());
                            ok += 1;
                            if let Some(sdo_storage::Value::Integer(n)) =
                                rows.first().and_then(|r| r.first())
                            {
                                counts.push(*n);
                            }
                        }
                        Err(e) if e.is_admission() => rejected += 1,
                        Err(_) => failed += 1,
                    }
                }
                let _ = c.close();
                (ok, rejected, failed, counts)
            })
        })
        .collect();
    let (mut ok, mut rejected, mut failed) = (0, 0, 0);
    let mut expect: Option<i64> = None;
    for w in workers {
        let (o, r, f, counts) = w.join().expect("client thread");
        ok += o;
        rejected += r;
        failed += f;
        for c in counts {
            let e = *expect.get_or_insert(c);
            assert_eq!(e, c, "concurrent execution changed the join cardinality");
        }
    }
    SweepOutcome { ok, rejected, failed, wall: t0.elapsed(), latency }
}

fn main() {
    let n = scaled(20_000, 200);
    let dop = 2;
    let per_client = 4;
    println!("== server saturation: N wire clients x spatial join ({n} x {n}, dop {dop}) ==");

    let geoms = counties::generate(n, &US_EXTENT, 17);
    let db = Arc::new(session());
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    // Every wire session inherits this cost cap; admission charges it.
    db.set_default_option("max_resident_rows", &STMT_COST.to_string()).unwrap();

    // -- Regime 1: headroom (budget = 4 statements, generous queue) --
    let handle = serve(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            memory_budget: 4 * STMT_COST,
            admission_queue: 256,
            admission_wait: Duration::from_secs(120),
        },
    )
    .expect("bind server");

    println!();
    println!("-- headroom: budget = 4 concurrent statements, statements queue --");
    println!(
        "{:>8} {:>6} {:>9} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "clients", "stmts", "wall", "stmt/s", "p50", "p95", "p99", "queued", "rejects"
    );
    let mut prev_queued = 0u64;
    for nclients in [1usize, 2, 4, 8, 16] {
        let out = sweep(&handle, nclients, per_client, dop);
        assert_eq!(out.failed, 0, "engine errors under load");
        assert_eq!(out.rejected, 0, "headroom regime must not reject");
        assert_eq!(out.ok, nclients * per_client);
        let stats = handle.admission().stats();
        let queued = stats.queued - prev_queued;
        prev_queued = stats.queued;
        println!(
            "{:>8} {:>6} {:>9} {:>10.1} {:>9} {:>9} {:>9} {:>8} {:>8}",
            nclients,
            out.ok,
            secs(out.wall),
            out.ok as f64 / out.wall.as_secs_f64(),
            ns(out.latency.percentile(0.50)),
            ns(out.latency.percentile(0.95)),
            ns(out.latency.percentile(0.99)),
            queued,
            out.rejected,
        );
    }
    // A connection releases its permit only after writing the last
    // response, so the client can read it first: wait (boundedly) for
    // the budget to drain.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.admission().stats().in_use != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let final_stats = handle.admission().stats();
    assert_eq!(final_stats.in_use, 0, "budget must drain after the sweep");
    handle.shutdown();

    // -- Regime 2: overload (budget = 2 statements, no queue) --
    let handle = serve(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            memory_budget: 2 * STMT_COST,
            admission_queue: 0,
            admission_wait: Duration::ZERO,
        },
    )
    .expect("bind server");

    println!();
    println!("-- overload: budget = 2 concurrent statements, zero queue --");
    println!(
        "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "clients", "ok", "rejects", "wall", "p50", "p95", "p99"
    );
    let mut total_rejects = 0usize;
    for nclients in [4usize, 8, 16] {
        let out = sweep(&handle, nclients, per_client, dop);
        assert_eq!(out.failed, 0, "rejection must be the only failure mode");
        assert_eq!(out.ok + out.rejected, nclients * per_client);
        total_rejects += out.rejected;
        println!(
            "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            nclients,
            out.ok,
            out.rejected,
            secs(out.wall),
            ns(out.latency.percentile(0.50)),
            ns(out.latency.percentile(0.95)),
            ns(out.latency.percentile(0.99)),
        );
    }
    println!(
        "total rejections: {total_rejects} (clean pushback; {} statements admitted engine-wide)",
        handle.admission().stats().admitted
    );
    // Overload must shed load by rejecting, and the server must still
    // be alive and correct afterwards.
    assert!(total_rejects > 0, "overload regime produced no rejections");
    let mut c = Client::connect(handle.addr()).expect("reconnect after overload");
    c.ping().expect("server alive after overload");
    let (_, rows) = c.execute("SELECT COUNT(*) FROM a").expect("query after overload");
    assert_eq!(rows, vec![vec![sdo_storage::Value::Integer(n as i64)]]);
    let metrics = c.metrics().expect("metrics after overload");
    assert!(metrics.contains("server_admission_rejected_total"));
    let _ = c.close();
    handle.shutdown();
    println!();
    println!("server alive after overload; admission metrics exported. ok");
}
