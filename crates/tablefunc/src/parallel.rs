//! The fan-out core and the parallel table-function executor.
//!
//! [`Fanout`] is the one runtime under every parallel operator in the
//! engine: it submits one job per worker body to the process-wide
//! [`pool`], gives each body a send handle ([`Outbox`]) on one bounded
//! channel plus a shared cancel flag, turns a panicking body into one
//! message naming the worker, and on close cancels, drops the receiver
//! and joins every job. It knows nothing about rows, tasks or profiles;
//! callers pick the message type, the channel depth and the bodies.
//!
//! [`ParallelTableFunction`] reproduces Oracle9i's parallel execution of
//! a table function on top of it: the caller builds one function
//! *instance per slave* — the `SPATIAL_JOIN` slaves, say, which pull
//! their tasks from one shared [`crate::scheduler::TaskQueue`] — and
//! each slave drives its instance through the pipelined `start`/`fetch`/
//! `close` protocol, sending one message per fetch batch. Production and
//! consumption overlap (pipelining survives parallelism) and a slow
//! consumer back-pressures the slaves instead of buffering unboundedly.
//! The SQL exchanges in `sdo-dbms` run their workers on the same core.

use crate::pool;
use crate::row::Row;
use crate::table_function::TableFunction;
use crate::TfError;
use crossbeam::channel::{bounded, Receiver, Sender};
use sdo_obs::ProfileNode;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A worker's end of a [`Fanout`]: the shared bounded channel and the
/// shared cancel flag.
pub struct Outbox<M> {
    tx: Sender<M>,
    cancel: Arc<AtomicBool>,
}

impl<M> Outbox<M> {
    /// Send one message, blocking while the channel is full. `false`
    /// means the consumer has closed the fan-out: stop producing.
    pub fn send(&self, msg: M) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Whether the consumer has cancelled. Bodies check it between tasks.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// One fan-out of worker bodies over the slave pool, merged into one
/// bounded channel. Dropping it is [`close`](Self::close).
pub struct Fanout<M> {
    rx: Option<Receiver<M>>,
    jobs: Vec<pool::PoolJoinHandle>,
    cancel: Arc<AtomicBool>,
}

impl<M: Send + 'static> Fanout<M> {
    /// Submit one pool job per body, in order; body `i` is worker `i`.
    /// A body that panics sends `on_panic(i)` in place of whatever it
    /// had left to send, so the consumer sees the failure instead of a
    /// short stream.
    pub fn spawn<B>(
        depth: usize,
        bodies: impl IntoIterator<Item = B>,
        on_panic: fn(usize) -> M,
    ) -> Self
    where
        B: FnOnce(&Outbox<M>) + Send + 'static,
    {
        let (tx, rx) = bounded(depth.max(1));
        let cancel = Arc::new(AtomicBool::new(false));
        let jobs = bodies
            .into_iter()
            .enumerate()
            .map(|(worker, body)| {
                let outbox = Outbox { tx: tx.clone(), cancel: Arc::clone(&cancel) };
                pool::global().submit(move || {
                    if catch_unwind(AssertUnwindSafe(|| body(&outbox))).is_err() {
                        outbox.send(on_panic(worker));
                    }
                })
            })
            .collect();
        // The receiver disconnects once every body has finished.
        Fanout { rx: Some(rx), jobs, cancel }
    }
}

impl<M> Fanout<M> {
    /// The next message, blocking; `None` once every body has finished
    /// and the channel is drained, or after [`close`](Self::close).
    pub fn recv(&self) -> Option<M> {
        self.rx.as_ref()?.recv().ok()
    }

    /// Ask every body to stop at its next [`Outbox::cancelled`] check.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Cancel, drop the receiver — bodies blocked on a full channel fail
    /// their send and exit, and undelivered messages drop with it — then
    /// join every job. Idempotent.
    pub fn close(&mut self) {
        self.cancel();
        self.rx = None;
        for job in self.jobs.drain(..) {
            job.join();
        }
    }
}

impl<M> Drop for Fanout<M> {
    fn drop(&mut self) {
        self.close();
    }
}

/// How many in-flight batches each executor buffers before slaves
/// block. Small by design: the paper's pipelining argument is that the
/// full result set never materializes.
const CHANNEL_DEPTH: usize = 8;

/// Rows each slave asks its instance for per `fetch`.
const SLAVE_FETCH_SIZE: usize = 256;

type SlaveMsg = Result<Vec<Row>, TfError>;

/// A table function that executes `instances` in parallel and merges
/// their output streams.
///
/// Itself a [`TableFunction`], so parallel execution composes with the
/// rest of the pipeline: `start` launches the slaves, `fetch` pulls
/// merged batches, `close` tears the slaves down (early close is safe —
/// slaves notice the closed channel and exit).
///
/// Row order across slaves is nondeterministic; SQL multiset semantics
/// apply, exactly as with Oracle parallel query.
pub struct ParallelTableFunction {
    instances: Vec<Box<dyn TableFunction>>,
    dop: usize,
    slaves: Option<Fanout<SlaveMsg>>,
    pending: VecDeque<Row>,
    failed: Option<TfError>,
    profile: Option<ProfileNode>,
}

impl ParallelTableFunction {
    /// Wrap pre-built per-slave instances. The degree of parallelism is
    /// `instances.len()`.
    pub fn new(instances: Vec<Box<dyn TableFunction>>) -> Self {
        assert!(!instances.is_empty(), "need at least one instance");
        ParallelTableFunction {
            dop: instances.len(),
            instances,
            slaves: None,
            pending: VecDeque::new(),
            failed: None,
            profile: None,
        }
    }

    /// Degree of parallelism. Recorded at construction, so it stays
    /// valid across the whole lifecycle (`start` drains `instances`
    /// into slave jobs).
    pub fn dop(&self) -> usize {
        self.dop
    }
}

/// One slave: drive `f` through `start`/`fetch`/`close`, sending each
/// fetched batch, until it is exhausted or the consumer goes away.
fn run_slave(mut f: Box<dyn TableFunction>, profile: Option<ProfileNode>, out: &Outbox<SlaveMsg>) {
    // Profiling: this slave's node becomes the thread's current
    // profile, so operators running inside the instance hang their
    // detail under "slave N". The guard drops before the worker
    // re-parks, leaving no ambient profile behind on the reused thread.
    let _profile_scope = profile.clone().map(sdo_obs::enter);
    if let Some(node) = &profile {
        f.attach_profile(node);
    }
    let mut run = || -> Result<(), TfError> {
        f.start()?;
        while !out.cancelled() {
            let fetch_started = profile.as_ref().map(|_| Instant::now());
            let batch = f.fetch(SLAVE_FETCH_SIZE)?;
            if let (Some(node), Some(t0)) = (&profile, fetch_started) {
                node.add_wall(t0.elapsed());
                if !batch.is_empty() {
                    node.add_batches(1);
                    node.add_rows(batch.len() as u64);
                }
            }
            // An empty batch is exhaustion; a failed send is the
            // consumer closing early.
            if batch.is_empty() || !out.send(Ok(batch)) {
                break;
            }
        }
        f.close();
        Ok(())
    };
    if let Err(e) = run() {
        out.send(Err(e));
    }
}

impl TableFunction for ParallelTableFunction {
    fn start(&mut self) -> Result<(), TfError> {
        if self.slaves.is_some() {
            return Err(TfError::Protocol("start called twice"));
        }
        // If no node was attached explicitly, pick up the ambient
        // profile of the calling thread (if a session is active).
        let parent = self.profile.clone().or_else(sdo_obs::current);
        if let Some(p) = &parent {
            p.set_attr("dop", self.dop.to_string());
        }
        let bodies = self.instances.drain(..).enumerate().map(|(id, f)| {
            let node = parent.as_ref().map(|p| p.child(format!("slave {id}")));
            move |out: &Outbox<SlaveMsg>| run_slave(f, node, out)
        });
        self.slaves = Some(Fanout::spawn(CHANNEL_DEPTH.max(self.dop), bodies, |id| {
            Err(TfError::SlavePanic(id))
        }));
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let slaves = self.slaves.as_ref().ok_or(TfError::Protocol("fetch before start"))?;
        while self.pending.len() < max_rows {
            match slaves.recv() {
                Some(Ok(batch)) => self.pending.extend(batch),
                Some(Err(e)) => {
                    self.failed = Some(e.clone());
                    self.close();
                    return Err(e);
                }
                None => break, // all slaves done
            }
        }
        let n = self.pending.len().min(max_rows);
        Ok(self.pending.drain(..n).collect())
    }

    fn close(&mut self) {
        self.slaves = None; // cancels, unblocks and joins every slave
        self.pending.clear();
    }

    fn attach_profile(&mut self, node: &ProfileNode) {
        self.profile = Some(node.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_function::{collect_all, BufferedFn};
    use sdo_storage::Value;
    use std::sync::atomic::AtomicUsize;

    fn instance(lo: i64, hi: i64) -> Box<dyn TableFunction> {
        Box::new(BufferedFn::new(move || Ok((lo..hi).map(|i| vec![Value::Integer(i)]).collect())))
    }

    fn sorted_ints(rows: Vec<Row>) -> Vec<i64> {
        let mut v: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
        v.sort_unstable();
        v
    }

    /// Spawn `n` copies of `body` whose exits are counted in the
    /// returned tally.
    fn counted(
        depth: usize,
        n: usize,
        body: fn(usize, &Outbox<Result<usize, usize>>),
    ) -> (Fanout<Result<usize, usize>>, Arc<AtomicUsize>) {
        let exited = Arc::new(AtomicUsize::new(0));
        let bodies = (0..n).map(|w| {
            let exited = Arc::clone(&exited);
            move |out: &Outbox<Result<usize, usize>>| {
                body(w, out);
                exited.fetch_add(1, Ordering::SeqCst);
            }
        });
        (Fanout::spawn(depth, bodies, Err), exited)
    }

    #[test]
    fn panicking_body_is_one_message_naming_its_worker() {
        let (mut fanout, exited) = counted(2, 4, |w, out| {
            if w == 2 {
                panic!("worker body exploded");
            }
            while !out.cancelled() && out.send(Ok(w)) {}
        });
        let panicked = std::iter::from_fn(|| fanout.recv()).find_map(Result::err);
        assert_eq!(panicked, Some(2));
        // Close joins the three flooding workers without hanging.
        fanout.close();
        assert_eq!(exited.load(Ordering::SeqCst), 3);
        assert!(fanout.recv().is_none(), "a closed fan-out yields nothing");
    }

    #[test]
    fn close_joins_bodies_blocked_on_a_full_channel() {
        // The bodies never check cancel: only the dropped receiver
        // stops them.
        let (mut fanout, exited) = counted(1, 4, |w, out| while out.send(Ok(w)) {});
        assert!(fanout.recv().is_some());
        fanout.close();
        assert_eq!(exited.load(Ordering::SeqCst), 4);
        fanout.close(); // idempotent
    }

    #[test]
    fn bodies_observe_cancel_between_tasks() {
        let (fanout, exited) = counted(1, 3, |_, out| {
            while !out.cancelled() {
                std::thread::yield_now();
            }
        });
        fanout.cancel();
        // The bodies send nothing, so the stream ends only once every
        // body has seen the flag and returned.
        assert!(fanout.recv().is_none());
        assert_eq!(exited.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn merges_all_slave_output() {
        for dop in [1usize, 2, 4, 7] {
            let per = 100i64;
            let instances: Vec<_> =
                (0..dop as i64).map(|i| instance(i * per, (i + 1) * per)).collect();
            let rows = collect_all(&mut ParallelTableFunction::new(instances), 16).unwrap();
            assert_eq!(sorted_ints(rows), (0..dop as i64 * per).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fetch_respects_max_rows() {
        let mut p = ParallelTableFunction::new(vec![instance(0, 50), instance(50, 100)]);
        p.start().unwrap();
        let batch = p.fetch(7).unwrap();
        assert_eq!(batch.len(), 7);
        let mut rest = batch;
        loop {
            let b = p.fetch(7).unwrap();
            if b.is_empty() {
                break;
            }
            assert!(b.len() <= 7);
            rest.extend(b);
        }
        p.close();
        assert_eq!(sorted_ints(rest), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn slave_error_propagates() {
        struct Failing;
        impl TableFunction for Failing {
            fn start(&mut self) -> Result<(), TfError> {
                Ok(())
            }
            fn fetch(&mut self, _: usize) -> Result<Vec<Row>, TfError> {
                Err(TfError::Execution("bad slave".into()))
            }
            fn close(&mut self) {}
        }
        let mut p = ParallelTableFunction::new(vec![instance(0, 1000), Box::new(Failing)]);
        p.start().unwrap();
        let mut saw_error = false;
        for _ in 0..2000 {
            match p.fetch(8) {
                Ok(b) if b.is_empty() => break,
                Ok(_) => {}
                Err(TfError::Execution(m)) => {
                    assert_eq!(m, "bad slave");
                    saw_error = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(saw_error);
        // subsequent fetches keep failing
        assert!(p.fetch(1).is_err());
    }

    #[test]
    fn slave_panic_reported() {
        struct Panicking;
        impl TableFunction for Panicking {
            fn start(&mut self) -> Result<(), TfError> {
                panic!("kaboom")
            }
            fn fetch(&mut self, _: usize) -> Result<Vec<Row>, TfError> {
                unreachable!()
            }
            fn close(&mut self) {}
        }
        let mut p = ParallelTableFunction::new(vec![Box::new(Panicking)]);
        let err = collect_all(&mut p, 4).unwrap_err();
        assert_eq!(err, TfError::SlavePanic(0));
    }

    #[test]
    fn dop_survives_the_full_lifecycle() {
        let mut p = ParallelTableFunction::new(vec![instance(0, 10), instance(10, 20)]);
        assert_eq!(p.dop(), 2);
        p.start().unwrap();
        assert_eq!(p.dop(), 2, "start() drains instances into slaves");
        while !p.fetch(8).unwrap().is_empty() {}
        p.close();
        assert_eq!(p.dop(), 2, "close() drains the slave handles");
    }

    #[test]
    fn early_close_unblocks_producers() {
        // Slaves produce far more than the channel holds; closing early
        // must not deadlock and must join every slave.
        let instances: Vec<_> = (0..4).map(|i| instance(0, (i + 1) * 100_000)).collect();
        let mut p = ParallelTableFunction::new(instances);
        p.start().unwrap();
        let _ = p.fetch(10).unwrap();
        p.close(); // returns promptly; test would hang otherwise
    }

    #[test]
    fn per_slave_profiles_report_rows() {
        let session = sdo_obs::ProfileSession::begin("parallel scan");
        let node = session.root().child("PARALLEL TF");
        let mut p = ParallelTableFunction::new(vec![instance(0, 60), instance(60, 100)]);
        p.attach_profile(&node);
        let rows = collect_all(&mut p, 16).unwrap();
        assert_eq!(rows.len(), 100);
        let profile = session.finish();
        let op = profile.root.find("PARALLEL TF").expect("operator node");
        assert!(op.attrs.iter().any(|(k, v)| k == "dop" && v == "2"));
        assert_eq!(op.children.len(), 2, "one child per slave");
        let per_slave: u64 = op.children.iter().map(|c| c.rows).sum();
        assert_eq!(per_slave, 100, "slave rows sum to result cardinality");
        assert!(op.children.iter().all(|c| c.batches > 0));
    }

    #[test]
    fn pipelining_overlaps_with_consumption() {
        // A slave that produces in many fetch batches; the consumer sees
        // rows before the slave finishes (bounded channel guarantees the
        // slave cannot have finished when the first fetch returns).
        let instances: Vec<_> = vec![instance(0, 1_000_000)];
        let mut p = ParallelTableFunction::new(instances);
        p.start().unwrap();
        let first = p.fetch(1).unwrap();
        assert_eq!(first.len(), 1);
        p.close();
    }
}
