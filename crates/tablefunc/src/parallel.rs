//! The parallel table-function executor.
//!
//! Reproduces Oracle9i's parallel execution of a table function: the
//! caller builds one function *instance per slave* — typically
//! [`crate::scheduler::WorkStealingFn`]s sharing one task queue over
//! chunks of the input cursor — and this executor runs the
//! instances on worker threads. Each slave drives its instance through
//! the pipelined `start`/`fetch`/`close` protocol and funnels result
//! batches into a bounded channel, so production and consumption
//! overlap (pipelining survives parallelism) and a slow consumer
//! back-pressures the slaves instead of buffering unboundedly.

use crate::pool::{self, PoolJoinHandle};
use crate::row::Row;
use crate::table_function::TableFunction;
use crate::TfError;
use crossbeam::channel::{bounded, Receiver, Sender};
use sdo_obs::ProfileNode;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How many in-flight batches each executor buffers before slaves
/// block. Small by design: the paper's pipelining argument is that the
/// full result set never materializes.
const CHANNEL_DEPTH: usize = 8;

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
    slave_fetch_size: usize,
    rx: Option<Receiver<Result<Vec<Row>, TfError>>>,
    handles: Vec<PoolJoinHandle>,
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
            slave_fetch_size: 256,
            rx: None,
            handles: Vec::new(),
            pending: VecDeque::new(),
            failed: None,
            profile: None,
        }
    }

    /// Batch size each slave uses when fetching from its instance.
    pub fn with_slave_fetch_size(mut self, n: usize) -> Self {
        self.slave_fetch_size = n.max(1);
        self
    }

    /// Degree of parallelism. Recorded at construction, so it stays
    /// valid across the whole lifecycle (`start` drains `instances`
    /// into slave threads and `close` drains `handles`).
    pub fn dop(&self) -> usize {
        self.dop
    }

    fn spawn_slave(
        id: usize,
        mut f: Box<dyn TableFunction>,
        tx: Sender<Result<Vec<Row>, TfError>>,
        fetch_size: usize,
        profile: Option<ProfileNode>,
    ) -> PoolJoinHandle {
        // Slaves run on the process-wide cached pool rather than a
        // freshly spawned thread per slave per query, so concurrent
        // statements in a multi-session server share a stable worker
        // set (see [`crate::pool`]).
        pool::global().submit(move || {
            // Profiling: this slave's node becomes the thread's
            // current profile, so operators running inside the
            // instance hang their detail under "slave N". The guard
            // drops before the worker re-parks, leaving no ambient
            // profile behind on the reused thread.
            let _profile_scope = profile.clone().map(sdo_obs::enter);
            if let Some(node) = &profile {
                f.attach_profile(node);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                f.start()?;
                loop {
                    let fetch_started = profile.as_ref().map(|_| Instant::now());
                    let batch = f.fetch(fetch_size)?;
                    if let (Some(node), Some(t0)) = (&profile, fetch_started) {
                        node.add_wall(t0.elapsed());
                        if !batch.is_empty() {
                            node.add_batches(1);
                            node.add_rows(batch.len() as u64);
                        }
                    }
                    if batch.is_empty() {
                        break;
                    }
                    if tx.send(Ok(batch)).is_err() {
                        // Consumer went away (early close): stop
                        // producing and release resources.
                        break;
                    }
                }
                f.close();
                Ok::<(), TfError>(())
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    let _ = tx.send(Err(e));
                }
                Err(_) => {
                    let _ = tx.send(Err(TfError::SlavePanic(id)));
                }
            }
        })
    }
}

impl TableFunction for ParallelTableFunction {
    fn start(&mut self) -> Result<(), TfError> {
        if self.rx.is_some() {
            return Err(TfError::Protocol("start called twice"));
        }
        // If no node was attached explicitly, pick up the ambient
        // profile of the calling thread (if a session is active).
        let parent = self.profile.clone().or_else(sdo_obs::current);
        if let Some(p) = &parent {
            p.set_attr("dop", self.dop.to_string());
        }
        let (tx, rx) = bounded(CHANNEL_DEPTH.max(self.instances.len()));
        for (id, inst) in self.instances.drain(..).enumerate() {
            let slave_node = parent.as_ref().map(|p| p.child(format!("slave {id}")));
            self.handles.push(Self::spawn_slave(
                id,
                inst,
                tx.clone(),
                self.slave_fetch_size,
                slave_node,
            ));
        }
        drop(tx); // receiver disconnects once every slave finishes
        self.rx = Some(rx);
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let rx = self.rx.as_ref().ok_or(TfError::Protocol("fetch before start"))?;
        while self.pending.len() < max_rows {
            match rx.recv() {
                Ok(Ok(batch)) => self.pending.extend(batch),
                Ok(Err(e)) => {
                    self.failed = Some(e.clone());
                    self.close();
                    return Err(e);
                }
                Err(_) => break, // all slaves done
            }
        }
        let n = self.pending.len().min(max_rows);
        Ok(self.pending.drain(..n).collect())
    }

    fn close(&mut self) {
        self.rx = None; // unblocks slaves waiting on a full channel
        for h in self.handles.drain(..) {
            h.join();
        }
        self.pending.clear();
    }

    fn attach_profile(&mut self, node: &ProfileNode) {
        self.profile = Some(node.clone());
    }
}

impl Drop for ParallelTableFunction {
    fn drop(&mut self) {
        self.close();
    }
}

/// Run per-slave instances to completion and collect every row.
///
/// Convenience wrapper over [`ParallelTableFunction`] +
/// [`crate::table_function::collect_all`].
pub fn execute_parallel(
    instances: Vec<Box<dyn TableFunction>>,
    fetch_size: usize,
) -> Result<Vec<Row>, TfError> {
    if instances.is_empty() {
        // An empty input sliced dop ways yields no slave instances —
        // e.g. building an index over a table with no rows yet.
        return Ok(Vec::new());
    }
    let mut p = ParallelTableFunction::new(instances).with_slave_fetch_size(fetch_size);
    crate::table_function::collect_all(&mut p, fetch_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_function::BufferedFn;
    use sdo_storage::Value;

    fn instance(lo: i64, hi: i64) -> Box<dyn TableFunction> {
        Box::new(BufferedFn::new(move || Ok((lo..hi).map(|i| vec![Value::Integer(i)]).collect())))
    }

    fn sorted_ints(rows: Vec<Row>) -> Vec<i64> {
        let mut v: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merges_all_slave_output() {
        for dop in [1usize, 2, 4, 7] {
            let per = 100i64;
            let instances: Vec<_> =
                (0..dop as i64).map(|i| instance(i * per, (i + 1) * per)).collect();
            let rows = execute_parallel(instances, 16).unwrap();
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
        let err = execute_parallel(vec![Box::new(Panicking)], 4).unwrap_err();
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
        let rows = crate::table_function::collect_all(&mut p, 16).unwrap();
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
        // A slave that produces in many small batches; the consumer sees
        // rows before the slave finishes (bounded channel guarantees the
        // slave cannot have finished when the first fetch returns).
        let instances: Vec<_> = vec![instance(0, 1_000_000)];
        let mut p = ParallelTableFunction::new(instances).with_slave_fetch_size(16);
        p.start().unwrap();
        let first = p.fetch(1).unwrap();
        assert_eq!(first.len(), 1);
        p.close();
    }
}
