//! Dynamic work-stealing task scheduling for parallel table functions.
//!
//! Oracle distributes a parallel table function's input statically: the
//! cursor is partitioned once and each slave owns its slice. On skewed
//! data one slave then drains a dense partition while the rest idle.
//! [`TaskQueue`] is the one way slaves get work here instead: all
//! slaves share one queue, each pulls its next task on demand, and a
//! slave that runs dry *steals* from a busy sibling, so no slave idles
//! while tasks remain anywhere. The paper's `PARTITION BY ANY` split is
//! the queue's round-robin seed ([`TaskQueue::seed_round_robin`]).
//!
//! Structure: one small deque shard per worker. A worker pushes and
//! pops its own shard LIFO (cache-warm, no contention in the common
//! case) and steals FIFO from siblings (oldest — and for a splitting
//! producer, largest — tasks move, minimizing steal traffic). Shards
//! are individually locked; with one `VecDeque` per worker the lock is
//! cheap and held for a pop only.
//!
//! The queue is purely a *repartitioning* of the same task multiset:
//! every seeded or pushed task is handed out exactly once, so parallel
//! results remain the multiset of the serial ones regardless of which
//! worker executes what.

use crate::row::Row;
use crate::table_function::TableFunction;
use crate::TfError;
use parking_lot::Mutex;
use sdo_obs::ProfileNode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared work-stealing task queue for `dop` workers.
///
/// Seed it once (round-robin or from pre-built partitions), hand an
/// `Arc` to every slave, and let each slave `pop(worker_id)` until the
/// queue is dry. Workers may `push` follow-up tasks (e.g. after
/// splitting an oversized task) onto their own shard mid-run. The queue
/// keeps the per-worker tallies ([`executed`](Self::executed),
/// [`stolen`](Self::stolen)) that slaves report as `tasks_executed` /
/// `tasks_stolen`; each worker id has one popper, so a worker's tally
/// is final once it stops popping.
pub struct TaskQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Per-worker count of tasks handed out via `pop(worker)`.
    executed: Vec<AtomicU64>,
    /// Per-worker count of those that were stolen from a sibling.
    stolen: Vec<AtomicU64>,
}

impl<T> TaskQueue<T> {
    /// An empty queue for `dop` workers.
    pub fn new(dop: usize) -> Self {
        let dop = dop.max(1);
        TaskQueue {
            shards: (0..dop).map(|_| Mutex::new(VecDeque::new())).collect(),
            executed: (0..dop).map(|_| AtomicU64::new(0)).collect(),
            stolen: (0..dop).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Seed a queue by dealing `tasks` round-robin across the worker
    /// shards (each worker starts with a fair share; stealing evens out
    /// whatever imbalance execution cost introduces).
    pub fn seed_round_robin(tasks: Vec<T>, dop: usize) -> Arc<Self> {
        let q = Self::new(dop);
        for (i, t) in tasks.into_iter().enumerate() {
            q.shards[i % q.shards.len()].lock().push_back(t);
        }
        Arc::new(q)
    }

    /// Number of workers this queue serves.
    pub fn dop(&self) -> usize {
        self.shards.len()
    }

    /// Tasks currently queued across all shards (racy snapshot; exact
    /// only once all workers have stopped).
    pub fn remaining(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Push a task onto `worker`'s own shard (LIFO end, so the worker
    /// keeps working depth-first on what it just split).
    pub fn push(&self, worker: usize, task: T) {
        self.shards[worker % self.shards.len()].lock().push_back(task);
    }

    /// Pull the next task for `worker`: its own shard first (LIFO),
    /// then steal FIFO from siblings, scanning from the next worker
    /// up. Returns `None` only when every shard is empty — at which
    /// point this worker is done (a sibling may still push split
    /// children afterwards, but exactly-once execution is preserved:
    /// whoever holds a task runs it).
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.shards.len();
        let me = worker % n;
        if let Some(task) = self.shards[me].lock().pop_back() {
            self.executed[me].fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
        for i in 1..n {
            let victim = (me + i) % n;
            if let Some(task) = self.shards[victim].lock().pop_front() {
                self.executed[me].fetch_add(1, Ordering::Relaxed);
                self.stolen[me].fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    /// Tasks executed by `worker` so far.
    pub fn executed(&self, worker: usize) -> u64 {
        self.executed[worker % self.executed.len()].load(Ordering::Relaxed)
    }

    /// Tasks `worker` stole from siblings so far.
    pub fn stolen(&self, worker: usize) -> u64 {
        self.stolen[worker % self.stolen.len()].load(Ordering::Relaxed)
    }

    /// Total tasks handed out across all workers.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total steals across all workers.
    pub fn total_stolen(&self) -> u64 {
        self.stolen.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// A table function that pulls tasks from a shared [`TaskQueue`] and
/// maps each through a body closure — the parallel form of
/// [`crate::pipeline::CursorFn`]: with tasks that are chunks of an
/// input cursor, the slaves together map every input row exactly once.
///
/// Build one instance per slave (same queue, distinct `worker` ids) and
/// run them under [`crate::parallel::ParallelTableFunction`]. Each
/// instance stamps its worker's queue tallies as `tasks_executed` /
/// `tasks_stolen` on its profile node at close, so `EXPLAIN ANALYZE`
/// shows how the load actually spread.
pub struct WorkStealingFn<T, F> {
    queue: Arc<TaskQueue<T>>,
    worker: usize,
    body: F,
    pending: VecDeque<Row>,
    started: bool,
    profile: Option<ProfileNode>,
}

impl<T, F> WorkStealingFn<T, F>
where
    T: Send,
    F: FnMut(T) -> Result<Vec<Row>, TfError> + Send,
{
    /// A slave instance pulling from `queue` as worker `worker`.
    pub fn new(queue: Arc<TaskQueue<T>>, worker: usize, body: F) -> Self {
        WorkStealingFn {
            queue,
            worker,
            body,
            pending: VecDeque::new(),
            started: false,
            profile: None,
        }
    }
}

impl<T, F> TableFunction for WorkStealingFn<T, F>
where
    T: Send,
    F: FnMut(T) -> Result<Vec<Row>, TfError> + Send,
{
    fn start(&mut self) -> Result<(), TfError> {
        if self.started {
            return Err(TfError::Protocol("start called twice"));
        }
        self.started = true;
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if !self.started {
            return Err(TfError::Protocol("fetch before start"));
        }
        while self.pending.len() < max_rows {
            let Some(task) = self.queue.pop(self.worker) else { break };
            self.pending.extend((self.body)(task)?);
        }
        let n = self.pending.len().min(max_rows);
        Ok(self.pending.drain(..n).collect())
    }

    fn close(&mut self) {
        self.pending.clear();
        if let Some(node) = self.profile.take() {
            // set_metric: a zero must render — a slave that executed
            // nothing is the load-imbalance signal EXPLAIN ANALYZE
            // exists to show.
            node.set_metric("tasks_executed", self.queue.executed(self.worker));
            node.set_metric("tasks_stolen", self.queue.stolen(self.worker));
        }
    }

    fn attach_profile(&mut self, node: &ProfileNode) {
        self.profile = Some(node.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::execute_parallel;
    use sdo_storage::Value;

    #[test]
    fn every_task_handed_out_exactly_once() {
        let q = TaskQueue::seed_round_robin((0..100i64).collect(), 4);
        let mut got = Vec::new();
        // Single worker drains everything: its own shard, then steals.
        while let Some(t) = q.pop(2) {
            got.push(t);
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(q.total_executed(), 100);
        assert_eq!(q.executed(2), 100);
        assert_eq!(q.stolen(2), 75, "three sibling shards fully stolen");
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn own_shard_pops_lifo_steals_fifo() {
        let q = TaskQueue::new(2);
        q.push(0, 1i64);
        q.push(0, 2);
        q.push(0, 3);
        assert_eq!(q.pop(0), Some(3), "own shard is LIFO");
        assert_eq!(q.stolen(0), 0);
        assert_eq!(q.pop(1), Some(1), "steals take the oldest");
        assert_eq!(q.pop(1), Some(2));
        assert_eq!((q.executed(1), q.stolen(1)), (2, 2), "both of worker 1's tasks were steals");
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn mid_run_pushes_are_executed() {
        let q = TaskQueue::seed_round_robin(vec![10i64], 3);
        let t = q.pop(0).unwrap();
        // Split the pulled task into two children on the own shard.
        q.push(0, t + 1);
        q.push(0, t + 2);
        let mut rest: Vec<i64> = std::iter::from_fn(|| q.pop(1)).collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![11, 12]);
    }

    #[test]
    fn parallel_workers_cover_queue_exactly() {
        for dop in [1usize, 2, 4] {
            let q = TaskQueue::seed_round_robin((0..200i64).collect(), dop);
            let instances: Vec<Box<dyn TableFunction>> = (0..dop)
                .map(|w| {
                    let q = Arc::clone(&q);
                    Box::new(WorkStealingFn::new(Arc::clone(&q), w, move |t: i64| {
                        Ok(vec![vec![Value::Integer(t)]])
                    })) as Box<dyn TableFunction>
                })
                .collect();
            let rows = execute_parallel(instances, 16).unwrap();
            let mut got: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, (0..200).collect::<Vec<_>>(), "dop={dop}");
            assert_eq!(q.total_executed(), 200, "dop={dop}");
        }
    }

    #[test]
    fn skewed_shards_get_rebalanced_by_stealing() {
        // All work lands on worker 0's shard; the other workers must
        // still execute via steals when worker 0 is slow.
        let q: Arc<TaskQueue<i64>> = Arc::new(TaskQueue::new(4));
        for t in 0..400 {
            q.push(0, t);
        }
        let instances: Vec<Box<dyn TableFunction>> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                Box::new(WorkStealingFn::new(Arc::clone(&q), w, move |t: i64| {
                    if w == 0 {
                        // The shard owner is the slowest worker.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    Ok(vec![vec![Value::Integer(t)]])
                })) as Box<dyn TableFunction>
            })
            .collect();
        let rows = execute_parallel(instances, 32).unwrap();
        assert_eq!(rows.len(), 400);
        assert_eq!(q.total_executed(), 400);
        assert!(q.total_stolen() > 0, "siblings must have stolen from the loaded shard");
    }

    #[test]
    fn profile_reports_task_metrics() {
        let session = sdo_obs::ProfileSession::begin("steal");
        let node = session.root().child("WORKER");
        let q = TaskQueue::seed_round_robin((0..7i64).collect(), 1);
        let mut f = WorkStealingFn::new(q, 0, move |t: i64| Ok(vec![vec![Value::Integer(t)]]));
        f.attach_profile(&node);
        let rows = crate::table_function::collect_all(&mut f, 4).unwrap();
        assert_eq!(rows.len(), 7);
        let profile = session.finish();
        let op = profile.root.find("WORKER").unwrap();
        assert_eq!(op.metric("tasks_executed"), Some(7));
        assert_eq!(op.metric("tasks_stolen"), Some(0));
    }

    #[test]
    fn body_error_propagates() {
        let q = TaskQueue::seed_round_robin(vec![1i64], 1);
        let mut f = WorkStealingFn::new(q, 0, |_t: i64| {
            Err::<Vec<Row>, _>(TfError::Execution("boom".into()))
        });
        f.start().unwrap();
        assert!(f.fetch(8).is_err());
    }
}
