//! Dynamic work-stealing task scheduling for parallel table functions.
//!
//! Oracle distributes a parallel table function's input statically: the
//! cursor is partitioned once and each slave owns its slice. On skewed
//! data one slave then drains a dense partition while the rest idle.
//! [`TaskQueue`] is the one way slaves get work here instead: all
//! slaves share one queue, each pulls its next task on demand through
//! [`TaskQueue::next`], and a slave that runs dry *steals* from a busy
//! sibling, so no slave idles while tasks remain anywhere. The paper's
//! `PARTITION BY ANY` split is the queue's round-robin seed
//! ([`TaskQueue::seed_round_robin`]).
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

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared work-stealing task queue for `dop` workers.
///
/// Seed it once (round-robin, or by [`push`](Self::push) before the
/// workers start), hand an `Arc` to every slave, and let each slave
/// call [`next`](Self::next) until it returns `None`. A slave splits an
/// oversized task inside `next`, whose split closure re-queues the
/// children on the slave's own shard. The queue keeps the per-worker
/// tallies ([`executed`](Self::executed), [`stolen`](Self::stolen),
/// [`split`](Self::split)) that slaves report as `tasks_executed` /
/// `tasks_stolen` / `tasks_split`; each worker id has one puller, so a
/// worker's tally is final once its `next` has returned `None`.
pub struct TaskQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Per-worker count of tasks handed out, split ones included.
    executed: Vec<AtomicU64>,
    /// Per-worker count of those that were stolen from a sibling.
    stolen: Vec<AtomicU64>,
    /// Per-worker count of tasks split into re-queued children.
    split: Vec<AtomicU64>,
    /// Tasks queued plus tasks held inside a `next` call. Zero means no
    /// task can appear any more.
    pending: AtomicUsize,
}

/// One task taken out of a shard but not yet given to the caller or
/// replaced by its children. Dropping it (also on unwind from a
/// panicking split) releases its count in `pending`.
struct Held<'a>(&'a AtomicUsize);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T> TaskQueue<T> {
    /// An empty queue for `dop` workers.
    pub fn new(dop: usize) -> Self {
        let dop = dop.max(1);
        let tally = || (0..dop).map(|_| AtomicU64::new(0)).collect();
        TaskQueue {
            shards: (0..dop).map(|_| Mutex::new(VecDeque::new())).collect(),
            executed: tally(),
            stolen: tally(),
            split: tally(),
            pending: AtomicUsize::new(0),
        }
    }

    /// Seed a queue by dealing `tasks` round-robin across the worker
    /// shards (each worker starts with a fair share; stealing evens out
    /// whatever imbalance execution cost introduces).
    pub fn seed_round_robin(tasks: Vec<T>, dop: usize) -> Arc<Self> {
        let q = Self::new(dop);
        for (i, t) in tasks.into_iter().enumerate() {
            q.push(i, t);
        }
        Arc::new(q)
    }

    /// Number of workers this queue serves.
    pub fn dop(&self) -> usize {
        self.shards.len()
    }

    /// Push a task onto `worker`'s shard (LIFO end). This seeds the
    /// queue while no worker is pulling; a worker that splits a task
    /// re-queues the children inside [`next`](Self::next) instead.
    pub fn push(&self, worker: usize, task: T) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.shards[worker % self.shards.len()].lock().push_back(task);
    }

    /// Pull the next task for `worker`: its own shard first (LIFO),
    /// then steal FIFO from siblings, scanning from the next worker up.
    ///
    /// When a sibling could steal (`dop > 1`), `split` may break the
    /// task up: its children go onto the worker's own shard, so the
    /// worker keeps descending depth-first while idle siblings steal
    /// the oldest (largest) children from the far end, and the pull
    /// goes on. At `dop` 1 nothing is split.
    ///
    /// Returns `None` only when every shard is empty and no worker is
    /// inside a split: a dry queue with a sibling still splitting waits
    /// for that sibling's children. A worker holds a task inside this
    /// call only, so workers driven in turn on one thread never wait on
    /// each other.
    pub fn next(&self, worker: usize, mut split: impl FnMut(&T) -> Option<Vec<T>>) -> Option<T> {
        let me = worker % self.shards.len();
        loop {
            let Some(task) = self.take(me) else {
                if self.pending.load(Ordering::SeqCst) == 0 {
                    return None;
                }
                std::thread::yield_now();
                continue;
            };
            let held = Held(&self.pending);
            if self.dop() > 1 {
                if let Some(children) = split(&task) {
                    self.split[me].fetch_add(1, Ordering::Relaxed);
                    for child in children {
                        self.push(me, child);
                    }
                    continue; // `held` drops only after its children are queued
                }
            }
            drop(held);
            return Some(task);
        }
    }

    /// Pop `me`'s own shard, else steal from a sibling.
    fn take(&self, me: usize) -> Option<T> {
        let n = self.shards.len();
        let own = self.shards[me].lock().pop_back();
        let task = own.or_else(|| {
            let task = (1..n).find_map(|i| self.shards[(me + i) % n].lock().pop_front())?;
            self.stolen[me].fetch_add(1, Ordering::Relaxed);
            Some(task)
        })?;
        self.executed[me].fetch_add(1, Ordering::Relaxed);
        Some(task)
    }

    /// Tasks executed by `worker` so far.
    pub fn executed(&self, worker: usize) -> u64 {
        self.executed[worker % self.executed.len()].load(Ordering::Relaxed)
    }

    /// Tasks `worker` stole from siblings so far.
    pub fn stolen(&self, worker: usize) -> u64 {
        self.stolen[worker % self.stolen.len()].load(Ordering::Relaxed)
    }

    /// Tasks `worker` split into re-queued children so far.
    pub fn split(&self, worker: usize) -> u64 {
        self.split[worker % self.split.len()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{Fanout, Outbox};
    use std::sync::mpsc;
    use std::time::Duration;

    fn whole<T>(_: &T) -> Option<Vec<T>> {
        None
    }

    /// A per-worker tally summed over every worker.
    fn total<T>(q: &TaskQueue<T>, tally: fn(&TaskQueue<T>, usize) -> u64) -> u64 {
        (0..q.dop()).map(|w| tally(q, w)).sum()
    }

    /// Run one `Fanout` body per worker of `q`, each pulling through
    /// `next` with `split` and sending every task it runs; returns the
    /// tasks in arrival order. Worker 0 sleeps `lag` per task.
    fn drain_in_parallel<T: Send + 'static>(
        q: &Arc<TaskQueue<T>>,
        split: fn(&T) -> Option<Vec<T>>,
        lag: Duration,
    ) -> Vec<T> {
        let bodies = (0..q.dop()).map(|w| {
            let q = Arc::clone(q);
            move |out: &Outbox<Option<T>>| {
                while let Some(t) = q.next(w, split) {
                    if w == 0 {
                        std::thread::sleep(lag);
                    }
                    out.send(Some(t));
                }
            }
        });
        // A panicking body sends `None`, which fails the unwrap below.
        let fanout = Fanout::spawn(64, bodies, |_| None);
        std::iter::from_fn(|| fanout.recv()).map(|t| t.expect("no worker panicked")).collect()
    }

    #[test]
    fn every_task_handed_out_exactly_once() {
        let q = TaskQueue::seed_round_robin((0..100i64).collect(), 4);
        let mut got = Vec::new();
        // Single worker drains everything: its own shard, then steals.
        while let Some(t) = q.next(2, whole) {
            got.push(t);
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(total(&q, TaskQueue::executed), 100);
        assert_eq!(q.executed(2), 100);
        assert_eq!(q.stolen(2), 75, "three sibling shards fully stolen");
        assert_eq!(q.next(0, whole), None);
    }

    #[test]
    fn own_shard_pops_lifo_steals_fifo() {
        let q = TaskQueue::new(2);
        q.push(0, 1i64);
        q.push(0, 2);
        q.push(0, 3);
        assert_eq!(q.next(0, whole), Some(3), "own shard is LIFO");
        assert_eq!(q.stolen(0), 0);
        assert_eq!(q.next(1, whole), Some(1), "steals take the oldest");
        assert_eq!(q.next(1, whole), Some(2));
        assert_eq!((q.executed(1), q.stolen(1)), (2, 2), "both of worker 1's tasks were steals");
        assert_eq!(q.next(0, whole), None);
    }

    #[test]
    fn mid_run_pushes_are_executed() {
        let q = TaskQueue::seed_round_robin(vec![10i64], 3);
        // Worker 0 splits the pulled task into two children on its own
        // shard and keeps the newest; a sibling steals the other.
        let split = |&t: &i64| (t == 10).then(|| vec![t + 1, t + 2]);
        assert_eq!(q.next(0, split), Some(12));
        assert_eq!(q.next(1, whole), Some(11));
        assert_eq!((q.next(1, whole), q.next(2, whole)), (None, None));
        assert_eq!((q.split(0), total(&q, TaskQueue::executed)), (1, 3), "one split, three out");
    }

    #[test]
    fn nothing_is_split_without_a_sibling() {
        let q = TaskQueue::seed_round_robin(vec![10i64], 1);
        assert_eq!(q.next(0, |&t| Some(vec![t + 1, t + 2])), Some(10));
        assert_eq!((q.next(0, whole), q.split(0)), (None, 0));
    }

    #[test]
    fn a_dry_queue_waits_for_a_sibling_mid_split() {
        // Worker 0 pulls the only task and is held inside its split
        // closure; worker 1 pulls from the now-empty queue meanwhile.
        let q = TaskQueue::seed_round_robin(vec![10i64], 2);
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let splitter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.next(0, |&t| {
                    if t != 10 {
                        return None;
                    }
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Some(vec![11, 12])
                })
            })
        };
        entered.recv().unwrap();
        let (asking_tx, asking) = mpsc::channel();
        let thief = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                asking_tx.send(()).unwrap();
                q.next(1, whole)
            })
        };
        asking.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!thief.is_finished(), "worker 1 must wait while worker 0 may still push children");
        release.send(()).unwrap();
        let (mine, stolen) = (splitter.join().unwrap(), thief.join().unwrap());
        assert_eq!(stolen, Some(11), "worker 1 receives a child, not the end of the queue");
        assert_eq!(mine, Some(12));
        assert_eq!(q.next(0, whole), None);
    }

    #[test]
    fn a_panicking_split_does_not_strand_its_siblings() {
        let q = TaskQueue::seed_round_robin(vec![1i64], 2);
        let q2 = Arc::clone(&q);
        let panicked = std::thread::spawn(move || q2.next(0, |_| panic!("split failed"))).join();
        assert!(panicked.is_err());
        assert_eq!(q.next(1, whole), None, "the lost task no longer counts as pending");
    }

    #[test]
    fn parallel_workers_cover_queue_exactly() {
        // Range tasks split down to single values while the workers
        // run: every value comes out exactly once at every dop.
        let halve = |&(lo, hi): &(i64, i64)| {
            (hi - lo > 1).then(|| vec![(lo, lo + (hi - lo) / 2), (lo + (hi - lo) / 2, hi)])
        };
        for dop in [1usize, 2, 4] {
            let seeds = (0..200).step_by(25).map(|lo| (lo, lo + 25)).collect();
            let q = TaskQueue::seed_round_robin(seeds, dop);
            let ran = drain_in_parallel(&q, halve, Duration::ZERO);
            let mut got: Vec<i64> = ran.iter().flat_map(|&(lo, hi)| lo..hi).collect();
            got.sort_unstable();
            assert_eq!(got, (0..200).collect::<Vec<_>>(), "dop={dop}");
            let splits = total(&q, TaskQueue::split);
            let executed = total(&q, TaskQueue::executed);
            assert_eq!(executed, 8 + 2 * splits, "dop={dop}: seeds plus children");
            assert_eq!(q.next(0, whole), None);
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
        let ran = drain_in_parallel(&q, whole, Duration::from_micros(200));
        assert_eq!(ran.len(), 400);
        assert_eq!(total(&q, TaskQueue::executed), 400);
        assert!(
            total(&q, TaskQueue::stolen) > 0,
            "siblings must have stolen from the loaded shard"
        );
    }
}
