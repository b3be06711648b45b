//! A process-wide cached pool of slave worker threads.
//!
//! Before the pool, every parallel table-function execution spawned
//! `dop` fresh OS threads and joined them at close — fine for one
//! query at a time, wasteful once a multi-session server runs many
//! concurrent statements, each with its own slave set. The pool keeps
//! finished workers parked on their job channel and hands them the
//! next query's slaves, so steady-state concurrent execution reuses a
//! stable set of threads instead of churning thread create/destroy.
//!
//! The pool is *elastic*, not fixed-size: a submission with no idle
//! worker spawns a new thread immediately. That keeps the old
//! semantics (a query's slaves never wait for another query's slaves
//! to finish — no cross-query deadlock by pool starvation); the cap
//! applies only to how many *idle* workers stick around afterwards.
//! Excess workers exit once their job completes.
//!
//! Jobs run under `catch_unwind`, so a panicking slave body cannot
//! take its (reusable) worker thread down with it.

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Point-in-time pool statistics, for tests and the `/metrics`
/// exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads created since the pool was built.
    pub workers_spawned: u64,
    /// Worker threads currently alive (idle + busy).
    pub workers_alive: usize,
    /// Worker threads parked waiting for a job.
    pub workers_idle: usize,
    /// Jobs handed to a worker since the pool was built.
    pub jobs_submitted: u64,
}

struct PoolInner {
    /// Parked workers' job channels, LIFO so the most recently used
    /// (cache-warm) worker goes out first.
    idle: Vec<Sender<Job>>,
    workers_spawned: u64,
    workers_alive: usize,
    jobs_submitted: u64,
}

/// A cached, elastic worker pool for table-function slaves.
///
/// Most callers want [`global`]; private pools exist for tests and
/// for embedders that need isolated thread accounting.
pub struct SlavePool {
    inner: Mutex<PoolInner>,
    max_idle: usize,
}

/// Completion handle for one submitted job. [`join`](Self::join)
/// blocks until the job has finished (normally or by panic).
pub struct PoolJoinHandle {
    done: Receiver<()>,
}

impl PoolJoinHandle {
    /// Wait for the job to finish. A panicking job still completes
    /// its handle (the panic is contained inside the worker).
    pub fn join(self) {
        let _ = self.done.recv();
    }
}

impl SlavePool {
    /// Pool keeping at most `max_idle` parked workers.
    pub fn with_max_idle(max_idle: usize) -> Arc<Self> {
        Arc::new(SlavePool {
            inner: Mutex::new(PoolInner {
                idle: Vec::new(),
                workers_spawned: 0,
                workers_alive: 0,
                jobs_submitted: 0,
            }),
            max_idle,
        })
    }

    /// Pool with the default idle cap (2× available parallelism).
    pub fn new() -> Arc<Self> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::with_max_idle(cores * 2)
    }

    /// Run `job` on a pooled worker thread, reusing an idle worker if
    /// one is parked and spawning a fresh one otherwise. Never blocks
    /// waiting for a worker, so jobs from concurrent queries cannot
    /// deadlock each other.
    pub fn submit(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) -> PoolJoinHandle {
        let (done_tx, done_rx) = bounded(1);
        let wrapped: Job = Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(job));
            let _ = done_tx.send(());
        });
        let mut wrapped = wrapped;
        let mut inner = self.inner.lock();
        inner.jobs_submitted += 1;
        // A parked worker's sender can only disconnect if the worker
        // died abnormally; skip such corpses and keep looking for a
        // live one, spawning fresh only when the idle list runs dry.
        while let Some(tx) = inner.idle.pop() {
            match tx.send(wrapped) {
                Ok(()) => return PoolJoinHandle { done: done_rx },
                Err(e) => {
                    inner.workers_alive = inner.workers_alive.saturating_sub(1);
                    wrapped = e.0;
                }
            }
        }
        self.spawn_worker(inner, wrapped, done_rx)
    }

    fn spawn_worker(
        self: &Arc<Self>,
        mut inner: parking_lot::MutexGuard<'_, PoolInner>,
        first_job: Job,
        done_rx: Receiver<()>,
    ) -> PoolJoinHandle {
        inner.workers_spawned += 1;
        inner.workers_alive += 1;
        let worker_id = inner.workers_spawned;
        drop(inner);
        let pool = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("tf-pool-{worker_id}"))
            .spawn(move || {
                first_job();
                loop {
                    // Park on a fresh depth-1 channel each cycle. The
                    // idle list holds the only sender, so whoever pops
                    // it either hands over a job or — by dropping it —
                    // retires this worker.
                    let (tx, rx) = bounded::<Job>(1);
                    {
                        let mut inner = pool.inner.lock();
                        if inner.idle.len() >= pool.max_idle {
                            // Enough workers parked already; retire.
                            inner.workers_alive -= 1;
                            return;
                        }
                        inner.idle.push(tx);
                    }
                    // The crossbeam shim has no recv_timeout, so idle
                    // workers park with no time limit; the idle cap (not a
                    // keep-alive clock) bounds the resident set.
                    match rx.recv() {
                        Ok(job) => job(),
                        Err(_) => {
                            // Sender dropped without a job: retire.
                            pool.inner.lock().workers_alive -= 1;
                            return;
                        }
                    }
                }
            })
            .expect("spawn pooled table-function worker");
        PoolJoinHandle { done: done_rx }
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        PoolStats {
            workers_spawned: inner.workers_spawned,
            workers_alive: inner.workers_alive,
            workers_idle: inner.idle.len(),
            jobs_submitted: inner.jobs_submitted,
        }
    }

    /// The idle-worker cap this pool was built with.
    pub fn max_idle(&self) -> usize {
        self.max_idle
    }
}

/// The process-wide pool shared by every parallel table function (and
/// thus by every concurrent query in a multi-session server).
pub fn global() -> &'static Arc<SlavePool> {
    static GLOBAL: OnceLock<Arc<SlavePool>> = OnceLock::new();
    GLOBAL.get_or_init(SlavePool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn wait_until(pool: &SlavePool, pred: impl Fn(PoolStats) -> bool) -> PoolStats {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = pool.stats();
            if pred(s) || Instant::now() > deadline {
                return s;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn sequential_jobs_reuse_one_worker() {
        let pool = SlavePool::with_max_idle(4);
        for i in 0..5 {
            let hits = Arc::new(AtomicUsize::new(0));
            let h = {
                let hits = Arc::clone(&hits);
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                })
            };
            h.join();
            assert_eq!(hits.load(Ordering::SeqCst), 1);
            // join() returns when the job body finishes; the worker
            // re-parks just after. Wait for the park so the next
            // submit reuses it instead of racing to a fresh spawn.
            let s = wait_until(&pool, |s| s.workers_idle == 1);
            assert_eq!(s.workers_idle, 1, "worker should re-park after job {i}");
        }
        let s = pool.stats();
        assert_eq!(s.workers_spawned, 1, "five sequential jobs, one thread");
        assert_eq!(s.jobs_submitted, 5);
    }

    #[test]
    fn concurrent_jobs_get_concurrent_workers() {
        let pool = SlavePool::with_max_idle(8);
        let running = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let running = Arc::clone(&running);
                let release = Arc::clone(&release);
                pool.submit(move || {
                    running.fetch_add(1, Ordering::SeqCst);
                    while release.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        // All four must run simultaneously — an elastic pool never
        // queues one query's slave behind another's.
        let deadline = Instant::now() + Duration::from_secs(5);
        while running.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(running.load(Ordering::SeqCst), 4);
        release.store(1, Ordering::SeqCst);
        for h in handles {
            h.join();
        }
        assert!(pool.stats().workers_spawned >= 4);
    }

    #[test]
    fn idle_cap_retires_excess_workers() {
        let pool = SlavePool::with_max_idle(2);
        let release = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let release = Arc::clone(&release);
                pool.submit(move || {
                    while release.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        release.store(1, Ordering::SeqCst);
        for h in handles {
            h.join();
        }
        let s = wait_until(&pool, |s| s.workers_alive <= 2);
        assert!(s.workers_alive <= 2, "alive={} exceeds idle cap", s.workers_alive);
        assert!(s.workers_idle <= 2);
    }

    #[test]
    fn panicking_job_completes_handle_and_keeps_pool_usable() {
        let pool = SlavePool::with_max_idle(2);
        pool.submit(|| panic!("slave body exploded")).join();
        let ok = Arc::new(AtomicUsize::new(0));
        let h = {
            let ok = Arc::clone(&ok);
            pool.submit(move || {
                ok.fetch_add(1, Ordering::SeqCst);
            })
        };
        h.join();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }
}
