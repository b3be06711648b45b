#![warn(missing_docs)]
//! # sdo-txn — transactions, commit protocol, crash recovery
//!
//! The transaction subsystem tying together the storage layer's MVCC
//! primitives ([`sdo_storage::mvcc`]) and write-ahead log
//! ([`sdo_storage::wal`]):
//!
//! * [`TxnManager`] — allocates transaction ids and commit sequence
//!   numbers, hands out read snapshots, and runs the commit protocol
//!   (serialize CSN allocation, flip the status table, publish the new
//!   CSN). Rollback is a status flip: aborted versions become
//!   invisible immediately. The manager also tracks which snapshots
//!   are still being read — one *pin* per open transaction and per
//!   running statement — and holds back the cleanup a commit leaves
//!   (dropping dead row versions, retiring index entries) until no
//!   pinned snapshot predates that commit.
//! * [`recovery`] — replays a WAL record prefix over a checkpoint base
//!   image: DDL applies immediately (it is autocommitted), DML applies
//!   only for transactions whose `Commit` record made it into the
//!   durable prefix. Because the log is replayed in order and ends at
//!   the first hole, the recovered state always equals a serial prefix
//!   of the committed transactions — all-or-nothing per transaction.
//!
//! The SQL session layer (`sdo-dbms`) builds `BEGIN`/`COMMIT`/
//! `ROLLBACK`, autocommit, and index-maintenance enlistment on top of
//! these pieces.

use parking_lot::Mutex;
use sdo_storage::{Counters, Csn, Snapshot, TxnId, TxnStatusTable};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

pub mod recovery;

/// A begun transaction: its id plus the read snapshot it runs under.
///
/// The snapshot's `txid` is the transaction itself, so reads through it
/// see the transaction's own uncommitted writes on top of the world as
/// of its begin CSN (snapshot isolation). The snapshot stays pinned
/// until the token is passed to [`TxnManager::commit`] or
/// [`TxnManager::abort`].
#[derive(Debug)]
pub struct TxnToken {
    /// The transaction id.
    pub txid: TxnId,
    /// The transaction's read view (own writes + commits ≤ begin CSN).
    pub snap: Snapshot,
}

/// Cleanup a finished transaction leaves behind: run once with the
/// horizon at which it became safe (see [`TxnManager::horizon`]).
pub type Deferred = Box<dyn FnOnce(Csn) + Send>;

/// Allocates transaction ids / commit sequence numbers and runs the
/// commit protocol against a shared [`TxnStatusTable`].
///
/// One manager per database; cheap enough that autocommitted
/// single-statement transactions go through the same path as explicit
/// multi-statement ones: a begin and a commit each take the status
/// table's lock once, and nothing else unless the commit left cleanup.
///
/// ## Pins and the horizon
///
/// Every snapshot that may still be read is *pinned*: a transaction's
/// from [`TxnManager::begin`] to its commit or abort, a statement's for
/// as long as it runs ([`TxnManager::pin`]). The *horizon* is the
/// oldest pinned CSN, or the current CSN when nothing is pinned. A
/// version deleted by a commit at or below the horizon is invisible to
/// every snapshot anyone can still read, so it may go. Commits hand
/// that cleanup over as [`Deferred`] work, which runs as soon as the
/// horizon reaches the commit's CSN — at once when nothing older is
/// pinned, else when the last older pin is released.
pub struct TxnManager {
    status: Arc<TxnStatusTable>,
    counters: Arc<Counters>,
    /// Cleanup waiting for the horizon, keyed by commit CSN, ascending.
    deferred: Mutex<VecDeque<(Csn, Deferred)>>,
    /// Length of `deferred`, so releasing a pin skips the queue's lock
    /// while nothing waits.
    waiting: AtomicUsize,
    /// In-flight (begun, not yet resolved) transactions.
    active: AtomicU64,
}

/// A running statement's pin (see [`TxnManager::pin`]). Dropping it
/// releases the pin and runs the cleanup that was waiting on it.
pub struct StatementPin<'a> {
    manager: &'a TxnManager,
    csn: Csn,
}

impl Drop for StatementPin<'_> {
    fn drop(&mut self) {
        let horizon = self.manager.status.unpin(self.csn);
        self.manager.run_ready(horizon);
    }
}

impl TxnManager {
    /// A manager over the given shared status table and counters
    /// (typically the catalog's).
    pub fn new(status: Arc<TxnStatusTable>, counters: Arc<Counters>) -> Self {
        TxnManager {
            status,
            counters,
            deferred: Mutex::new(VecDeque::new()),
            waiting: AtomicUsize::new(0),
            active: AtomicU64::new(0),
        }
    }

    /// The shared status table visibility is decided against.
    pub fn status(&self) -> &Arc<TxnStatusTable> {
        &self.status
    }

    /// Begin a transaction: allocate an id and pin its read snapshot.
    pub fn begin(&self) -> TxnToken {
        let (txid, csn) = self.status.begin_pinned();
        self.active.fetch_add(1, Ordering::Relaxed);
        TxnToken { txid, snap: Snapshot { csn, txid } }
    }

    /// Pin the current CSN for one statement. Every snapshot the
    /// statement reads at or after this CSN keeps all the versions it
    /// can see until the returned guard is dropped, so take the pin
    /// before reading any snapshot.
    pub fn pin(&self) -> StatementPin<'_> {
        StatementPin { manager: self, csn: self.status.pin() }
    }

    /// A plain reader snapshot: the latest published CSN, no
    /// transaction attached. Not pinned by itself: read it under a
    /// [`TxnManager::pin`] taken first.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::at(self.status.current_csn())
    }

    /// The highest published commit sequence number.
    pub fn current_csn(&self) -> Csn {
        self.status.current_csn()
    }

    /// The oldest pinned CSN, or the current CSN when nothing is
    /// pinned. It never moves backwards.
    pub fn horizon(&self) -> Csn {
        self.status.horizon()
    }

    /// Number of in-flight transactions (checkpoints require zero).
    pub fn active_count(&self) -> u64 {
        self.active.load(Ordering::Acquire)
    }

    /// Commit: allocate the next CSN, flip the status table (the
    /// atomic visibility point), publish the CSN so new snapshots
    /// include this transaction, and release its pin. `cleanup` runs
    /// once the horizon reaches the new CSN.
    pub fn commit(&self, token: TxnToken, cleanup: Option<Deferred>) -> Csn {
        let (csn, horizon) = self.status.commit_next(token.txid, token.snap.csn);
        self.active.fetch_sub(1, Ordering::Relaxed);
        Counters::bump(&self.counters.txn_commits);
        match cleanup {
            Some(work) if horizon >= csn => work(horizon),
            Some(work) => {
                self.defer(csn, work);
                // An older pin may have gone between the commit and the
                // queueing; its release found nothing to run.
                self.run_ready(self.status.horizon());
                return csn;
            }
            None => {}
        }
        self.run_ready(horizon);
        csn
    }

    /// Abort: flip the status table; every version the transaction
    /// wrote becomes permanently invisible (O(1) heap rollback). The
    /// pin is released and `cleanup` (dropping those versions, which
    /// no snapshot can see) runs at once.
    pub fn abort(&self, token: TxnToken, cleanup: Option<Deferred>) {
        self.status.abort(token.txid);
        self.active.fetch_sub(1, Ordering::Relaxed);
        Counters::bump(&self.counters.txn_aborts);
        let horizon = self.status.unpin(token.snap.csn);
        self.run_ready(horizon);
        if let Some(work) = cleanup {
            work(horizon);
        }
    }

    /// Queue `work` until the horizon reaches `csn`.
    fn defer(&self, csn: Csn, work: Deferred) {
        let mut queue = self.deferred.lock();
        // Commits can queue slightly out of CSN order.
        let at = queue.partition_point(|(c, _)| *c <= csn);
        queue.insert(at, (csn, work));
        self.waiting.fetch_add(1, Ordering::SeqCst);
    }

    /// Run the queued cleanup `horizon` has passed.
    fn run_ready(&self, horizon: Csn) {
        if self.waiting.load(Ordering::SeqCst) == 0 {
            return;
        }
        let ready: Vec<Deferred> = {
            let mut queue = self.deferred.lock();
            let n = queue.partition_point(|(c, _)| *c <= horizon);
            self.waiting.fetch_sub(n, Ordering::SeqCst);
            queue.drain(..n).map(|(_, work)| work).collect()
        };
        for work in ready {
            work(horizon);
        }
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("current_csn", &self.current_csn())
            .field("active", &self.active_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_storage::TxnState;

    fn manager() -> TxnManager {
        TxnManager::new(Arc::new(TxnStatusTable::new()), Arc::new(Counters::new()))
    }

    #[test]
    fn csns_are_dense_and_ordered() {
        let m = manager();
        let a = m.begin();
        let b = m.begin();
        assert_eq!(m.active_count(), 2);
        assert_eq!(a.snap.csn, 0);
        let a_id = a.txid;
        let c1 = m.commit(a, None);
        let c2 = m.commit(b, None);
        assert_eq!((c1, c2), (1, 2));
        assert_eq!(m.current_csn(), 2);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.status().state(a_id), TxnState::Committed(1));
    }

    #[test]
    fn snapshots_exclude_later_commits() {
        let m = manager();
        let a = m.begin();
        let a_id = a.txid;
        let snap = m.snapshot();
        m.commit(a, None);
        assert!(!snap.sees(a_id, m.status()), "pre-commit snapshot stays consistent");
        assert!(m.snapshot().sees(a_id, m.status()));
    }

    #[test]
    fn abort_counts_and_flips() {
        let counters = Arc::new(Counters::new());
        let m = TxnManager::new(Arc::new(TxnStatusTable::new()), Arc::clone(&counters));
        let t = m.begin();
        let t_id = t.txid;
        m.abort(t, None);
        assert_eq!(m.status().state(t_id), TxnState::Aborted);
        assert_eq!(Counters::get(&counters.txn_aborts), 1);
        assert_eq!(Counters::get(&counters.txn_commits), 0);
    }

    #[test]
    fn concurrent_commits_serialize() {
        let m = Arc::new(manager());
        let tokens: Vec<_> = (0..8).map(|_| m.begin()).collect();
        let handles: Vec<_> = tokens
            .into_iter()
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || m.commit(t, None))
            })
            .collect();
        let mut csns: Vec<Csn> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        csns.sort_unstable();
        assert_eq!(csns, (1..=8).collect::<Vec<_>>(), "dense, unique CSNs");
    }

    /// Deferred cleanup that records the horizon it ran at.
    fn recorder(log: &Arc<parking_lot::Mutex<Vec<(u32, Csn)>>>, id: u32) -> Option<Deferred> {
        let log = Arc::clone(log);
        Some(Box::new(move |horizon| log.lock().push((id, horizon))))
    }

    #[test]
    fn horizon_is_the_oldest_pin_or_the_current_csn() {
        let m = manager();
        assert_eq!(m.horizon(), 0);
        let t = m.begin();
        m.commit(t, None);
        assert_eq!(m.horizon(), 1, "nothing pinned: the current CSN");
        let reader = m.begin();
        let stmt = m.pin();
        for _ in 0..3 {
            let w = m.begin();
            m.commit(w, None);
        }
        assert_eq!(m.horizon(), 1, "the open transaction holds it back");
        drop(stmt);
        assert_eq!(m.horizon(), 1);
        m.abort(reader, None);
        assert_eq!(m.horizon(), 4);
    }

    #[test]
    fn cleanup_waits_for_every_older_pin() {
        let m = manager();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));

        // Nothing older pinned: the cleanup runs inside the commit.
        let w = m.begin();
        m.commit(w, recorder(&log, 1));
        assert_eq!(*log.lock(), vec![(1, 1)]);

        // An older statement pin and an older transaction hold it back.
        let stmt = m.pin();
        let reader = m.begin();
        let w = m.begin();
        m.commit(w, recorder(&log, 2));
        let w = m.begin();
        m.commit(w, None);
        assert_eq!(log.lock().len(), 1, "readers at CSN 1 may still need the versions");
        drop(stmt);
        assert_eq!(log.lock().len(), 1, "the transaction still pins CSN 1");
        m.abort(reader, recorder(&log, 3));
        assert_eq!(*log.lock(), vec![(1, 1), (2, 3), (3, 3)], "commit order, at the new horizon");
    }

    #[test]
    fn a_read_only_commit_runs_the_cleanup_it_held_back() {
        let m = manager();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let reader = m.begin();
        let w = m.begin();
        m.commit(w, recorder(&log, 1));
        assert!(log.lock().is_empty());
        m.commit(reader, None);
        assert_eq!(*log.lock(), vec![(1, 2)]);
    }

    #[test]
    fn pins_at_one_csn_count_separately() {
        let m = manager();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let a = m.pin();
        let b = m.pin();
        let w = m.begin();
        m.commit(w, recorder(&log, 1));
        drop(a);
        assert!(log.lock().is_empty(), "the second pin at CSN 0 still holds");
        drop(b);
        assert_eq!(*log.lock(), vec![(1, 1)]);
    }
}
