//! Multi-version concurrency control primitives.
//!
//! Oracle gives every query a *consistent read* view: readers never
//! block writers and never see half a transaction. This module supplies
//! the minimal machinery for that model over the in-memory heap tables:
//!
//! * [`TxnId`] — transaction identifiers, allocated by the central
//!   [`TxnStatusTable`]. Id `0` ([`FROZEN_TXN`]) is reserved for
//!   *frozen* rows: non-transactional writes and recovered rows that
//!   are visible to every snapshot.
//! * [`TxnStatusTable`] — the single source of truth for transaction
//!   outcomes. Commit is one status flip under a write lock, which is
//!   what makes a whole transaction's rows become visible atomically:
//!   a version is visible only *through* its creator's status, so no
//!   reader can observe half a commit (no torn reads).
//! * [`Snapshot`] — a read view: "everything committed with a commit
//!   sequence number ≤ `csn`, plus my own uncommitted writes".
//!
//! The status table also keeps the commit clock and the *pins*: the
//! CSNs of the snapshots still being read. The oldest pin (or the
//! current CSN when nothing is pinned) is the *horizon*; a version
//! whose deleter committed at or below it is invisible to every
//! snapshot anyone can still read. Outcomes, clock and pins share one
//! lock, so beginning a transaction (id + pinned snapshot) and
//! committing one (next CSN + flip + publish + unpin) are one atomic
//! step each.
//!
//! Version chains themselves live in [`crate::table::Table`]; rollback
//! is O(1) in heap terms — aborting flips the status and the aborted
//! versions are skipped by every reader until they are pruned.

use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// A transaction identifier (1-based; 0 is [`FROZEN_TXN`]).
pub type TxnId = u64;

/// A commit sequence number. Commits are totally ordered by CSN; a
/// [`Snapshot`] with `csn = c` sees exactly the transactions that
/// committed with CSN ≤ `c`.
pub type Csn = u64;

/// The pseudo transaction id of frozen (always-visible) row versions.
pub const FROZEN_TXN: TxnId = 0;

/// Outcome of a transaction, tracked by [`TxnStatusTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Started, neither committed nor aborted.
    InProgress,
    /// Committed with this commit sequence number.
    Committed(Csn),
    /// Rolled back; its row versions are invisible to everyone.
    Aborted,
}

/// A consistent read view.
///
/// `csn` bounds the committed world this snapshot sees; `txid` is the
/// owning transaction (its own uncommitted writes are visible to it),
/// or [`FROZEN_TXN`] for plain readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Highest commit sequence number visible to this snapshot.
    pub csn: Csn,
    /// Transaction whose uncommitted writes are visible (0 = none).
    pub txid: TxnId,
}

impl Snapshot {
    /// The "latest committed" view: every committed transaction is
    /// visible, no uncommitted ones. This is the default view of all
    /// non-transactional reads, so dirty reads are impossible even for
    /// legacy callers.
    pub const LATEST: Snapshot = Snapshot { csn: Csn::MAX, txid: FROZEN_TXN };

    /// A read view pinned at `csn` with no transaction attached.
    pub fn at(csn: Csn) -> Snapshot {
        Snapshot { csn, txid: FROZEN_TXN }
    }

    /// True when this snapshot sees the effects of writer `txid`:
    /// frozen writes, its own writes, and commits with CSN ≤ `csn`.
    #[inline]
    pub fn sees(&self, txid: TxnId, status: &TxnStatusTable) -> bool {
        txid == FROZEN_TXN
            || txid == self.txid
            || matches!(status.state(txid), TxnState::Committed(c) if c <= self.csn)
    }

    /// [`Snapshot::sees`] against a [`StatusView`]: the same rule,
    /// with no lock taken per check.
    #[inline]
    pub(crate) fn sees_in(&self, txid: TxnId, view: &StatusView<'_>) -> bool {
        txid == FROZEN_TXN
            || txid == self.txid
            || matches!(view.state(txid), TxnState::Committed(c) if c <= self.csn)
    }
}

/// Central transaction status table shared by every table of a catalog.
///
/// Status flips (commit/abort) are atomic with respect to visibility
/// checks, which makes multi-row transactions appear and disappear
/// all-or-nothing.
#[derive(Debug, Default)]
pub struct TxnStatusTable {
    status: RwLock<Status>,
    /// The latest published CSN. Written only under the write lock,
    /// read without it by plain snapshots.
    current: AtomicU64,
}

#[derive(Debug, Default)]
struct Status {
    // Indexed by txid - 1; txids are allocated densely by `begin`.
    states: Vec<TxnState>,
    /// Pinned snapshot CSNs with their pin counts, ascending. A pin is
    /// always taken at the current CSN, the largest ever pinned, so it
    /// appends (or bumps the last entry).
    pinned: VecDeque<(Csn, usize)>,
}

impl Status {
    fn state(&self, txid: TxnId) -> TxnState {
        if txid == FROZEN_TXN {
            return TxnState::Committed(0);
        }
        self.states.get(txid as usize - 1).copied().unwrap_or(TxnState::Aborted)
    }

    fn set(&mut self, txid: TxnId, state: TxnState) {
        assert_ne!(txid, FROZEN_TXN, "frozen pseudo-txn has no state");
        let slot = self.states.get_mut(txid as usize - 1).expect("txid was allocated by begin()");
        debug_assert_eq!(*slot, TxnState::InProgress, "double commit/abort of {txid}");
        *slot = state;
    }

    fn pin(&mut self, csn: Csn) {
        match self.pinned.back_mut() {
            Some((c, n)) if *c == csn => *n += 1,
            _ => self.pinned.push_back((csn, 1)),
        }
    }

    fn unpin(&mut self, csn: Csn) {
        let i = self.pinned.partition_point(|(c, _)| *c < csn);
        let entry = self.pinned.get_mut(i).filter(|(c, _)| *c == csn).expect("csn was pinned");
        entry.1 -= 1;
        if entry.1 == 0 {
            self.pinned.remove(i);
        }
    }

    fn horizon(&self, current: Csn) -> Csn {
        self.pinned.front().map_or(current, |(c, _)| *c)
    }
}

impl TxnStatusTable {
    /// An empty status table.
    pub fn new() -> Self {
        TxnStatusTable::default()
    }

    /// Allocate and register a new in-progress transaction.
    pub fn begin(&self) -> TxnId {
        let mut status = self.status.write();
        status.states.push(TxnState::InProgress);
        status.states.len() as TxnId
    }

    /// [`TxnStatusTable::begin`] plus a pin on the current CSN, which
    /// is returned: the transaction's snapshot.
    pub fn begin_pinned(&self) -> (TxnId, Csn) {
        let mut status = self.status.write();
        status.states.push(TxnState::InProgress);
        let csn = self.current.load(Ordering::Relaxed);
        status.pin(csn);
        (status.states.len() as TxnId, csn)
    }

    /// The current state of `txid`. Unknown ids (never allocated here,
    /// e.g. replayed from a foreign log) read as `Aborted`: their
    /// versions must stay invisible.
    #[inline]
    pub fn state(&self, txid: TxnId) -> TxnState {
        self.status.read().state(txid)
    }

    /// Hold the status read lock for a run of visibility checks: a
    /// batch of reads pays one lock instead of one per check, and every
    /// check in it sees the same outcomes. Commits and aborts wait
    /// until the view is dropped, so hold it briefly and take no other
    /// status lock while it lives.
    pub(crate) fn view(&self) -> StatusView<'_> {
        StatusView(self.status.read())
    }

    /// Flip `txid` to committed at `csn`. This is *the* commit point:
    /// after the flip every reader whose snapshot covers `csn` sees all
    /// of the transaction's rows, and nobody saw any of them before.
    /// The clock moves up to `csn` if it was behind.
    pub fn commit(&self, txid: TxnId, csn: Csn) {
        let mut status = self.status.write();
        status.set(txid, TxnState::Committed(csn));
        self.current.fetch_max(csn, Ordering::Release);
    }

    /// Commit `txid` at the next CSN, publish that CSN, and release the
    /// pin its snapshot held at `pinned`, in one step. Returns the
    /// commit CSN and the horizon after it.
    pub fn commit_next(&self, txid: TxnId, pinned: Csn) -> (Csn, Csn) {
        let mut status = self.status.write();
        let csn = self.current.load(Ordering::Relaxed) + 1;
        status.set(txid, TxnState::Committed(csn));
        self.current.store(csn, Ordering::Release);
        status.unpin(pinned);
        (csn, status.horizon(csn))
    }

    /// Flip `txid` to aborted; its versions become permanently
    /// invisible (O(1) heap rollback).
    pub fn abort(&self, txid: TxnId) {
        self.status.write().set(txid, TxnState::Aborted);
    }

    /// The latest published commit sequence number.
    #[inline]
    pub fn current_csn(&self) -> Csn {
        self.current.load(Ordering::Acquire)
    }

    /// Pin the current CSN and return it. Every version visible to a
    /// snapshot at or after it survives pruning until the pin is
    /// released with [`TxnStatusTable::unpin`].
    pub fn pin(&self) -> Csn {
        let mut status = self.status.write();
        let csn = self.current.load(Ordering::Relaxed);
        status.pin(csn);
        csn
    }

    /// Release one pin at `csn`, returning the horizon after it.
    pub fn unpin(&self, csn: Csn) -> Csn {
        let mut status = self.status.write();
        status.unpin(csn);
        status.horizon(self.current.load(Ordering::Relaxed))
    }

    /// The oldest pinned CSN, or the current CSN when nothing is
    /// pinned. It never moves backwards: new pins are taken at the
    /// current CSN.
    pub fn horizon(&self) -> Csn {
        self.status.read().horizon(self.current.load(Ordering::Acquire))
    }

    /// Number of transactions ever begun (capacity bookkeeping).
    pub fn allocated(&self) -> usize {
        self.status.read().states.len()
    }
}

/// Transaction outcomes under one held read lock
/// ([`TxnStatusTable::view`]).
pub(crate) struct StatusView<'a>(RwLockReadGuard<'a, Status>);

impl StatusView<'_> {
    /// The state of `txid`, as [`TxnStatusTable::state`] reports it.
    #[inline]
    pub(crate) fn state(&self, txid: TxnId) -> TxnState {
        self.0.state(txid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_abort_lifecycle() {
        let st = TxnStatusTable::new();
        let a = st.begin();
        let b = st.begin();
        assert_eq!((a, b), (1, 2));
        assert_eq!(st.state(a), TxnState::InProgress);
        st.commit(a, 7);
        st.abort(b);
        assert_eq!(st.state(a), TxnState::Committed(7));
        assert_eq!(st.state(b), TxnState::Aborted);
        assert_eq!(st.allocated(), 2);
    }

    #[test]
    fn pins_hold_the_horizon_and_commits_advance_the_clock() {
        let st = TxnStatusTable::new();
        assert_eq!(st.horizon(), 0);
        let (a, snap_a) = st.begin_pinned();
        let (b, snap_b) = st.begin_pinned();
        assert_eq!((snap_a, snap_b), (0, 0));
        assert_eq!(st.commit_next(a, snap_a), (1, 0), "b still pins CSN 0");
        let stmt = st.pin();
        assert_eq!(stmt, 1);
        assert_eq!(st.commit_next(b, snap_b), (2, 1), "the statement pins CSN 1");
        assert_eq!(st.current_csn(), 2);
        assert_eq!(st.unpin(stmt), 2, "nothing pinned: the current CSN");
        assert_eq!(st.state(b), TxnState::Committed(2));
    }

    #[test]
    fn frozen_and_unknown_txids() {
        let st = TxnStatusTable::new();
        assert_eq!(st.state(FROZEN_TXN), TxnState::Committed(0));
        assert_eq!(st.state(99), TxnState::Aborted);
    }

    #[test]
    fn snapshot_visibility_rules() {
        let st = TxnStatusTable::new();
        let t1 = st.begin();
        let t2 = st.begin();
        st.commit(t1, 5);

        let early = Snapshot::at(4);
        let late = Snapshot::at(5);
        assert!(!early.sees(t1, &st), "commit csn 5 is invisible at csn 4");
        assert!(late.sees(t1, &st));
        assert!(!late.sees(t2, &st), "in-progress txns are invisible");
        assert!(Snapshot { csn: 0, txid: t2 }.sees(t2, &st), "own writes are visible");
        assert!(late.sees(FROZEN_TXN, &st), "frozen rows visible everywhere");
        assert!(Snapshot::LATEST.sees(t1, &st));
        assert!(!Snapshot::LATEST.sees(t2, &st), "LATEST still excludes uncommitted");
    }
}
