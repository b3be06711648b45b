//! Heap tables with per-row version chains.

use crate::mvcc::{Csn, Snapshot, StatusView, TxnId, TxnState, TxnStatusTable, FROZEN_TXN};
use crate::rowid::RowId;
use crate::schema::Schema;
use crate::stats::Counters;
use crate::value::Value;
use crate::StorageError;
use std::sync::Arc;

/// One version of a row: who created it, who (if anyone) deleted it,
/// and the payload. `xmax == 0` means "not deleted" — the frozen
/// pseudo-txn never appears as a deleter (non-transactional deletes
/// clear the chain instead).
#[derive(Debug, Clone)]
struct Version {
    xmin: TxnId,
    xmax: TxnId,
    row: Arc<[Value]>,
}

impl Version {
    fn frozen(row: Arc<[Value]>) -> Self {
        Version { xmin: FROZEN_TXN, xmax: 0, row }
    }

    fn visible(&self, snap: &Snapshot, status: &TxnStatusTable) -> bool {
        if !snap.sees(self.xmin, status) {
            return false;
        }
        self.xmax == 0 || !snap.sees(self.xmax, status)
    }

    /// [`Version::visible`] under an already held status lock.
    fn visible_in(&self, snap: &Snapshot, view: &StatusView<'_>) -> bool {
        snap.sees_in(self.xmin, view) && (self.xmax == 0 || !snap.sees_in(self.xmax, view))
    }
}

/// A heap-organized table: a slot array of row *version chains*
/// addressed by [`RowId`].
///
/// Deleted slots keep their position (an empty chain is a tombstone) so
/// rowids stay stable, like Oracle heap blocks between reorganizations.
/// Rows are `Arc`-shared so fetching a row is a refcount bump, not a
/// copy — important because the spatial join fetches geometry rows
/// repeatedly across candidate pairs.
///
/// ## Versioning model
///
/// Each slot holds its versions oldest-first. A version's visibility is
/// decided through the shared [`TxnStatusTable`]: a reader with a
/// [`Snapshot`] sees the newest version created by a transaction it
/// sees and not deleted by one it sees. The legacy non-transactional
/// API (`insert`/`update`/`delete`/`get`/`scan`) is preserved exactly:
/// it writes *frozen* versions (immediately visible everywhere) and
/// reads at [`Snapshot::LATEST`] — which still never observes another
/// transaction's uncommitted rows.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    slots: Vec<Vec<Version>>,
    /// Live rows at latest-committed visibility. Transactional writes
    /// adjust this at commit via [`Table::apply_live_delta`].
    live: usize,
    /// Monotone modification counter (every insert/update/delete bumps
    /// it); `ANALYZE` records it so the planner can measure how much
    /// DML its statistics have missed.
    mods: u64,
    counters: Arc<Counters>,
    status: Arc<TxnStatusTable>,
}

impl Table {
    /// An empty heap table (name is uppercased).
    pub fn new(name: &str, schema: Schema) -> Self {
        Table {
            name: name.to_ascii_uppercase(),
            schema,
            slots: Vec::new(),
            live: 0,
            mods: 0,
            counters: Arc::new(Counters::new()),
            status: Arc::new(TxnStatusTable::new()),
        }
    }

    /// Attach shared work counters (tables created through a
    /// [`crate::catalog::Catalog`] share the catalog's counters).
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.counters = counters;
        self
    }

    /// Attach a shared transaction status table (tables created through
    /// a [`crate::catalog::Catalog`] share the catalog's, so one commit
    /// flip covers every table the transaction touched).
    pub fn with_status(mut self, status: Arc<TxnStatusTable>) -> Self {
        self.status = status;
        self
    }

    /// Table name (uppercase).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The work counters this table charges reads to.
    #[inline]
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The transaction status table visibility is decided against.
    #[inline]
    pub fn status(&self) -> &Arc<TxnStatusTable> {
        &self.status
    }

    /// Number of live rows (latest-committed view; in-flight
    /// transactions are not counted until they commit).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live rows remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest slot ever allocated (scan upper bound).
    #[inline]
    pub fn high_water_mark(&self) -> usize {
        self.slots.len()
    }

    /// Total modifications (inserts + updates + deletes) ever applied.
    #[inline]
    pub fn mod_count(&self) -> u64 {
        self.mods
    }

    /// Restore the modification counter (snapshot load).
    #[inline]
    pub fn set_mod_count(&mut self, mods: u64) {
        self.mods = mods;
    }

    // -- non-transactional (frozen) writes --------------------------------

    /// Insert a row, returning its new rowid. The row is *frozen*:
    /// immediately visible to every snapshot (bulk loads, tests).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, StorageError> {
        self.schema.check_row(&row)?;
        let rid = RowId::new(self.slots.len() as u64);
        self.slots.push(vec![Version::frozen(row.into())]);
        self.live += 1;
        self.mods += 1;
        Ok(rid)
    }

    /// Bulk insert; rowids are assigned in order.
    pub fn insert_many(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Vec<RowId>, StorageError> {
        let mut rids = Vec::new();
        for row in rows {
            rids.push(self.insert(row)?);
        }
        Ok(rids)
    }

    /// Replace a row in place (frozen: visible immediately, old version
    /// not retained — non-transactional writes are not snapshot
    /// protected).
    pub fn update(&mut self, rid: RowId, row: Vec<Value>) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.check_write(rid, FROZEN_TXN, Csn::MAX)?;
        self.slots[rid.slot()] = vec![Version::frozen(row.into())];
        self.mods += 1;
        Ok(())
    }

    /// Delete a row, tombstoning its slot (frozen: immediate).
    pub fn delete(&mut self, rid: RowId) -> Result<(), StorageError> {
        self.check_write(rid, FROZEN_TXN, Csn::MAX)?;
        self.slots[rid.slot()].clear();
        self.live -= 1;
        self.mods += 1;
        Ok(())
    }

    // -- transactional writes ----------------------------------------------

    /// Insert a row on behalf of transaction `txid`. Invisible to other
    /// snapshots until the transaction commits.
    pub fn insert_txn(&mut self, txid: TxnId, row: Vec<Value>) -> Result<RowId, StorageError> {
        self.schema.check_row(&row)?;
        let rid = RowId::new(self.slots.len() as u64);
        self.slots.push(vec![Version { xmin: txid, xmax: 0, row: row.into() }]);
        self.mods += 1;
        Ok(rid)
    }

    /// Update a row on behalf of transaction `txid` whose snapshot is
    /// bounded by `snap_csn`. First-updater-wins: fails with
    /// [`StorageError::WriteConflict`] if another in-progress
    /// transaction wrote the row, or if a transaction committed a newer
    /// version after this transaction's snapshot (lost update).
    pub fn update_txn(
        &mut self,
        txid: TxnId,
        snap_csn: Csn,
        rid: RowId,
        row: Vec<Value>,
    ) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.check_write(rid, txid, snap_csn)?;
        let chain = &mut self.slots[rid.slot()];
        if let Some(newest) = chain.last_mut() {
            if newest.xmin == txid && newest.xmax == 0 {
                // Second write by the same transaction: replace in
                // place, no intermediate version to retain.
                newest.row = row.into();
                return Ok(());
            }
            newest.xmax = txid;
        }
        chain.push(Version { xmin: txid, xmax: 0, row: row.into() });
        self.mods += 1;
        Ok(())
    }

    /// Delete a row on behalf of transaction `txid` (snapshot bound
    /// `snap_csn`). Same conflict rules as [`Table::update_txn`].
    pub fn delete_txn(
        &mut self,
        txid: TxnId,
        snap_csn: Csn,
        rid: RowId,
    ) -> Result<(), StorageError> {
        self.check_write(rid, txid, snap_csn)?;
        let newest = self.slots[rid.slot()].last_mut().expect("check_write saw a version");
        newest.xmax = txid;
        self.mods += 1;
        Ok(())
    }

    /// Write-write conflict detection on the newest version of `rid`,
    /// pruning aborted versions as a side effect. `FROZEN_TXN` with
    /// `Csn::MAX` is the non-transactional caller: it conflicts with
    /// any in-progress writer but never on committed history.
    fn check_write(&mut self, rid: RowId, txid: TxnId, snap_csn: Csn) -> Result<(), StorageError> {
        let status = Arc::clone(&self.status);
        let chain = self.slots.get_mut(rid.slot()).ok_or(StorageError::NoSuchRow(rid))?;
        // Rollback cleanup the abort's own prune may not have reached
        // yet: the newest version must not be an aborted write.
        prune_chain(chain, &status, 0);
        let newest = chain.last().ok_or(StorageError::NoSuchRow(rid))?;
        if newest.xmax != 0 {
            return match status.state(newest.xmax) {
                // Deleted by us or by a committed transaction: the row
                // no longer exists for this writer.
                _ if newest.xmax == txid => Err(StorageError::NoSuchRow(rid)),
                TxnState::Committed(c) if c <= snap_csn => Err(StorageError::NoSuchRow(rid)),
                // Deleted after our snapshot, or delete still in
                // flight: first-updater-wins.
                _ => Err(StorageError::WriteConflict(rid)),
            };
        }
        if newest.xmin == FROZEN_TXN || newest.xmin == txid {
            return Ok(());
        }
        match status.state(newest.xmin) {
            TxnState::InProgress => Err(StorageError::WriteConflict(rid)),
            TxnState::Committed(c) if c > snap_csn => Err(StorageError::WriteConflict(rid)),
            _ => Ok(()),
        }
    }

    /// Drop the versions of `rids` that no snapshot at or after
    /// `horizon` can see, returning how many were dropped.
    ///
    /// A version goes when its deleter committed at or below `horizon`
    /// (every such snapshot sees the delete) or its creator aborted
    /// (nobody ever sees it); a delete by an aborted transaction is
    /// forgotten. The caller guarantees that no snapshot older than
    /// `horizon` is still reading. A slot left with no versions is a
    /// tombstone and gives its chain's memory back.
    pub fn prune(&mut self, rids: impl IntoIterator<Item = RowId>, horizon: Csn) -> u64 {
        let mut dropped = 0;
        for rid in rids {
            if let Some(chain) = self.slots.get_mut(rid.slot()) {
                dropped += prune_chain(chain, &self.status, horizon);
            }
        }
        Counters::add(&self.counters.heap_versions_pruned, dropped);
        dropped
    }

    /// Row versions held across all slots, dead ones included.
    pub fn version_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Apply a committed transaction's net live-row delta (inserts
    /// minus deletes against previously committed rows).
    pub fn apply_live_delta(&mut self, delta: i64) {
        self.live = (self.live as i64 + delta).max(0) as usize;
    }

    /// Materialize a frozen row at a specific slot, extending the slot
    /// array with tombstones as needed — WAL recovery replays inserts
    /// at their original rowids with this.
    pub fn restore_at(&mut self, rid: RowId, row: Vec<Value>) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        while self.slots.len() <= rid.slot() {
            self.slots.push(Vec::new());
        }
        if self.slots[rid.slot()].is_empty() {
            self.live += 1;
        }
        self.slots[rid.slot()] = vec![Version::frozen(row.into())];
        self.mods += 1;
        Ok(())
    }

    // -- reads -------------------------------------------------------------

    /// Fetch the row version visible to `snap` (a logical read).
    pub fn get_at(&self, rid: RowId, snap: &Snapshot) -> Result<Arc<[Value]>, StorageError> {
        Counters::bump(&self.counters.row_fetches);
        let chain = self.slots.get(rid.slot()).ok_or(StorageError::NoSuchRow(rid))?;
        chain
            .iter()
            .rev()
            .find(|v| v.visible(snap, &self.status))
            .map(|v| Arc::clone(&v.row))
            .ok_or(StorageError::NoSuchRow(rid))
    }

    /// Fetch the versions of `rids` visible to `snap`, in the order
    /// given, passing each to `f` borrowed: `None` when no version is
    /// visible or the slot does not exist. The visibility rule and the
    /// `row_fetches` charge (one per rowid) are [`Table::get_at`]'s, but
    /// the whole call takes the status-table read lock once instead of
    /// once per version check — the batch read behind §4.2's
    /// rowid-sorted fetch. `f` runs under that lock, so it must not
    /// touch the transaction status table.
    pub fn get_many_at(
        &self,
        rids: &[RowId],
        snap: &Snapshot,
        mut f: impl FnMut(RowId, Option<&Arc<[Value]>>),
    ) {
        Counters::add(&self.counters.row_fetches, rids.len() as u64);
        let view = self.status.view();
        for &rid in rids {
            let row = self.slots.get(rid.slot()).and_then(|chain| {
                chain.iter().rev().find(|v| v.visible_in(snap, &view)).map(|v| &v.row)
            });
            f(rid, row);
        }
    }

    /// Fetch a row by rowid at latest-committed visibility.
    pub fn get(&self, rid: RowId) -> Result<Arc<[Value]>, StorageError> {
        self.get_at(rid, &Snapshot::LATEST)
    }

    /// Fetch a single column of a row.
    pub fn get_column(&self, rid: RowId, col: usize) -> Result<Value, StorageError> {
        let row = self.get(rid)?;
        row.get(col)
            .cloned()
            .ok_or_else(|| StorageError::SchemaMismatch(format!("no column {col}")))
    }

    /// True when the rowid addresses a row visible to `snap`.
    pub fn exists_at(&self, rid: RowId, snap: &Snapshot) -> bool {
        self.slots
            .get(rid.slot())
            .is_some_and(|chain| chain.iter().rev().any(|v| v.visible(snap, &self.status)))
    }

    /// True when the rowid addresses a live row (latest-committed).
    pub fn exists(&self, rid: RowId) -> bool {
        self.exists_at(rid, &Snapshot::LATEST)
    }

    /// Visit the versions visible to `snap` in slots `[from, to)`, in
    /// slot order, passing each to `f` borrowed — the scan counterpart
    /// of [`Table::get_many_at`]. Visibility is decided under one
    /// status-table read lock per 1 024 slots (one per call for ranges
    /// that short), and the visible rows examined are
    /// charged to `rows_scanned` once per call; a scan charges no
    /// `row_fetches`, which count rowid fetches. Bounds clamp to the
    /// high-water mark. `f` runs under the status lock, so it must not
    /// touch the transaction status table.
    pub fn scan_range_at(
        &self,
        from: usize,
        to: usize,
        snap: &Snapshot,
        mut f: impl FnMut(RowId, &Arc<[Value]>),
    ) {
        let to = to.min(self.slots.len());
        let mut scanned = 0u64;
        let mut lo = from;
        while lo < to {
            let hi = (lo + SCAN_BATCH).min(to);
            let view = self.status.view();
            for (slot, chain) in self.slots[lo..hi].iter().enumerate() {
                if let Some(v) = chain.iter().rev().find(|v| v.visible_in(snap, &view)) {
                    scanned += 1;
                    f(RowId::new((lo + slot) as u64), &v.row);
                }
            }
            lo = hi;
        }
        Counters::add(&self.counters.rows_scanned, scanned);
    }

    /// Every row visible to `snap` as an owned `(rowid, row)` handle, in
    /// rowid order ([`Table::scan_range_at`] over the whole table).
    pub fn scan_at(&self, snap: Snapshot) -> std::vec::IntoIter<(RowId, Arc<[Value]>)> {
        let mut rows = Vec::new();
        self.scan_range_at(0, self.slots.len(), &snap, |rid, row| {
            rows.push((rid, Arc::clone(row)))
        });
        rows.into_iter()
    }

    /// Every live row (latest-committed) in rowid order.
    pub fn scan(&self) -> std::vec::IntoIter<(RowId, Arc<[Value]>)> {
        self.scan_at(Snapshot::LATEST)
    }
}

/// Slots per status-table read lock in [`Table::scan_range_at`]: long
/// enough to amortize the lock, short enough that a commit waiting for
/// it is not held up behind a whole-table scan.
const SCAN_BATCH: usize = 1024;

/// The pruning rule of [`Table::prune`] on one chain: drop versions
/// whose creator aborted or whose deleter committed at or below
/// `horizon`, and clear deletes by aborted transactions. Returns the
/// number of versions dropped.
fn prune_chain(chain: &mut Vec<Version>, status: &TxnStatusTable, horizon: Csn) -> u64 {
    let before = chain.len();
    chain.retain_mut(|v| {
        if matches!(status.state(v.xmin), TxnState::Aborted) {
            return false;
        }
        if v.xmax == 0 {
            return true;
        }
        match status.state(v.xmax) {
            TxnState::Committed(c) => c > horizon,
            TxnState::Aborted => {
                v.xmax = 0;
                true
            }
            TxnState::InProgress => true,
        }
    });
    if chain.is_empty() {
        *chain = Vec::new();
    }
    (before - chain.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn table() -> Table {
        Table::new("t", Schema::of(&[("ID", DataType::Integer), ("NAME", DataType::Text)]))
    }

    fn row(id: i64, name: &str) -> Vec<Value> {
        vec![Value::Integer(id), Value::from(name)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = table();
        let r1 = t.insert(row(1, "a")).unwrap();
        let r2 = t.insert(row(2, "b")).unwrap();
        assert_eq!(r1, RowId::new(0));
        assert_eq!(r2, RowId::new(1));
        assert_eq!(t.len(), 2);
        let fetched = t.get(r2).unwrap();
        assert_eq!(fetched[1].as_text(), Some("b"));
        assert_eq!(t.get_column(r1, 0).unwrap().as_integer(), Some(1));
    }

    #[test]
    fn schema_enforced_on_insert_and_update() {
        let mut t = table();
        assert!(t.insert(vec![Value::from("wrong")]).is_err());
        let rid = t.insert(row(1, "a")).unwrap();
        assert!(t.update(rid, vec![Value::Integer(1)]).is_err());
        assert!(t.update(rid, row(9, "z")).is_ok());
        assert_eq!(t.get(rid).unwrap()[0].as_integer(), Some(9));
    }

    #[test]
    fn delete_tombstones_and_rowids_stay_stable() {
        let mut t = table();
        let r0 = t.insert(row(0, "a")).unwrap();
        let r1 = t.insert(row(1, "b")).unwrap();
        let r2 = t.insert(row(2, "c")).unwrap();
        t.delete(r1).unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.exists(r1));
        assert!(t.exists(r0));
        assert_eq!(t.get(r2).unwrap()[0].as_integer(), Some(2));
        assert_eq!(t.get(r1), Err(StorageError::NoSuchRow(r1)));
        assert_eq!(t.delete(r1), Err(StorageError::NoSuchRow(r1)));
        // scan skips the tombstone
        let ids: Vec<i64> = t.scan().map(|(_, r)| r[0].as_integer().unwrap()).collect();
        assert_eq!(ids, vec![0, 2]);
        // new insert does not reuse the tombstoned slot
        let r3 = t.insert(row(3, "d")).unwrap();
        assert_eq!(r3, RowId::new(3));
    }

    #[test]
    fn range_scans_respect_bounds() {
        let mut t = table();
        for i in 0..10 {
            t.insert(row(i, "x")).unwrap();
        }
        let ids = |from, to| {
            let mut ids = Vec::new();
            t.scan_range_at(from, to, &Snapshot::LATEST, |_, r| {
                ids.push(r[0].as_integer().unwrap())
            });
            ids
        };
        assert_eq!(ids(3, 6), vec![3, 4, 5]);
        // bounds clamp to table size
        assert_eq!(ids(8, 100), vec![8, 9]);
        assert!(ids(5, 5).is_empty());
    }

    #[test]
    fn range_scan_charges_visible_rows_once_per_call() {
        let mut t = table();
        for i in 0..(2 * SCAN_BATCH as i64 + 5) {
            t.insert(row(i, "x")).unwrap();
        }
        t.delete(RowId::new(7)).unwrap();
        let (scanned, fetched) = (&t.counters().rows_scanned, &t.counters().row_fetches);
        let (s0, f0) = (Counters::get(scanned), Counters::get(fetched));
        let mut seen = 0;
        t.scan_range_at(0, usize::MAX, &Snapshot::LATEST, |_, _| seen += 1);
        assert_eq!(seen, 2 * SCAN_BATCH + 4, "the tombstone is skipped across batches");
        assert_eq!(Counters::get(scanned) - s0, seen as u64, "visible rows examined");
        assert_eq!(Counters::get(fetched), f0, "a scan is not a rowid fetch");
    }

    #[test]
    fn counters_track_io() {
        let mut t = table();
        let rid = t.insert(row(1, "a")).unwrap();
        let before = Counters::get(&t.counters().row_fetches);
        t.get(rid).unwrap();
        t.get(rid).unwrap();
        assert_eq!(Counters::get(&t.counters().row_fetches), before + 2);
        t.scan().count();
        assert!(Counters::get(&t.counters().rows_scanned) >= 1);
    }

    #[test]
    fn bulk_insert_assigns_sequential_rowids() {
        let mut t = table();
        let rids = t.insert_many((0..5).map(|i| row(i, "r"))).unwrap();
        assert_eq!(rids.len(), 5);
        assert!(rids.windows(2).all(|w| w[0] < w[1]));
    }

    // -- MVCC behaviour ----------------------------------------------------

    #[test]
    fn uncommitted_rows_invisible_until_commit() {
        let mut t = table();
        t.insert(row(0, "base")).unwrap();
        let status = Arc::clone(t.status());
        let txid = status.begin();
        let rid = t.insert_txn(txid, row(1, "pending")).unwrap();

        // Invisible to latest-committed readers, visible to the owner.
        assert_eq!(t.get(rid), Err(StorageError::NoSuchRow(rid)));
        assert_eq!(t.len(), 1);
        let own = Snapshot { csn: 0, txid };
        assert_eq!(t.get_at(rid, &own).unwrap()[0].as_integer(), Some(1));

        status.commit(txid, 1);
        t.apply_live_delta(1);
        assert_eq!(t.get(rid).unwrap()[0].as_integer(), Some(1));
        assert_eq!(t.len(), 2);
        // A snapshot taken before the commit still excludes it.
        assert!(!t.exists_at(rid, &Snapshot::at(0)));
        assert!(t.exists_at(rid, &Snapshot::at(1)));
    }

    #[test]
    fn aborted_versions_vanish_and_are_pruned() {
        let mut t = table();
        let r0 = t.insert(row(0, "keep")).unwrap();
        let status = Arc::clone(t.status());
        let txid = status.begin();
        let r1 = t.insert_txn(txid, row(1, "doomed")).unwrap();
        t.update_txn(txid, 0, r0, row(7, "doomed-update")).unwrap();
        status.abort(txid);

        // Rollback is a status flip: old state is back immediately.
        assert_eq!(t.get(r0).unwrap()[0].as_integer(), Some(0));
        assert!(!t.exists(r1));
        assert_eq!(t.len(), 1);
        // A later frozen write prunes the aborted chain lazily.
        t.update(r0, row(2, "after")).unwrap();
        assert_eq!(t.get(r0).unwrap()[0].as_integer(), Some(2));
    }

    #[test]
    fn snapshot_readers_see_pre_update_versions() {
        let mut t = table();
        let rid = t.insert(row(1, "v1")).unwrap();
        let status = Arc::clone(t.status());
        let txid = status.begin();
        t.update_txn(txid, 0, rid, row(2, "v2")).unwrap();
        status.commit(txid, 1);

        assert_eq!(t.get_at(rid, &Snapshot::at(0)).unwrap()[1].as_text(), Some("v1"));
        assert_eq!(t.get_at(rid, &Snapshot::at(1)).unwrap()[1].as_text(), Some("v2"));
        let ids: Vec<i64> =
            t.scan_at(Snapshot::at(0)).map(|(_, r)| r[0].as_integer().unwrap()).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn snapshot_delete_preserves_old_view() {
        let mut t = table();
        let rid = t.insert(row(1, "a")).unwrap();
        let status = Arc::clone(t.status());
        let txid = status.begin();
        t.delete_txn(txid, 0, rid).unwrap();
        // Deleter no longer sees it; others still do.
        assert!(!t.exists_at(rid, &Snapshot { csn: 0, txid }));
        assert!(t.exists(rid));
        status.commit(txid, 1);
        t.apply_live_delta(-1);
        assert!(!t.exists(rid));
        assert!(t.exists_at(rid, &Snapshot::at(0)), "pre-delete snapshot still sees the row");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn write_write_conflicts_first_updater_wins() {
        let mut t = table();
        let rid = t.insert(row(1, "a")).unwrap();
        let status = Arc::clone(t.status());
        let t1 = status.begin();
        let t2 = status.begin();
        t.update_txn(t1, 0, rid, row(2, "t1")).unwrap();
        // Concurrent writer loses immediately (no waiting).
        assert_eq!(t.update_txn(t2, 0, rid, row(3, "t2")), Err(StorageError::WriteConflict(rid)));
        assert_eq!(t.delete_txn(t2, 0, rid), Err(StorageError::WriteConflict(rid)));
        // Frozen writers conflict with in-progress transactions too.
        assert_eq!(t.update(rid, row(4, "frozen")), Err(StorageError::WriteConflict(rid)));

        // First-committer-wins across snapshots: t1 commits at csn 1,
        // t2's snapshot (csn 0) is now stale for this row.
        status.commit(t1, 1);
        assert_eq!(t.update_txn(t2, 0, rid, row(3, "t2")), Err(StorageError::WriteConflict(rid)));
        // A transaction whose snapshot covers the commit may proceed.
        let t3 = status.begin();
        assert!(t.update_txn(t3, 1, rid, row(5, "t3")).is_ok());
    }

    #[test]
    fn own_transaction_multi_write_collapses() {
        let mut t = table();
        let status = Arc::clone(t.status());
        let txid = status.begin();
        let rid = t.insert_txn(txid, row(1, "a")).unwrap();
        t.update_txn(txid, 0, rid, row(2, "b")).unwrap();
        t.update_txn(txid, 0, rid, row(3, "c")).unwrap();
        let own = Snapshot { csn: 0, txid };
        assert_eq!(t.get_at(rid, &own).unwrap()[0].as_integer(), Some(3));
        t.delete_txn(txid, 0, rid).unwrap();
        assert!(!t.exists_at(rid, &own));
        // Delete-then-touch errors like a missing row.
        assert_eq!(t.update_txn(txid, 0, rid, row(4, "d")), Err(StorageError::NoSuchRow(rid)));
        status.commit(txid, 1);
        assert!(!t.exists(rid));
    }

    #[test]
    fn prune_drops_what_the_horizon_has_passed() {
        let mut t = table();
        let r0 = t.insert(row(0, "v0")).unwrap();
        let r1 = t.insert(row(1, "gone")).unwrap();
        let status = Arc::clone(t.status());
        let w = status.begin();
        t.update_txn(w, 0, r0, row(0, "v1")).unwrap();
        t.delete_txn(w, 0, r1).unwrap();
        status.commit(w, 1);
        let doomed = status.begin();
        let r2 = t.insert_txn(doomed, row(2, "aborted")).unwrap();
        status.abort(doomed);
        assert_eq!(t.version_count(), 4);

        // A reader at CSN 0 still needs the old versions.
        assert_eq!(t.prune([r0, r1], 0), 0);
        assert_eq!(t.get_at(r0, &Snapshot::at(0)).unwrap()[1].as_text(), Some("v0"));

        // Past the commit they are dead, as is the aborted insert.
        assert_eq!(t.prune([r0, r1, r2], 1), 3);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get(r0).unwrap()[1].as_text(), Some("v1"));
        assert!(!t.exists(r1) && !t.exists(r2));
        assert_eq!(t.slots[r1.slot()].capacity(), 0, "an emptied slot frees its chain");
        assert_eq!(Counters::get(&t.counters().heap_versions_pruned), 3);
    }

    #[test]
    fn restore_at_fills_gaps_with_tombstones() {
        let mut t = table();
        t.restore_at(RowId::new(2), row(2, "c")).unwrap();
        assert_eq!(t.high_water_mark(), 3);
        assert_eq!(t.len(), 1);
        assert!(!t.exists(RowId::new(0)));
        assert_eq!(t.get(RowId::new(2)).unwrap()[0].as_integer(), Some(2));
        // Restoring over an existing row replaces it without double
        // counting.
        t.restore_at(RowId::new(2), row(9, "z")).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(RowId::new(2)).unwrap()[0].as_integer(), Some(9));
    }
}
