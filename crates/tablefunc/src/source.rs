//! Input cursors for table functions.

use crate::row::Row;
use parking_lot::RwLock;
use sdo_storage::{Snapshot, Table, Value};
use std::sync::Arc;

/// A cursor handing rows to a table function, batch at a time.
///
/// This is the "set of input rows" of the paper's §2: a sub-query
/// operand materialized lazily. `next_batch` returns at most `max`
/// rows; an empty batch means the cursor is exhausted.
pub trait RowSource: Send {
    /// Up to `max` more rows; empty means exhausted.
    fn next_batch(&mut self, max: usize) -> Vec<Row>;

    /// Drain the remaining rows (testing/utility).
    fn drain(&mut self) -> Vec<Row>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        loop {
            let batch = self.next_batch(1024);
            if batch.is_empty() {
                return out;
            }
            out.extend(batch);
        }
    }
}

/// A cursor over a pre-materialized vector of rows.
pub struct VecSource {
    rows: std::vec::IntoIter<Row>,
}

impl VecSource {
    /// A cursor over `rows`.
    pub fn new(rows: Vec<Row>) -> Self {
        VecSource { rows: rows.into_iter() }
    }
}

impl RowSource for VecSource {
    fn next_batch(&mut self, max: usize) -> Vec<Row> {
        self.rows.by_ref().take(max).collect()
    }
}

/// A cursor scanning a slot range of a shared heap table, prepending
/// the rowid as the first output column.
///
/// Locks the table per batch and reads it with
/// [`Table::scan_range_at`], so concurrent readers and the scan
/// interleave. The cursor carries an MVCC [`Snapshot`]
/// ([`Snapshot::LATEST`] unless pinned via [`TableCursor::at_snapshot`]),
/// so a pinned scan is Oracle's consistent-read cursor: writers may
/// commit mid-scan without the cursor observing them.
pub struct TableCursor {
    table: Arc<RwLock<Table>>,
    next_slot: usize,
    end_slot: usize,
    /// Column projection applied after the rowid column; `None` keeps
    /// every column.
    projection: Option<Vec<usize>>,
    /// Read view for visibility decisions.
    snap: Snapshot,
}

impl TableCursor {
    /// Cursor over the whole table.
    pub fn full(table: Arc<RwLock<Table>>) -> Self {
        let end = table.read().high_water_mark();
        TableCursor { table, next_slot: 0, end_slot: end, projection: None, snap: Snapshot::LATEST }
    }

    /// Cursor over slots `[from, to)`.
    pub fn slice(table: Arc<RwLock<Table>>, from: usize, to: usize) -> Self {
        TableCursor {
            table,
            next_slot: from,
            end_slot: to,
            projection: None,
            snap: Snapshot::LATEST,
        }
    }

    /// Project specific columns (after the leading rowid column).
    pub fn with_projection(mut self, cols: Vec<usize>) -> Self {
        self.projection = Some(cols);
        self
    }

    /// Pin the cursor to an MVCC read snapshot.
    pub fn at_snapshot(mut self, snap: Snapshot) -> Self {
        self.snap = snap;
        self
    }
}

impl RowSource for TableCursor {
    fn next_batch(&mut self, max: usize) -> Vec<Row> {
        if self.next_slot >= self.end_slot {
            return Vec::new();
        }
        let table = self.table.read();
        let end = self.end_slot.min(table.high_water_mark());
        let mut out = Vec::with_capacity(max.min(64));
        // A window never holds more slots than rows still wanted, so
        // the batch cannot overshoot `max`.
        while self.next_slot < end && out.len() < max {
            let to = end.min(self.next_slot + (max - out.len()));
            table.scan_range_at(self.next_slot, to, &self.snap, |rid, row| {
                let mut r: Row = Vec::with_capacity(1 + row.len());
                r.push(Value::RowId(rid));
                match &self.projection {
                    None => r.extend(row.iter().cloned()),
                    Some(cols) => r.extend(cols.iter().map(|&c| row[c].clone())),
                }
                out.push(r);
            });
            self.next_slot = to;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_storage::{DataType, RowId, Schema};

    fn sample_table() -> Arc<RwLock<Table>> {
        let mut t = Table::new("t", Schema::of(&[("ID", DataType::Integer)]));
        for i in 0..10 {
            t.insert(vec![Value::Integer(i)]).unwrap();
        }
        Arc::new(RwLock::new(t))
    }

    #[test]
    fn vec_source_batches() {
        let mut s = VecSource::new((0..5).map(|i| vec![Value::Integer(i)]).collect());
        assert_eq!(s.next_batch(2).len(), 2);
        assert_eq!(s.next_batch(2).len(), 2);
        assert_eq!(s.next_batch(2).len(), 1);
        assert!(s.next_batch(2).is_empty());
        assert!(s.next_batch(2).is_empty());
    }

    #[test]
    fn table_cursor_prepends_rowid() {
        let t = sample_table();
        let mut c = TableCursor::full(Arc::clone(&t));
        let rows = c.drain();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3][0].as_rowid(), Some(RowId::new(3)));
        assert_eq!(rows[3][1].as_integer(), Some(3));
    }

    #[test]
    fn table_cursor_slice_and_tombstones() {
        let t = sample_table();
        t.write().delete(RowId::new(4)).unwrap();
        let mut c = TableCursor::slice(Arc::clone(&t), 2, 7);
        let ids: Vec<i64> = c.drain().iter().map(|r| r[1].as_integer().unwrap()).collect();
        assert_eq!(ids, vec![2, 3, 5, 6]);
    }

    #[test]
    fn table_cursor_projection() {
        let t = Arc::new(RwLock::new({
            let mut t =
                Table::new("t", Schema::of(&[("A", DataType::Integer), ("B", DataType::Text)]));
            t.insert(vec![Value::Integer(7), Value::from("x")]).unwrap();
            t
        }));
        let mut c = TableCursor::full(t).with_projection(vec![1]);
        let rows = c.drain();
        assert_eq!(rows[0].len(), 2); // rowid + projected column
        assert_eq!(rows[0][1].as_text(), Some("x"));
    }

    #[test]
    fn pinned_cursor_ignores_later_commits() {
        let t = sample_table();
        let pinned = Snapshot::at(0);
        // A transaction inserts and commits after the snapshot is taken.
        let status = Arc::clone(t.read().status());
        let txid = status.begin();
        t.write().insert_txn(txid, vec![Value::Integer(99)]).unwrap();
        status.commit(txid, 1);
        t.write().apply_live_delta(1);

        let mut c = TableCursor::full(Arc::clone(&t)).at_snapshot(pinned);
        assert_eq!(c.drain().len(), 10, "pinned cursor keeps its read view");
        let mut latest = TableCursor::full(Arc::clone(&t));
        assert_eq!(latest.drain().len(), 11, "unpinned cursor sees the commit");
    }
}
