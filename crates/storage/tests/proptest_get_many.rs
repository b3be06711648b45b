//! `Table::get_many_at` must read exactly what `Table::get_at` reads.
//!
//! Random histories of overlapping transactions (inserts, updates,
//! deletes; commits, aborts, some left in flight) over frozen rows
//! build the version chains. Then, for a plain reader at every CSN,
//! `LATEST`, and each in-flight transaction's own snapshot, one batch
//! read of an arbitrary rowid list — unsorted, with repeats and with
//! slots past the end of the heap — returns, rowid by rowid, the row
//! `get_at` returns (or nothing where `get_at` errs), and charges one
//! `row_fetches` per rowid.

use proptest::prelude::*;
use sdo_storage::{Counters, Csn, DataType, RowId, Schema, Snapshot, Table, TxnId, Value};
use std::sync::Arc;

/// One step of a history; indices are reduced modulo what exists.
#[derive(Debug, Clone)]
enum Step {
    Begin,
    Insert(usize),
    Update(usize, usize),
    Delete(usize, usize),
    /// A non-transactional delete of a frozen row: the chain is
    /// cleared at once.
    FrozenDelete(usize),
    Commit(usize),
    Abort(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Begin),
        (0usize..8).prop_map(Step::Insert),
        ((0usize..8), (0usize..16)).prop_map(|(t, r)| Step::Update(t, r)),
        ((0usize..8), (0usize..16)).prop_map(|(t, r)| Step::Delete(t, r)),
        (0usize..16).prop_map(Step::FrozenDelete),
        (0usize..8).prop_map(Step::Commit),
        (0usize..8).prop_map(Step::Abort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn get_many_at_reads_what_get_at_reads(
        frozen in 0usize..6,
        steps in proptest::collection::vec(arb_step(), 1..80),
        picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let mut t = Table::new("t", Schema::of(&[("ID", DataType::Integer), ("V", DataType::Integer)]));
        let status = Arc::clone(t.status());
        for i in 0..frozen {
            t.insert(vec![Value::Integer(i as i64), Value::Integer(0)]).unwrap();
        }
        let mut csn: Csn = 0;
        // Open transactions: (txid, snapshot CSN).
        let mut open: Vec<(TxnId, Csn)> = Vec::new();
        for (value, step) in steps.iter().enumerate() {
            let row = |id: usize| vec![Value::Integer(id as i64), Value::Integer(value as i64)];
            let slots = t.high_water_mark();
            match *step {
                Step::Begin => open.push((status.begin(), csn)),
                // Only rows that began frozen: the live-row count of a
                // transactional insert is the committer's to apply.
                Step::FrozenDelete(r) if frozen > 0 => {
                    let _ = t.delete(RowId::new((r % frozen) as u64));
                }
                Step::FrozenDelete(_) => {}
                _ if open.is_empty() => {}
                Step::Insert(i) => {
                    let (txid, _) = open[i % open.len()];
                    t.insert_txn(txid, row(slots)).unwrap();
                }
                _ if slots == 0 => {}
                Step::Update(i, r) => {
                    let (txid, snap) = open[i % open.len()];
                    let _ = t.update_txn(txid, snap, RowId::new((r % slots) as u64), row(r));
                }
                Step::Delete(i, r) => {
                    let (txid, snap) = open[i % open.len()];
                    let _ = t.delete_txn(txid, snap, RowId::new((r % slots) as u64));
                }
                Step::Commit(i) => {
                    let (txid, _) = open.remove(i % open.len());
                    csn += 1;
                    status.commit(txid, csn);
                }
                Step::Abort(i) => {
                    let (txid, _) = open.remove(i % open.len());
                    status.abort(txid);
                }
            }
        }

        let mut snaps: Vec<Snapshot> = (0..=csn).map(Snapshot::at).collect();
        snaps.push(Snapshot::LATEST);
        snaps.extend(open.iter().map(|&(txid, csn)| Snapshot { csn, txid }));
        // Up to three slots past the heap's end read as missing rows.
        let span = t.high_water_mark() as u64 + 3;
        let rids: Vec<RowId> = picks.iter().map(|&p| RowId::new(p as u64 % span)).collect();

        for snap in &snaps {
            let want: Vec<Option<Vec<Value>>> =
                rids.iter().map(|&rid| t.get_at(rid, snap).ok().map(|r| r.to_vec())).collect();
            let before = Counters::get(&t.counters().row_fetches);
            let mut got = Vec::new();
            t.get_many_at(&rids, snap, |rid, row| got.push((rid, row.map(|r| r.to_vec()))));
            let fetched = Counters::get(&t.counters().row_fetches) - before;
            prop_assert_eq!(fetched, rids.len() as u64, "one row_fetches per rowid");
            prop_assert_eq!(got.iter().map(|(rid, _)| *rid).collect::<Vec<_>>(), rids.clone());
            prop_assert_eq!(got.into_iter().map(|(_, row)| row).collect::<Vec<_>>(), want);
        }
    }
}
