//! Pruning a heap's version chains must not change what any snapshot
//! at or after the horizon reads.
//!
//! Random histories of overlapping transactions (inserts, updates,
//! deletes; commits, aborts, some left in flight) build the chains.
//! Every snapshot that may still read once the horizon is chosen — a
//! plain reader at each CSN from the horizon up, `LATEST`, and each
//! in-flight transaction whose snapshot is not older than the horizon —
//! then answers `get_at` / `exists_at` / `scan_at` identically before
//! and after `Table::prune`.

use proptest::prelude::*;
use sdo_storage::{Csn, DataType, RowId, Schema, Snapshot, Table, TxnId, Value};
use std::sync::Arc;

/// One step of a history; indices are reduced modulo what exists.
#[derive(Debug, Clone)]
enum Step {
    Begin,
    Insert(usize),
    Update(usize, usize),
    Delete(usize, usize),
    Commit(usize),
    Abort(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Begin),
        (0usize..8).prop_map(Step::Insert),
        ((0usize..8), (0usize..16)).prop_map(|(t, r)| Step::Update(t, r)),
        ((0usize..8), (0usize..16)).prop_map(|(t, r)| Step::Delete(t, r)),
        (0usize..8).prop_map(Step::Commit),
        (0usize..8).prop_map(Step::Abort),
    ]
}

/// What one snapshot reads: per slot `get_at` and `exists_at`, and the
/// rowids of a full `scan_at`.
type Reads = (Vec<Option<Vec<Value>>>, Vec<bool>, Vec<u64>);

/// What every snapshot reads.
fn observe(t: &Table, snaps: &[Snapshot]) -> Vec<Reads> {
    snaps
        .iter()
        .map(|s| {
            let slots = 0..t.high_water_mark() as u64;
            let got = slots.clone().map(|i| t.get_at(RowId::new(i), s).ok().map(|r| r.to_vec()));
            let exists = slots.map(|i| t.exists_at(RowId::new(i), s));
            let scan = t.scan_at(*s).map(|(rid, _)| rid.0);
            (got.collect(), exists.collect(), scan.collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prune_preserves_every_snapshot_at_or_after_the_horizon(
        frozen in 0usize..6,
        steps in proptest::collection::vec(arb_step(), 1..80),
        horizon_pick in 0usize..1000,
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

        // The horizon may be no newer than the oldest open snapshot.
        let oldest = open.iter().map(|(_, s)| *s).min().unwrap_or(csn);
        let horizon = horizon_pick as Csn % (oldest + 1);
        let mut snaps: Vec<Snapshot> = (horizon..=csn).map(Snapshot::at).collect();
        snaps.push(Snapshot::LATEST);
        snaps.extend(open.iter().map(|&(txid, csn)| Snapshot { csn, txid }));

        let before = observe(&t, &snaps);
        let versions = t.version_count();
        let dropped = t.prune((0..t.high_water_mark() as u64).map(RowId::new), horizon);
        prop_assert_eq!(t.version_count() as u64, versions as u64 - dropped);
        prop_assert_eq!(observe(&t, &snaps), before);

        // Pruning again at the same horizon finds nothing more.
        prop_assert_eq!(t.prune((0..t.high_water_mark() as u64).map(RowId::new), horizon), 0);
    }
}
