//! Property-based table-function testing: the work-stealing queue hands
//! out every task exactly once, and parallel execution returns the
//! serial multiset at any DOP and fetch size.

use proptest::prelude::*;
use sdo_storage::Value;
use sdo_tablefunc::pipeline::CursorFn;
use sdo_tablefunc::source::VecSource;
use sdo_tablefunc::table_function::collect_all;
use sdo_tablefunc::{ParallelTableFunction, Row, TableFunction, TaskQueue};

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0i64..50, any::<i64>()), 0..300).prop_map(|pairs| {
        pairs.into_iter().map(|(k, v)| vec![Value::Integer(k), Value::Integer(v)]).collect()
    })
}

fn multiset(rows: &[Row]) -> Vec<(i64, i64)> {
    let mut v: Vec<(i64, i64)> =
        rows.iter().map(|r| (r[0].as_integer().unwrap(), r[1].as_integer().unwrap())).collect();
    v.sort_unstable();
    v
}

/// Chunk `0..n` into `(lo, hi)` slot ranges of at most `chunk` rows.
fn slot_chunks(n: usize, chunk: usize) -> Vec<(usize, usize)> {
    (0..n).step_by(chunk).map(|lo| (lo, (lo + chunk).min(n))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partitions_cover_exactly_once(
        n in 0usize..300,
        dop in 1usize..9,
        pops in proptest::collection::vec(0usize..9, 0..400),
    ) {
        // Workers pull in an arbitrary order, then worker 0 drains the
        // rest by stealing: the seeded tasks come back exactly once.
        let queue = TaskQueue::seed_round_robin((0..n).collect(), dop);
        let whole = |_: &usize| None;
        let mut got: Vec<usize> =
            pops.into_iter().filter_map(|w| queue.next(w % dop, whole)).collect();
        while let Some(t) = queue.next(0, whole) {
            got.push(t);
        }
        got.sort_unstable();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        prop_assert_eq!((0..dop).map(|w| queue.executed(w)).sum::<u64>(), n as u64);
        prop_assert_eq!(queue.next(0, whole), None);
    }

    #[test]
    fn parallel_cursor_fn_equals_serial(
        rows in arb_rows(),
        dop in 1usize..6,
        chunk in 1usize..40,
        fetch in 1usize..64,
    ) {
        // the function: emit (k, v+1) for even k, drop odd k
        let body = |r: &Row| {
            let k = r[0].as_integer().unwrap();
            let v = r[1].as_integer().unwrap();
            if k % 2 == 0 {
                vec![vec![Value::Integer(k), Value::Integer(v.wrapping_add(1))]]
            } else {
                vec![]
            }
        };
        let mut serial = CursorFn::new(VecSource::new(rows.clone()), |r: Row| Ok(body(&r)));
        let want = multiset(&collect_all(&mut serial, 128).unwrap());

        // PARTITION BY ANY: slot-range chunks of the cursor are dealt
        // round-robin, and each slave runs the body over its share.
        let mut shares: Vec<Vec<Row>> = vec![Vec::new(); dop];
        for (i, (lo, hi)) in slot_chunks(rows.len(), chunk).into_iter().enumerate() {
            shares[i % dop].extend_from_slice(&rows[lo..hi]);
        }
        let instances: Vec<Box<dyn TableFunction>> = shares
            .into_iter()
            .map(|share| {
                Box::new(CursorFn::new(VecSource::new(share), move |r: Row| Ok(body(&r))))
                    as Box<dyn TableFunction>
            })
            .collect();
        let got = multiset(&collect_all(&mut ParallelTableFunction::new(instances), fetch).unwrap());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fetch_size_never_exceeded(rows in arb_rows(), fetch in 1usize..32) {
        let mut f = CursorFn::new(VecSource::new(rows), |r: Row| Ok(vec![r]));
        f.start().unwrap();
        loop {
            let batch = f.fetch(fetch).unwrap();
            prop_assert!(batch.len() <= fetch);
            if batch.is_empty() {
                break;
            }
        }
        f.close();
    }
}
