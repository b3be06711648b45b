//! Property-based table-function testing: the work-stealing queue hands
//! out every task exactly once, and parallel execution returns the
//! serial multiset at any DOP and fetch size.

use proptest::prelude::*;
use sdo_storage::Value;
use sdo_tablefunc::parallel::execute_parallel;
use sdo_tablefunc::pipeline::CursorFn;
use sdo_tablefunc::source::VecSource;
use sdo_tablefunc::table_function::collect_all;
use sdo_tablefunc::{Row, TableFunction, TaskQueue, WorkStealingFn};
use std::sync::Arc;

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
        // Workers pop in an arbitrary order, then worker 0 drains the
        // rest by stealing: the seeded tasks come back exactly once.
        let queue = TaskQueue::seed_round_robin((0..n).collect(), dop);
        let mut got: Vec<usize> = pops.into_iter().filter_map(|w| queue.pop(w % dop)).collect();
        while let Some(t) = queue.pop(0) {
            got.push(t);
        }
        got.sort_unstable();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(queue.total_executed(), n as u64);
        prop_assert_eq!(queue.remaining(), 0);
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

        // Slaves pull slot-range chunks of the cursor on demand.
        let queue = TaskQueue::seed_round_robin(slot_chunks(rows.len(), chunk), dop);
        let rows = Arc::new(rows);
        let instances: Vec<Box<dyn TableFunction>> = (0..dop)
            .map(|worker| {
                let rows = Arc::clone(&rows);
                Box::new(WorkStealingFn::new(Arc::clone(&queue), worker, move |(lo, hi)| {
                    Ok(rows[lo..hi].iter().flat_map(body).collect())
                })) as Box<dyn TableFunction>
            })
            .collect();
        let got = multiset(&execute_parallel(instances, fetch).unwrap());
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
