//! Property-based R-tree testing: every query answers are compared
//! against brute force, and structural invariants hold after arbitrary
//! update interleavings.

use proptest::prelude::*;
use sdo_geom::{Point, Rect};
use sdo_rtree::join::subtree_pair_tasks;
use sdo_rtree::{JoinCursor, JoinPredicate, RTree, RTreeParams};

fn arb_rect() -> impl Strategy<Value = Rect> {
    ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..20.0), (0.1f64..20.0))
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_params() -> impl Strategy<Value = RTreeParams> {
    (5usize..24).prop_map(RTreeParams::with_fanout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_query_matches_brute_force(
        rects in proptest::collection::vec(arb_rect(), 0..300),
        window in arb_rect(),
        params in arb_params(),
    ) {
        let mut tree = RTree::new(params);
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let mut got: Vec<usize> = tree.query_window(&window).into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        let want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn distance_query_matches_brute_force(
        rects in proptest::collection::vec(arb_rect(), 0..200),
        q in arb_rect(),
        d in 0.0f64..50.0,
    ) {
        let items: Vec<(Rect, usize)> = rects.iter().cloned().zip(0..).collect();
        let tree = RTree::bulk_load(items, RTreeParams::with_fanout(8));
        let mut got: Vec<usize> =
            tree.query_within_distance(&q, d).into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        let want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.mindist(&q) <= d)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn knn_matches_brute_force(
        rects in proptest::collection::vec(arb_rect(), 1..200),
        qx in -100.0f64..100.0,
        qy in -100.0f64..100.0,
        k in 1usize..20,
    ) {
        let q = Point::new(qx, qy);
        let items: Vec<(Rect, usize)> = rects.iter().cloned().zip(0..).collect();
        let tree = RTree::bulk_load(items, RTreeParams::with_fanout(8));
        let got = tree.query_knn(&q, k);
        prop_assert_eq!(got.len(), k.min(rects.len()));
        let mut want: Vec<f64> = rects.iter().map(|r| r.mindist_point(&q)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (d, _, _)) in got.iter().enumerate() {
            prop_assert!((d - want[i]).abs() < 1e-9, "rank {i}: {d} != {}", want[i]);
        }
    }

    #[test]
    fn insert_delete_interleaving_preserves_invariants(
        rects in proptest::collection::vec(arb_rect(), 1..120),
        delete_mask in proptest::collection::vec(any::<bool>(), 1..120),
        params in arb_params(),
    ) {
        let mut tree = RTree::new(params);
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
        }
        let mut live: Vec<usize> = (0..rects.len()).collect();
        for (i, &del) in delete_mask.iter().enumerate() {
            if del && i < rects.len() {
                prop_assert!(tree.delete(&rects[i], &i), "delete of live item {i} failed");
                live.retain(|&x| x != i);
                tree.check_invariants().map_err(TestCaseError::fail)?;
            }
        }
        prop_assert_eq!(tree.len(), live.len());
        let mut remaining: Vec<usize> = tree.iter_items().map(|(_, i)| *i).collect();
        remaining.sort_unstable();
        prop_assert_eq!(remaining, live);
    }

    #[test]
    fn bulk_load_same_contents_as_incremental(
        rects in proptest::collection::vec(arb_rect(), 0..250),
    ) {
        let items: Vec<(Rect, usize)> = rects.iter().cloned().zip(0..).collect();
        let bulk = RTree::bulk_load(items.clone(), RTreeParams::with_fanout(8));
        bulk.check_invariants().map_err(TestCaseError::fail)?;
        let mut incr = RTree::new(RTreeParams::with_fanout(8));
        for (r, i) in items {
            incr.insert(r, i);
        }
        let mut a: Vec<usize> = bulk.iter_items().map(|(_, i)| *i).collect();
        let mut b: Vec<usize> = incr.iter_items().map(|(_, i)| *i).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Fanouts 4..40 on each side put node pairs on both sides of
    /// `SWEEP_THRESHOLD` and give the trees unequal heights, so every
    /// kernel path (chunk scans, plane-sweep, unequal-level descent)
    /// is checked against the nested loop.
    #[test]
    fn join_matches_nested_loop(
        left in proptest::collection::vec(arb_rect(), 0..250),
        right in proptest::collection::vec(arb_rect(), 0..250),
        lfanout in 4usize..40,
        rfanout in 4usize..40,
        d in 0.0f64..30.0,
    ) {
        let lt = RTree::bulk_load(
            left.iter().cloned().zip(0..).collect(),
            RTreeParams::with_fanout(lfanout),
        );
        let rt = RTree::bulk_load(
            right.iter().cloned().zip(0..).collect(),
            RTreeParams::with_fanout(rfanout),
        );
        for pred in [JoinPredicate::Intersects, JoinPredicate::WithinDistance(d)] {
            let mut got: Vec<(usize, usize)> = JoinCursor::new(&lt, &rt, pred)
                .collect_all()
                .into_iter()
                .map(|(_, a, _, b)| (a, b))
                .collect();
            got.sort_unstable();
            let mut want = Vec::new();
            for (i, a) in left.iter().enumerate() {
                for (j, b) in right.iter().enumerate() {
                    if pred.matches(a, b) {
                        want.push((i, j));
                    }
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn subtree_decomposition_is_lossless(
        rects in proptest::collection::vec(arb_rect(), 30..200),
        levels in 0u32..3,
    ) {
        let tree = RTree::bulk_load(
            rects.iter().cloned().zip(0..).collect(),
            RTreeParams::with_fanout(6),
        );
        let mut serial: Vec<(usize, usize)> =
            JoinCursor::new(&tree, &tree, JoinPredicate::Intersects)
                .collect_all()
                .into_iter()
                .map(|(_, a, _, b)| (a, b))
                .collect();
        serial.sort_unstable();
        let tasks = subtree_pair_tasks(&tree, &tree, JoinPredicate::Intersects, levels);
        let mut parallel = Vec::new();
        for (l, r) in tasks {
            parallel.extend(
                JoinCursor::from_pairs(&tree, &tree, JoinPredicate::Intersects, vec![(l, r)])
                    .collect_all()
                    .into_iter()
                    .map(|(_, a, _, b)| (a, b)),
            );
        }
        parallel.sort_unstable();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn merge_preserves_items(
        a in proptest::collection::vec(arb_rect(), 0..120),
        b in proptest::collection::vec(arb_rect(), 0..120),
        c in proptest::collection::vec(arb_rect(), 0..40),
    ) {
        let offset_b = a.len();
        let offset_c = a.len() + b.len();
        let ta = RTree::bulk_load(a.iter().cloned().zip(0..).collect(), RTreeParams::with_fanout(6));
        let tb = RTree::bulk_load(
            b.iter().cloned().zip(offset_b..).collect(),
            RTreeParams::with_fanout(6),
        );
        let tc = RTree::bulk_load(
            c.iter().cloned().zip(offset_c..).collect(),
            RTreeParams::with_fanout(6),
        );
        let merged = RTree::merge(vec![ta, tb, tc]);
        merged.check_invariants().map_err(TestCaseError::fail)?;
        let mut items: Vec<usize> = merged.iter_items().map(|(_, i)| *i).collect();
        items.sort_unstable();
        prop_assert_eq!(items, (0..a.len() + b.len() + c.len()).collect::<Vec<_>>());
    }
}
