//! Property-based checks of the primary filter's batch kernels against
//! a per-pair reference. For random rectangle sets seeded with NaN /
//! EMPTY / degenerate entries, `SoaMbrs::scan_*` and `sweep_pairs`
//! must emit exactly the pairs that `JoinPredicate::matches` (or
//! `Rect::contains_rect`) accepts among *valid* rectangles —
//! `min_x <= max_x && min_y <= max_y`, which EMPTY and any NaN
//! coordinate fail.

use proptest::prelude::*;
use sdo_geom::Rect;
use sdo_rtree::kernel::{sweep_pairs, SweepScratch};
use sdo_rtree::{JoinPredicate, SoaMbrs};

/// A rectangle that is usually well-formed but regularly degenerate
/// (zero-width point, horizontal line), EMPTY, or NaN-poisoned —
/// exactly the entries the validity rule must mask out.
fn arb_mixed_rect() -> impl Strategy<Value = Rect> {
    prop_oneof![
        ((-100.0f64..100.0), (-100.0f64..100.0), (0.0f64..20.0), (0.0f64..20.0))
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h)),
        ((-100.0f64..100.0), (-100.0f64..100.0), (0.0f64..20.0), (0.0f64..20.0))
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h)),
        ((-100.0f64..100.0), (-100.0f64..100.0), (0.0f64..20.0), (0.0f64..20.0))
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h)),
        ((-100.0f64..100.0), (-100.0f64..100.0)).prop_map(|(x, y)| Rect::new(x, y, x, y)),
        ((-100.0f64..100.0), (-100.0f64..100.0), (0.0f64..20.0)).prop_map(|(x, y, w)| Rect::new(
            x,
            y,
            x + w,
            y
        )),
        Just(Rect::EMPTY),
        ((-100.0f64..100.0), (-100.0f64..100.0), 0u8..4).prop_map(|(x, y, which)| {
            let mut c = [x, y, x + 1.0, y + 1.0];
            c[which as usize] = f64::NAN;
            Rect::new(c[0], c[1], c[2], c[3])
        }),
    ]
}

fn arb_pred() -> impl Strategy<Value = JoinPredicate> {
    prop_oneof![
        Just(JoinPredicate::Intersects),
        (0.0f64..30.0).prop_map(JoinPredicate::WithinDistance),
        Just(JoinPredicate::WithinDistance(f64::NAN)),
        Just(JoinPredicate::WithinDistance(-1.0)),
    ]
}

fn soa(rects: &[Rect]) -> SoaMbrs {
    let mut s = SoaMbrs::new();
    s.fill(rects.iter());
    s
}

/// The validity rule every kernel applies on top of the predicate.
fn valid(r: &Rect) -> bool {
    r.min_x <= r.max_x && r.min_y <= r.max_y
}

/// The per-pair reference: the predicate on valid rectangles only.
fn reference(pred: JoinPredicate, a: &Rect, b: &Rect) -> bool {
    valid(a) && valid(b) && pred.matches(a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_intersects_matches_reference(
        rects in proptest::collection::vec(arb_mixed_rect(), 0..150),
        q in arb_mixed_rect(),
    ) {
        let pred = JoinPredicate::Intersects;
        let mut got = Vec::new();
        soa(&rects).scan_intersects(&q, |i| got.push(i));
        let want: Vec<usize> =
            (0..rects.len()).filter(|&i| reference(pred, &rects[i], &q)).collect();
        prop_assert_eq!(got, want, "q={}", q);
    }

    #[test]
    fn scan_within_matches_reference(
        rects in proptest::collection::vec(arb_mixed_rect(), 0..150),
        q in arb_mixed_rect(),
        d in prop_oneof![0.0f64..40.0, Just(0.0), Just(f64::NAN), Just(-1.0)],
    ) {
        let pred = JoinPredicate::WithinDistance(d);
        let mut got = Vec::new();
        soa(&rects).scan_within(&q, d, |i| got.push(i));
        let want: Vec<usize> =
            (0..rects.len()).filter(|&i| reference(pred, &rects[i], &q)).collect();
        prop_assert_eq!(got, want, "q={} d={}", q, d);
    }

    #[test]
    fn scan_contained_matches_reference(
        rects in proptest::collection::vec(arb_mixed_rect(), 0..150),
        q in arb_mixed_rect(),
    ) {
        let mut got = Vec::new();
        soa(&rects).scan_contained_in(&q, |i| got.push(i));
        let want: Vec<usize> = (0..rects.len())
            .filter(|&i| valid(&rects[i]) && q.contains_rect(&rects[i]))
            .collect();
        prop_assert_eq!(got, want, "q={}", q);
    }

    /// The sweep emits each matching pair once, and tests no more
    /// pairs than the quadratic scan would.
    #[test]
    fn sweep_pairs_matches_reference(
        a in proptest::collection::vec(arb_mixed_rect(), 0..100),
        b in proptest::collection::vec(arb_mixed_rect(), 0..100),
        pred in arb_pred(),
    ) {
        let mut got = Vec::new();
        let tests =
            sweep_pairs(&soa(&a), &soa(&b), pred, &mut SweepScratch::new(), |i, j| {
                got.push((i, j))
            });
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                if reference(pred, x, y) {
                    want.push((i, j));
                }
            }
        }
        prop_assert_eq!(got, want, "{:?}", pred);
        prop_assert!(tests <= (a.len() * b.len()) as u64);
    }
}
