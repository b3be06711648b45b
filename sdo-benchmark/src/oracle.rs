//! Brute-force reference answers, computed from the generated vertex
//! lists with predicates written here — no index, no engine code — so
//! an engine bug cannot hide behind an oracle that shares it.
//!
//! `ANYINTERACT` on two simple polygons holds iff a vertex of one lies
//! in or on the other, or two boundary edges meet. Touching counts.

use crate::gen::Poly;

/// `[min_x, min_y, max_x, max_y]`.
pub type Mbr = [f64; 4];

pub fn mbr(p: &Poly) -> Mbr {
    let mut m = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];
    for v in p {
        m[0] = m[0].min(v[0]);
        m[1] = m[1].min(v[1]);
        m[2] = m[2].max(v[0]);
        m[3] = m[3].max(v[1]);
    }
    m
}

pub fn mbrs_meet(a: &Mbr, b: &Mbr) -> bool {
    a[0] <= b[2] && b[0] <= a[2] && a[1] <= b[3] && b[1] <= a[3]
}

fn orient(a: [f64; 2], b: [f64; 2], c: [f64; 2]) -> f64 {
    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
}

fn within_box(a: [f64; 2], b: [f64; 2], p: [f64; 2]) -> bool {
    p[0] >= a[0].min(b[0])
        && p[0] <= a[0].max(b[0])
        && p[1] >= a[1].min(b[1])
        && p[1] <= a[1].max(b[1])
}

/// Closed segments `ab` and `cd` share a point.
fn segments_meet(a: [f64; 2], b: [f64; 2], c: [f64; 2], d: [f64; 2]) -> bool {
    let (d1, d2) = (orient(c, d, a), orient(c, d, b));
    let (d3, d4) = (orient(a, b, c), orient(a, b, d));
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && within_box(c, d, a))
        || (d2 == 0.0 && within_box(c, d, b))
        || (d3 == 0.0 && within_box(a, b, c))
        || (d4 == 0.0 && within_box(a, b, d))
}

fn edges(p: &Poly) -> impl Iterator<Item = ([f64; 2], [f64; 2])> + '_ {
    (0..p.len()).map(move |i| (p[i], p[(i + 1) % p.len()]))
}

/// Point in or on a simple polygon (ray casting; boundary points are
/// caught by the collinearity test first).
fn covers_point(p: &Poly, q: [f64; 2]) -> bool {
    let mut inside = false;
    for (a, b) in edges(p) {
        if orient(a, b, q) == 0.0 && within_box(a, b, q) {
            return true;
        }
        if (a[1] > q[1]) != (b[1] > q[1]) {
            let x = a[0] + (q[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0]);
            if x > q[0] {
                inside = !inside;
            }
        }
    }
    inside
}

pub fn any_interact(a: &Poly, b: &Poly) -> bool {
    // One vertex each suffices for containment once no edges meet.
    edges(a).any(|(p, q)| edges(b).any(|(r, s)| segments_meet(p, q, r, s)))
        || covers_point(b, a[0])
        || covers_point(a, b[0])
}

/// Indices of the polygons in `table` that interact with `window`, by
/// linear scan, ascending.
pub fn window_hits(table: &[Poly], table_mbrs: &[Mbr], window: &Poly) -> Vec<i64> {
    let wm = mbr(window);
    table
        .iter()
        .zip(table_mbrs)
        .enumerate()
        .filter(|(_, (p, m))| mbrs_meet(m, &wm) && any_interact(p, window))
        .map(|(i, _)| i as i64)
        .collect()
}

/// What a nested-loop join of `left` and `right` finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinAnswer {
    /// Pairs whose MBRs meet (the primary filter's candidate count).
    pub mbr_pairs: u64,
    /// Pairs that interact exactly (the join's row count).
    pub exact_pairs: u64,
}

pub fn join_answer(left: &[Poly], right: &[Poly]) -> JoinAnswer {
    let rm: Vec<Mbr> = right.iter().map(mbr).collect();
    let mut out = JoinAnswer { mbr_pairs: 0, exact_pairs: 0 };
    for l in left {
        let lm = mbr(l);
        for (r, m) in right.iter().zip(&rm) {
            if mbrs_meet(&lm, m) {
                out.mbr_pairs += 1;
                out.exact_pairs += u64::from(any_interact(l, r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng};

    fn square(x: f64, y: f64, s: f64) -> Poly {
        vec![[x, y], [x + s, y], [x + s, y + s], [x, y + s]]
    }

    #[test]
    fn hand_checked_cases() {
        let a = square(0.0, 0.0, 2.0);
        assert!(any_interact(&a, &square(1.0, 1.0, 2.0)), "overlap");
        assert!(any_interact(&a, &square(2.0, 0.0, 1.0)), "shared edge touches");
        assert!(any_interact(&a, &square(2.0, 2.0, 1.0)), "shared corner touches");
        assert!(any_interact(&a, &square(0.5, 0.5, 0.5)), "containment");
        assert!(any_interact(&square(0.5, 0.5, 0.5), &a), "containment, other way");
        assert!(!any_interact(&a, &square(2.1, 0.0, 1.0)), "disjoint");
        // MBRs meet, polygons do not: a triangle's empty corner.
        let tri: Poly = vec![[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]];
        assert!(mbrs_meet(&mbr(&tri), &mbr(&square(3.0, 3.0, 0.5))));
        assert!(!any_interact(&tri, &square(3.0, 3.0, 0.5)));
    }

    /// The oracle and the engine's unprepared `relate` are separate
    /// code; on generated data they must agree pair for pair.
    #[test]
    fn agrees_with_the_geometry_library_on_generated_data() {
        let mut rng = Rng::new(11);
        let left = gen::counties(40, &mut rng);
        let right = gen::block_groups(300, (12, 30), &mut rng);
        let ans = join_answer(&left, &right);
        let (lg, rg): (Vec<_>, Vec<_>) = (
            left.iter().map(gen::to_geometry).collect(),
            right.iter().map(gen::to_geometry).collect(),
        );
        let mut exact = 0;
        for l in &lg {
            for r in &rg {
                exact += u64::from(sdo_geom::relate(l, r, sdo_geom::RelateMask::AnyInteract));
            }
        }
        assert_eq!(ans.exact_pairs, exact);
        assert!(ans.mbr_pairs > ans.exact_pairs && ans.exact_pairs > 0);
    }
}
