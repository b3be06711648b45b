//! Property-based equivalence: [`sdo_geom::PreparedGeometry`] fast
//! paths must return exactly what the naive `relate` family returns on
//! random point/linestring/polygon mixes (including multis and
//! polygons with holes).

use proptest::prelude::*;
use sdo_geom::algorithms::convex_hull;
use sdo_geom::multi::{MultiLineString, MultiPoint, MultiPolygon};
use sdo_geom::relate;
use sdo_geom::{Geometry, LineString, Point, Polygon, PreparedGeometry, RelateMask, Ring};

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// Valid simple polygons via convex hulls of random point sets, with
/// an optional centrally scaled hole (strictly interior for a convex
/// exterior).
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    (proptest::collection::vec(arb_point(), 3..12), any::<bool>()).prop_filter_map(
        "degenerate hull",
        |(pts, with_hole)| {
            let hull = convex_hull(&pts);
            if hull.len() < 3 {
                return None;
            }
            let ring = Ring::new(hull.clone()).ok()?;
            if ring.area() < 1e-3 {
                return None;
            }
            if !with_hole {
                return Some(Polygon::from_exterior(ring));
            }
            let n = hull.len() as f64;
            let cx = hull.iter().map(|p| p.x).sum::<f64>() / n;
            let cy = hull.iter().map(|p| p.y).sum::<f64>() / n;
            let hole_pts: Vec<Point> = hull
                .iter()
                .map(|p| Point::new(cx + (p.x - cx) * 0.4, cy + (p.y - cy) * 0.4))
                .collect();
            let hole = Ring::new(hole_pts).ok()?;
            if hole.area() < 1e-6 {
                return Some(Polygon::from_exterior(ring));
            }
            Some(Polygon::new(ring, vec![hole]))
        },
    )
}

fn arb_line() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..8)
        .prop_filter_map("line", |pts| LineString::new(pts).ok())
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        arb_line().prop_map(Geometry::LineString),
        arb_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_point(), 1..5)
            .prop_map(|ps| Geometry::MultiPoint(MultiPoint::new(ps).unwrap())),
        proptest::collection::vec(arb_line(), 1..4)
            .prop_map(|ls| Geometry::MultiLineString(MultiLineString::new(ls).unwrap())),
        proptest::collection::vec(arb_polygon(), 1..3)
            .prop_map(|ps| Geometry::MultiPolygon(MultiPolygon::new(ps).unwrap())),
    ]
}

/// The default wrapper, whose `intersects` between small geometries
/// runs on their stored rings, and the always-indexed one, so the
/// indexed kernels stay under test on these small shapes.
fn both_paths(g: &Geometry) -> [PreparedGeometry; 2] {
    [PreparedGeometry::new(g.clone()), PreparedGeometry::indexed(g.clone())]
}

const ALL_MASKS: [RelateMask; 9] = [
    RelateMask::AnyInteract,
    RelateMask::Disjoint,
    RelateMask::Inside,
    RelateMask::Contains,
    RelateMask::CoveredBy,
    RelateMask::Covers,
    RelateMask::Touch,
    RelateMask::Overlap,
    RelateMask::Equal,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prepared_relate_matches_naive(a in arb_geometry(), b in arb_geometry()) {
        for (pa, pb) in both_paths(&a).iter().zip(&both_paths(&b)) {
            prop_assert_eq!(pa.intersects(pb), relate::intersects(&a, &b), "intersects");
            prop_assert_eq!(pa.covered_by(pb), relate::covered_by(&a, &b), "covered_by");
            prop_assert_eq!(
                pa.boundaries_interact(pb),
                relate::boundaries_interact(&a, &b),
                "boundaries_interact"
            );
            for m in ALL_MASKS {
                prop_assert_eq!(pa.relate(pb, m), relate::relate(&a, &b, m), "mask {:?}", m);
            }
        }
    }

    #[test]
    fn prepared_within_distance_matches_naive(
        a in arb_geometry(),
        b in arb_geometry(),
        d in 0.0f64..80.0,
    ) {
        for (pa, pb) in both_paths(&a).iter().zip(&both_paths(&b)) {
            for dist in [0.0, d] {
                prop_assert_eq!(
                    pa.within_distance(pb, dist),
                    relate::within_distance(&a, &b, dist),
                    "d={}", dist
                );
            }
        }
    }

    #[test]
    fn prepared_covers_point_matches_naive(g in arb_geometry(), p in arb_point()) {
        for pg in both_paths(&g) {
            prop_assert_eq!(pg.covers_point(&p), g.covers_point(&p));
            // Probe the geometry's own vertices too — boundary cases are
            // where the indexed and naive paths could plausibly diverge.
            for v in g.vertices() {
                prop_assert_eq!(pg.covers_point(&v), g.covers_point(&v), "vertex {:?}", v);
            }
        }
    }

    #[test]
    fn big_ring_simplicity_matches_quadratic(
        n in 60usize..400,
        wobble in 0.0f64..0.9,
        swap_at in 10usize..50,
        do_swap in any::<bool>(),
    ) {
        // A star-shaped ring (always simple), optionally corrupted by a
        // vertex swap (usually self-intersecting). Compare the indexed
        // path against the quadratic reference directly.
        let mut pts: Vec<Point> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = 50.0 + wobble * 40.0 * (11.0 * t).sin();
                Point::new(r * t.cos(), r * t.sin())
            })
            .collect();
        if do_swap {
            let j = swap_at % (n - 2);
            pts.swap(j, j + 2);
        }
        let ring = Ring::new(pts).unwrap();
        let quadratic = {
            // Reference: the original pair scan, inlined.
            let edges: Vec<sdo_geom::Segment> = ring.segments().collect();
            let m = edges.len();
            let mut simple = true;
            'outer: for i in 0..m {
                for j in (i + 1)..m {
                    let adjacent = j == i + 1 || (i == 0 && j == m - 1);
                    let hit = if adjacent {
                        edges[i].collinear_overlaps(&edges[j])
                    } else {
                        edges[i].intersects(&edges[j])
                    };
                    if hit {
                        simple = false;
                        break 'outer;
                    }
                }
            }
            simple
        };
        prop_assert_eq!(ring.is_simple(), quadratic);
    }
}
