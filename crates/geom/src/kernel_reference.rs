//! The polygon `ANYINTERACT` kernels as they were before they stopped
//! allocating and began skipping vertices and segments outside the
//! other polygon's box, kept as the reference the rewrite must match:
//! `Segment::contains_point` tested orientation before its box,
//! `Ring::locate_point` walked its edges with `% n`, and
//! `polygons_intersect` located every exterior vertex and paired every
//! edge of two collected `Vec<Segment>`s.
//!
//! The property test holds [`relate::intersects`] and
//! [`PreparedGeometry::intersects`] (small geometries on the unprepared
//! kernel, large ones and [`PreparedGeometry::indexed`] on the segment
//! index) to this reference on polygons built on a coarse grid, at
//! sizes on both sides of the direct-kernel cutoff.

use crate::geometry::Geometry;
use crate::multi::MultiPolygon;
use crate::point::Point;
use crate::polygon::{PointLocation, Polygon, Ring};
use crate::prepared::PreparedGeometry;
use crate::relate;
use crate::segment::{orientation, Orientation, Segment};
use crate::EPS;
use proptest::prelude::*;

fn contains_point(s: &Segment, p: &Point) -> bool {
    if orientation(&s.a, &s.b, p) != Orientation::Collinear {
        return false;
    }
    p.x >= s.a.x.min(s.b.x) - EPS
        && p.x <= s.a.x.max(s.b.x) + EPS
        && p.y >= s.a.y.min(s.b.y) - EPS
        && p.y <= s.a.y.max(s.b.y) + EPS
}

/// `Segment::intersects` on the reference `contains_point`.
fn segments_intersect(s: &Segment, t: &Segment) -> bool {
    let (p1, p2, p3, p4) = (&s.a, &s.b, &t.a, &t.b);
    let o1 = orientation(p1, p2, p3);
    let o2 = orientation(p1, p2, p4);
    let o3 = orientation(p3, p4, p1);
    let o4 = orientation(p3, p4, p2);
    let c = Orientation::Collinear;
    if o1 != o2 && o3 != o4 && o1 != c && o2 != c && o3 != c && o4 != c {
        return true;
    }
    (o1 == c && contains_point(s, p3))
        || (o2 == c && contains_point(s, p4))
        || (o3 == c && contains_point(t, p1))
        || (o4 == c && contains_point(t, p2))
        || (o1 != o2 && o3 != o4)
}

fn ring_locate(r: &Ring, p: &Point) -> PointLocation {
    let pts = r.points();
    let n = pts.len();
    let mut inside = false;
    for i in 0..n {
        let a = pts[i];
        let b = pts[(i + 1) % n];
        if contains_point(&Segment::new(a, b), p) {
            return PointLocation::OnBoundary;
        }
        if (a.y > p.y) != (b.y > p.y) {
            let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if x_at > p.x {
                inside = !inside;
            }
        }
    }
    if inside {
        PointLocation::Inside
    } else {
        PointLocation::Outside
    }
}

fn polygon_contains(poly: &Polygon, p: &Point) -> bool {
    match ring_locate(poly.exterior(), p) {
        PointLocation::Outside => false,
        PointLocation::OnBoundary => true,
        PointLocation::Inside => {
            poly.holes().iter().all(|h| ring_locate(h, p) != PointLocation::Inside)
        }
    }
}

fn polygons_intersect(p1: &Polygon, p2: &Polygon) -> bool {
    if !p1.bbox().intersects(&p2.bbox()) {
        return false;
    }
    if p1.exterior().points().iter().any(|p| polygon_contains(p2, p))
        || p2.exterior().points().iter().any(|p| polygon_contains(p1, p))
    {
        return true;
    }
    let b1: Vec<Segment> = p1.boundary_segments().collect();
    let b2: Vec<Segment> = p2.boundary_segments().collect();
    b1.iter().any(|s| {
        let sb = s.bbox();
        b2.iter().any(|t| sb.intersects(&t.bbox()) && segments_intersect(s, t))
    })
}

/// Reference `intersects` for polygons and multipolygons.
fn intersects(a: &Geometry, b: &Geometry) -> bool {
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    let polys = |g: &Geometry| -> Vec<Polygon> {
        match g {
            Geometry::Polygon(p) => vec![p.clone()],
            Geometry::MultiPolygon(m) => m.polygons().to_vec(),
            _ => unreachable!("the test builds polygons only"),
        }
    };
    let pb = polys(b);
    polys(a).iter().any(|p| pb.iter().any(|q| polygons_intersect(p, q)))
}

/// Radius, in grid units, of the generated stars.
const R: f64 = 16.0;

/// One star-shaped ring on the integer grid: vertex `i` of `radii` at
/// angle `2πi/n` and radius `lo + span·f` around `c`, rounded to the
/// grid, then every edge split into `split` collinear pieces (vertices
/// lying on the edge). Stars keep their vertices in angular order, so
/// the rings are simple, and holes stay inside the exterior.
fn star(c: Point, radii: &[f64], lo: f64, span: f64, split: usize) -> Option<Ring> {
    let n = radii.len() as f64;
    let mut coarse: Vec<Point> = radii
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let a = std::f64::consts::TAU * i as f64 / n;
            let r = lo + span * f;
            Point::new((c.x + r * a.cos()).round(), (c.y + r * a.sin()).round())
        })
        .collect();
    coarse.dedup();
    while coarse.len() > 1 && coarse.first() == coarse.last() {
        coarse.pop();
    }
    let m = coarse.len();
    let pts = (0..m).flat_map(|i| {
        let (a, b) = (coarse[i], coarse[(i + 1) % m]);
        (0..split).map(move |j| a + (b - a) * (j as f64 / split as f64))
    });
    Ring::new(pts.collect()).ok()
}

/// A generated polygon before placement: exterior radii and split, and
/// an optional hole's.
#[derive(Debug, Clone)]
struct Star {
    radii: Vec<f64>,
    split: usize,
    hole: Option<(Vec<f64>, usize)>,
}

impl Star {
    fn build(&self, c: Point) -> Option<Polygon> {
        let exterior = star(c, &self.radii, R * 0.5, R * 0.5, self.split)?;
        let holes = match &self.hole {
            // The exterior has at least five vertices here, so it holds
            // the disc of radius 0.8·(R/2) − 1 the hole stays within.
            Some((radii, split)) if self.radii.len() >= 5 => {
                vec![star(c, radii, R * 0.1, R * 0.15, *split)?]
            }
            _ => Vec::new(),
        };
        Some(Polygon::new(exterior, holes))
    }
}

fn arb_star() -> impl Strategy<Value = Star> {
    let radii = |n: std::ops::Range<usize>| proptest::collection::vec(0.0f64..1.0, n);
    // Half the stars keep their coarse edges, so a bar can cross one
    // with no vertex of either inside the other.
    let split = prop_oneof![Just(1usize), 1usize..40];
    (radii(3..12), split, any::<bool>(), radii(3..8), 1usize..6).prop_map(
        |(radii, split, holed, hole, hole_split)| Star {
            radii,
            split,
            hole: holed.then_some((hole, hole_split)),
        },
    )
}

/// How the second polygon sits against the first.
#[derive(Debug, Clone)]
enum Placement {
    /// Its own star, offset by whole grid units.
    Offset(Star, i32, i32),
    /// The first star's exterior split differently and offset by a few
    /// grid units: shared vertices, collinear overlapping edges and
    /// vertices on the other's edges.
    Resplit(usize, i32, i32),
    /// Its own star, moved right until the boxes just touch.
    TouchingBoxes(Star, i32),
    /// A four-vertex bar `2·half_height` high at height `y`, wider than
    /// any star: it can cross a star with no vertex of either inside the
    /// other, and every crossing edge sticks out of the other's box.
    Bar { half_height: i32, y: i32 },
}

fn arb_placement() -> impl Strategy<Value = Placement> {
    let off = || -2 * R as i32..=2 * R as i32;
    prop_oneof![
        (arb_star(), off(), off()).prop_map(|(s, dx, dy)| Placement::Offset(s, dx, dy)),
        (1usize..40, -2i32..=2, -2i32..=2).prop_map(|(k, dx, dy)| Placement::Resplit(k, dx, dy)),
        (arb_star(), off()).prop_map(|(s, dy)| Placement::TouchingBoxes(s, dy)),
        (1i32..4, off()).prop_map(|(half_height, y)| Placement::Bar { half_height, y }),
    ]
}

fn place(a: &Star, pa: &Polygon, how: &Placement) -> Option<Polygon> {
    let at = |dx: i32, dy: i32| Point::new(dx as f64, dy as f64);
    match how {
        Placement::Offset(s, dx, dy) => s.build(at(*dx, *dy)),
        Placement::Resplit(split, dx, dy) => {
            Star { split: *split, hole: None, ..a.clone() }.build(at(*dx, *dy))
        }
        Placement::TouchingBoxes(s, dy) => {
            let b = s.build(at(0, *dy))?;
            let dx = pa.bbox().max_x - b.bbox().min_x;
            s.build(at(dx as i32, *dy))
        }
        Placement::Bar { half_height, y } => {
            let (w, y0, y1) = (2.0 * R, (y - half_height) as f64, (y + half_height) as f64);
            let corners = [(-w, y0), (w, y0), (w, y1), (-w, y1)].map(|(x, y)| Point::new(x, y));
            Some(Polygon::from_exterior(Ring::new(corners.to_vec()).ok()?))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rewritten_intersects_kernels_match_reference(
        a in arb_star(),
        how in arb_placement(),
        multi in any::<bool>(),
    ) {
        let Some(pa) = a.build(Point::new(0.0, 0.0)) else { return Ok(()) };
        let Some(pb) = place(&a, &pa, &how) else { return Ok(()) };

        // The kernels themselves, on every vertex of the other polygon,
        // and the vertex skip: a vertex outside the probe box is
        // outside the polygon.
        for (p, q) in [(&pa, &pb), (&pb, &pa)] {
            let probe = relate::vertex_probe_box(&p.bbox());
            for v in q.exterior().points().iter().chain(q.holes().iter().flat_map(|h| h.points())) {
                if !probe.contains_point(v) {
                    prop_assert!(!polygon_contains(p, v), "skipped {:?} is in {:?}", v, p);
                }
                for r in std::iter::once(p.exterior()).chain(p.holes()) {
                    prop_assert_eq!(r.locate_point(v), ring_locate(r, v), "locate {:?}", v);
                }
                for s in p.boundary_segments() {
                    prop_assert_eq!(s.contains_point(v), contains_point(&s, v), "on {:?}", s);
                }
            }
        }

        let ga = if multi {
            // A far-off second element exercises the multi path.
            let far = a.build(Point::new(4.0 * R, 0.0)).unwrap_or_else(|| pa.clone());
            Geometry::MultiPolygon(MultiPolygon::new(vec![pa.clone(), far]).unwrap())
        } else {
            Geometry::Polygon(pa.clone())
        };
        let gb = Geometry::Polygon(pb.clone());
        let want = intersects(&ga, &gb);
        prop_assert_eq!(want, intersects(&gb, &ga), "reference is symmetric");
        prop_assert_eq!(relate::intersects(&ga, &gb), want, "relate a-b");
        prop_assert_eq!(relate::intersects(&gb, &ga), want, "relate b-a");
        let sizes = (ga.num_points(), gb.num_points());
        let direct = (PreparedGeometry::new(ga.clone()), PreparedGeometry::new(gb.clone()));
        let indexed = (PreparedGeometry::indexed(ga), PreparedGeometry::indexed(gb));
        prop_assert_eq!(direct.0.intersects(&direct.1), want, "prepared, sizes {:?}", sizes);
        prop_assert_eq!(direct.1.intersects(&direct.0), want, "prepared b-a");
        prop_assert_eq!(indexed.0.intersects(&indexed.1), want, "indexed");
        prop_assert_eq!(direct.0.intersects(&indexed.1), want, "mixed");
    }
}
