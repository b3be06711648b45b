//! Every geometry caches its MBR at construction; the cached box must
//! equal `Rect::from_points` over the vertices (for `Multi*`, the union
//! over the members), whichever way the geometry was built: directly,
//! by WKT parse, from `SdoGeometry`, through the value codec's
//! `put_value` / `get_value` round trip, by `Polygon::from_rect`, and
//! after `ensure_ccw` / `ensure_cw` reverse a ring in place.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdo_geom::algorithms::convex_hull;
use sdo_geom::{
    Geometry, LineString, MultiLineString, MultiPoint, MultiPolygon, Point, Polygon, Rect, Ring,
    SdoGeometry,
};
use sdo_storage::snapshot::{get_value, put_value};
use sdo_storage::Value;

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_line() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..9)
        .prop_filter_map("line", |p| LineString::new(p).ok())
}

/// A convex polygon with up to two holes: the hull shrunk toward its
/// vertex mean, so every hole lies inside the exterior as a valid
/// polygon requires.
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    (proptest::collection::vec(arb_point(), 3..12), 0usize..3).prop_filter_map(
        "degenerate hull",
        |(pts, holes)| {
            let hull = convex_hull(&pts);
            let exterior = Ring::new(hull.clone()).ok().filter(|r| r.area() > 1e-3)?;
            let n = hull.len() as f64;
            let c = hull.iter().fold(Point::new(0.0, 0.0), |s, p| s + *p) * (1.0 / n);
            let holes = (0..holes)
                .map(|k| {
                    let f = 0.2 + 0.3 * k as f64;
                    Ring::new(hull.iter().map(|p| c + (*p - c) * f).collect()).ok()
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Polygon::new(exterior, holes))
        },
    )
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        arb_line().prop_map(Geometry::LineString),
        arb_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_point(), 1..8)
            .prop_map(|p| Geometry::MultiPoint(MultiPoint::new(p).unwrap())),
        proptest::collection::vec(arb_line(), 1..4)
            .prop_map(|l| Geometry::MultiLineString(MultiLineString::new(l).unwrap())),
        proptest::collection::vec(arb_polygon(), 1..4)
            .prop_map(|p| Geometry::MultiPolygon(MultiPolygon::new(p).unwrap())),
    ]
}

/// The box a vertex walk gives, member by member.
fn walked(g: &Geometry) -> Rect {
    match g {
        Geometry::MultiLineString(m) => m
            .lines()
            .iter()
            .fold(Rect::EMPTY, |acc, l| acc.union(&walked(&Geometry::LineString(l.clone())))),
        Geometry::MultiPolygon(m) => m
            .polygons()
            .iter()
            .fold(Rect::EMPTY, |acc, p| acc.union(&walked(&Geometry::Polygon(p.clone())))),
        g => Rect::from_points(&g.vertices()),
    }
}

fn rings(g: &Geometry) -> Vec<Ring> {
    let polygons = match g {
        Geometry::Polygon(p) => std::slice::from_ref(p),
        Geometry::MultiPolygon(m) => m.polygons(),
        _ => &[],
    };
    polygons.iter().flat_map(|p| std::iter::once(p.exterior()).chain(p.holes())).cloned().collect()
}

/// `g`'s cached boxes, its own and every ring's, equal their vertex
/// walks, also after each ring is reversed either way.
fn cached_boxes_hold(g: &Geometry, path: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.bbox(), walked(g), "{} built {:?}", path, g);
    for ring in rings(g) {
        let want = Rect::from_points(ring.points());
        prop_assert_eq!(ring.bbox(), want, "{}: ring {:?}", path, ring);
        let (mut ccw, mut cw) = (ring.clone(), ring);
        ccw.ensure_ccw();
        cw.ensure_cw();
        prop_assert_eq!(ccw.bbox(), want, "{}: after ensure_ccw", path);
        prop_assert_eq!(cw.bbox(), want, "{}: after ensure_cw", path);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_mbr_equals_the_vertex_walk_on_every_path(g in arb_geometry()) {
        cached_boxes_hold(&g, "directly")?;
        let parsed = sdo_geom::wkt::parse_wkt(&sdo_geom::wkt::to_wkt(&g)).unwrap();
        cached_boxes_hold(&parsed, "by WKT parse")?;
        let converted = SdoGeometry::from_geometry(&g).to_geometry().unwrap();
        cached_boxes_hold(&converted, "from SdoGeometry")?;
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::geometry(g));
        let decoded = get_value(&mut &buf[..]).unwrap();
        cached_boxes_hold(decoded.as_geometry().unwrap(), "by the value codec")?;
    }

    #[test]
    fn cached_mbr_of_a_rectangle_polygon_is_the_rectangle(
        p in arb_point(),
        w in 0.01f64..50.0,
        h in 0.01f64..50.0,
    ) {
        let r = Rect::new(p.x, p.y, p.x + w, p.y + h);
        let g = Geometry::Polygon(Polygon::from_rect(&r));
        cached_boxes_hold(&g, "by Polygon::from_rect")?;
        prop_assert_eq!(g.bbox(), r);
    }
}
