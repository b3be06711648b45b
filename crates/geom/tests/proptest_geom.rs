//! Property-based tests for the geometry engine's invariants
//! (DESIGN.md §6).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sdo_geom::algorithms::convex_hull;
use sdo_geom::{
    codec, intersects, within_distance, Geometry, LineString, MultiLineString, MultiPoint,
    MultiPolygon, Point, Polygon, Rect, RelateMask, Ring, SdoGeometry,
};

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), 0.1f64..30.0, 0.1f64..30.0)
        .prop_map(|(p, w, h)| Rect::new(p.x, p.y, p.x + w, p.y + h))
}

/// Valid simple polygons via convex hulls of random point sets.
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    proptest::collection::vec(arb_point(), 3..12).prop_filter_map("degenerate hull", |pts| {
        let hull = convex_hull(&pts);
        if hull.len() < 3 {
            return None;
        }
        let ring = Ring::new(hull).ok()?;
        if ring.area() < 1e-6 {
            return None;
        }
        Some(Polygon::from_exterior(ring))
    })
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        proptest::collection::vec(arb_point(), 2..8)
            .prop_filter_map("line", |pts| LineString::new(pts).ok().map(Geometry::LineString)),
        arb_polygon().prop_map(Geometry::Polygon),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rect_union_contains_operands(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn rect_intersection_within_operands(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn rect_mindist_zero_iff_intersects(a in arb_rect(), b in arb_rect()) {
        let d = a.mindist(&b);
        prop_assert!(d >= 0.0);
        prop_assert_eq!(d == 0.0, a.intersects(&b));
        // symmetry
        prop_assert!((d - b.mindist(&a)).abs() < 1e-12);
    }

    #[test]
    fn rect_expansion_turns_distance_into_intersection(
        a in arb_rect(),
        b in arb_rect(),
    ) {
        let d = a.mindist(&b);
        // expanding either side by d (plus slack) must make them intersect
        prop_assert!(a.expanded(d + 1e-9).intersects(&b));
        // expanding by less than the axis gap must not (when separated
        // along an axis, mindist <= axis gap, so half of d may fail —
        // only assert the monotone direction)
        if d > 1e-6 {
            prop_assert!(!a.expanded(d * 0.4).intersects(&b) || d <= 1e-6
                || a.expanded(d * 0.4).mindist(&b) <= d);
        }
    }

    #[test]
    fn wkt_roundtrip(g in arb_geometry()) {
        let wkt = sdo_geom::wkt::to_wkt(&g);
        let back = sdo_geom::wkt::parse_wkt(&wkt).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn sdo_roundtrip(g in arb_geometry()) {
        let sdo = SdoGeometry::from_geometry(&g);
        let back = sdo.to_geometry().unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn intersects_is_symmetric(a in arb_geometry(), b in arb_geometry()) {
        prop_assert_eq!(intersects(&a, &b), intersects(&b, &a));
    }

    #[test]
    fn distance_consistent_with_intersects(a in arb_geometry(), b in arb_geometry()) {
        let d = sdo_geom::distance(&a, &b);
        prop_assert!(d >= 0.0);
        if intersects(&a, &b) {
            prop_assert!(d < 1e-6, "intersecting geometries at distance {d}");
        } else {
            prop_assert!(d > 0.0, "disjoint geometries at distance 0");
        }
        // symmetry
        prop_assert!((d - sdo_geom::distance(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn within_distance_monotone(a in arb_geometry(), b in arb_geometry(), d in 0.0f64..50.0) {
        if within_distance(&a, &b, d) {
            prop_assert!(within_distance(&a, &b, d + 1.0));
            prop_assert!(within_distance(&a, &b, d * 2.0 + 0.1));
        }
    }

    #[test]
    fn mbr_filter_is_sound(a in arb_geometry(), b in arb_geometry()) {
        // the primary filter may only produce false positives, never
        // false negatives
        if intersects(&a, &b) {
            prop_assert!(a.bbox().intersects(&b.bbox()));
        }
    }

    #[test]
    fn polygon_equal_to_itself(p in arb_polygon()) {
        let g = Geometry::Polygon(p);
        prop_assert!(sdo_geom::relate(&g, &g, RelateMask::Equal));
        prop_assert!(sdo_geom::covered_by(&g, &g));
        prop_assert!(intersects(&g, &g));
        prop_assert!(!sdo_geom::relate(&g, &g, RelateMask::Disjoint));
    }

    #[test]
    fn interior_point_lies_inside(p in arb_polygon()) {
        let ip = sdo_geom::relate::interior_point(&p);
        prop_assert!(p.contains_point(&ip));
    }

    #[test]
    fn centroid_of_convex_polygon_inside(p in arb_polygon()) {
        // convex polygons contain their centroid
        let c = sdo_geom::algorithms::polygon_centroid(&p);
        prop_assert!(p.contains_point(&c));
    }

    #[test]
    fn hull_contains_all_points(pts in proptest::collection::vec(arb_point(), 1..20)) {
        let hull = convex_hull(&pts);
        prop_assert!(!hull.is_empty());
        if hull.len() >= 3 {
            let ring = Ring::new(hull).unwrap();
            for p in &pts {
                prop_assert!(ring.contains_point(p), "hull excludes {p}");
            }
        }
    }

    #[test]
    fn touch_and_overlap_disjointness(a in arb_polygon(), b in arb_polygon()) {
        let (ga, gb) = (Geometry::Polygon(a), Geometry::Polygon(b));
        let touch = sdo_geom::relate(&ga, &gb, RelateMask::Touch);
        let overlap = sdo_geom::relate(&ga, &gb, RelateMask::Overlap);
        let disjoint = sdo_geom::relate(&ga, &gb, RelateMask::Disjoint);
        // at most one of touch/overlap/disjoint holds
        prop_assert!(u8::from(touch) + u8::from(overlap) + u8::from(disjoint) <= 1);
        if touch || overlap {
            prop_assert!(intersects(&ga, &gb));
        }
    }
}

// ---------------------------------------------------------------------------
// The value codec: one-pass encoder and decoder against the object model
// ---------------------------------------------------------------------------

/// A ring whose last vertex lies within tolerance of its first (and is
/// kept, because the input repeats the first vertex exactly after it).
fn near_closed_ring(hull: &Ring, d: f64) -> Ring {
    let mut pts = hull.points().to_vec();
    let first = pts[0];
    pts.push(Point::new(first.x + d, first.y - d));
    pts.push(first);
    let ring = Ring::new(pts).unwrap();
    assert_eq!(ring.num_points(), hull.num_points() + 1);
    ring
}

/// A polygon with optional holes, some rings ending within tolerance of
/// their start.
fn arb_codec_polygon() -> impl Strategy<Value = Polygon> {
    (arb_polygon(), proptest::collection::vec(arb_rect(), 0..3), 0u8..4, 0.0f64..1e-10).prop_map(
        |(p, holes, near, d)| {
            let exterior = match near & 1 {
                1 => near_closed_ring(p.exterior(), d),
                _ => p.exterior().clone(),
            };
            let holes = holes
                .iter()
                .map(|r| Ring::new(r.corners().to_vec()).unwrap())
                .map(|h| if near & 2 == 2 { near_closed_ring(&h, d) } else { h })
                .collect();
            Polygon::new(exterior, holes)
        },
    )
}

fn arb_line() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..8)
        .prop_filter_map("line", |p| LineString::new(p).ok())
}

/// Every geometry type, holes and near-closed rings included.
fn arb_codec_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        arb_line().prop_map(Geometry::LineString),
        arb_codec_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_point(), 1..6)
            .prop_map(|p| Geometry::MultiPoint(MultiPoint::new(p).unwrap())),
        proptest::collection::vec(arb_line(), 1..4)
            .prop_map(|l| Geometry::MultiLineString(MultiLineString::new(l).unwrap())),
        proptest::collection::vec(arb_codec_polygon(), 1..4)
            .prop_map(|p| Geometry::MultiPolygon(MultiPolygon::new(p).unwrap())),
    ]
}

/// Arrays with Oracle's structure but no promise of validity. Half the
/// cases are consistent: consecutive elements of 1–5 vertices whose
/// etypes mostly fit the gtype, straight or two-corner rectangle rings
/// among them, so many decode. The other half take their offsets and
/// ordinate count as drawn. Gtypes include some the decoder refuses,
/// and about one ordinate in twenty is not finite.
fn arb_sdo_arrays() -> impl Strategy<Value = SdoGeometry> {
    const GTYPES: [u32; 9] = [2001, 2002, 2003, 2005, 2006, 2007, 2004, 3001, 2103];
    const ETYPES: [u32; 5] = [1, 2, 1003, 2003, 4];
    const INTERPS: [u32; 4] = [1, 1, 3, 2];
    let ordinate = (-50.0f64..50.0, 0u8..40).prop_map(|(v, k)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => 0.0,
        _ => v,
    });
    let element = (0u32..14, 0..ETYPES.len(), 0..INTERPS.len(), any::<bool>());
    (
        0..GTYPES.len(),
        proptest::collection::vec(element, 1..4),
        proptest::collection::vec(ordinate, 32),
        any::<bool>(),
    )
        .prop_map(|(g, elements, pool, consistent)| {
            let gtype = GTYPES[g];
            let mut elem_info = Vec::new();
            let mut n_ord = 0;
            for (j, &(size, e, i, fit)) in elements.iter().enumerate() {
                let etype = match (fit, gtype % 100) {
                    (true, 1 | 5) => 1,
                    (true, 2 | 6) => 2,
                    (true, 3 | 7) if j == 0 || e % 2 == 0 => 1003,
                    (true, 3 | 7) => 2003,
                    _ => ETYPES[e],
                };
                let offset = if consistent { n_ord as u32 + 1 } else { size };
                elem_info.extend_from_slice(&[offset, etype, INTERPS[i]]);
                n_ord += 2 * (1 + size as usize % 5);
            }
            if !consistent {
                n_ord = elements[0].0 as usize;
            }
            SdoGeometry { gtype, elem_info, ordinates: pool[..n_ord].to_vec() }
        })
}

/// The two ways to decode codec bytes, which must agree on every input.
fn two_step(bytes: &[u8]) -> Result<Geometry, sdo_geom::GeomError> {
    codec::decode_sdo(bytes)?.to_geometry()
}

fn decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(codec::decode_geometry(bytes), two_step(bytes), "on {:?}", bytes);
    Ok(())
}

/// `bytes` with each listed bit flipped (positions wrap).
fn flipped(bytes: &[u8], flips: &[u32]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for f in flips {
        let bit = *f as usize % (8 * out.len());
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

#[test]
fn one_pass_encoder_covers_every_shape() {
    let sq = Ring::new(Rect::new(0.0, 0.0, 4.0, 4.0).corners().to_vec()).unwrap();
    let hole = Ring::new(Rect::new(1.0, 1.0, 2.0, 2.0).corners().to_vec()).unwrap();
    let near = near_closed_ring(&sq, 1e-10);
    let line = LineString::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 2.0)]).unwrap();
    let shapes = [
        Geometry::Point(Point::new(-0.0, 5e-324)),
        Geometry::LineString(line.clone()),
        Geometry::Polygon(Polygon::new(sq.clone(), vec![hole.clone(), near.clone()])),
        Geometry::Polygon(Polygon::from_exterior(near.clone())),
        Geometry::MultiPoint(MultiPoint::new(vec![Point::new(1.0, 1.0); 3]).unwrap()),
        Geometry::MultiLineString(MultiLineString::new(vec![line.clone(), line]).unwrap()),
        Geometry::MultiPolygon(
            MultiPolygon::new(vec![Polygon::new(near, vec![hole]), Polygon::from_exterior(sq)])
                .unwrap(),
        ),
    ];
    for g in &shapes {
        let bytes = codec::encode_geometry(g);
        assert_eq!(bytes, codec::encode_sdo(&SdoGeometry::from_geometry(g)), "{g:?}");
        assert_eq!(codec::decode_geometry(&bytes).as_ref(), Ok(g));
    }
    // The near-closed ring keeps 5 vertices and is written closed: 6
    // vertices, 12 ordinates.
    let near_only = &shapes[3];
    assert_eq!(codec::encoded_len(near_only), 2 + 1 + 4 + 4 + 12 + 4 + 8 * 12);
}

#[test]
fn rectangle_interpretation_decodes_the_same_both_ways() {
    let rect = |ords: Vec<f64>, etype: u32| SdoGeometry {
        gtype: 2003,
        elem_info: vec![1, etype, 3],
        ordinates: ords,
    };
    let cases = [
        rect(vec![1.0, 2.0, 3.0, 5.0], 1003),
        rect(vec![3.0, 5.0, 1.0, 2.0], 1003), // corners in either order
        rect(vec![1.0, 2.0], 1003),
        rect(vec![1.0, 2.0, 3.0, 5.0, 4.0, 4.0], 1003),
        rect(vec![1.0, 2.0, 1.0, 5.0], 1003), // zero width: four vertices, two repeated
        rect(vec![1.0, 2.0, 3.0, 5.0], 2003),
        SdoGeometry {
            gtype: 2003,
            elem_info: vec![1, 1003, 3, 5, 2003, 3],
            ordinates: vec![0.0, 0.0, 10.0, 10.0, 2.0, 2.0, 3.0, 3.0],
        },
    ];
    let mut accepted = 0;
    for sdo in &cases {
        let bytes = codec::encode_sdo(sdo);
        assert_eq!(codec::decode_geometry(&bytes), sdo.to_geometry(), "{sdo:?}");
        assert_eq!(two_step(&bytes), sdo.to_geometry(), "{sdo:?}");
        accepted += usize::from(sdo.to_geometry().is_ok());
    }
    assert_eq!(accepted, 4, "two corner orders, zero width and the holed rectangle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binary_codec_roundtrip(g in arb_geometry()) {
        let bytes = codec::encode_geometry(&g);
        let back = codec::decode_geometry(&bytes).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn binary_codec_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes, framing and geometry both, returns
        // an error or a value, never panics, and both decoders agree.
        decoders_agree(&data)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_encoder_emits_the_object_models_bytes(g in arb_codec_geometry()) {
        let bytes = codec::encode_geometry(&g);
        prop_assert_eq!(&bytes, &codec::encode_sdo(&SdoGeometry::from_geometry(&g)));
        prop_assert_eq!(bytes.len(), codec::encoded_len(&g));
        // Appended after other bytes, the same encoding follows them.
        let mut buf = vec![7u8; 3];
        codec::put_geometry(&mut buf, &g);
        prop_assert_eq!(&buf[3..], &bytes[..]);
    }

    #[test]
    fn one_pass_decoder_accepts_what_the_two_step_path_accepts(
        g in arb_codec_geometry(),
        flips in proptest::collection::vec(any::<u32>(), 1..4),
    ) {
        let bytes = codec::encode_geometry(&g);
        prop_assert_eq!(codec::decode_geometry(&bytes), Ok(g.clone()));
        decoders_agree(&bytes)?;
        for cut in 0..bytes.len() {
            prop_assert!(codec::decode_geometry(&bytes[..cut]).is_err(), "prefix {}", cut);
            decoders_agree(&bytes[..cut])?;
        }
        decoders_agree(&flipped(&bytes, &flips))?;
    }
}

proptest! {
    // About one case in twenty decodes to a geometry.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn one_pass_decoder_agrees_on_arbitrary_arrays(
        sdo in arb_sdo_arrays(),
        flips in proptest::collection::vec(any::<u32>(), 1..3),
    ) {
        let bytes = codec::encode_sdo(&sdo);
        // (Compared as bytes: a NaN ordinate is not equal to itself.)
        prop_assert_eq!(codec::encode_sdo(&codec::decode_sdo(&bytes).unwrap()), bytes.clone());
        prop_assert_eq!(codec::decode_geometry(&bytes), sdo.to_geometry());
        decoders_agree(&bytes)?;
        decoders_agree(&flipped(&bytes, &flips))?;
    }
}
