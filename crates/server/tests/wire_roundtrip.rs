//! Property tests for the wire's value encoding: every value a client
//! or the server can send decodes to itself bit for bit, and a
//! geometry travels as the storage codec's bytes, so the wire has no
//! value format of its own.

use proptest::prelude::*;
use sdo_geom::{
    codec, Geometry, LineString, MultiLineString, MultiPoint, MultiPolygon, Point, Polygon, Ring,
    SdoGeometry,
};
use sdo_server::wire::{decode_result, encode_result, resp, Decoder, Encoder};
use sdo_storage::snapshot::put_value;
use sdo_storage::{RowId, Value};

/// Ordinates a float codec gets wrong first: signed zeros, subnormals
/// and the ends of the finite range.
const SPECIAL: [f64; 11] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.5e-309,
    -1.1e-310,
    1e308,
    -1e308,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
];

fn arb_ordinate() -> impl Strategy<Value = f64> {
    prop_oneof![-1e3f64..1e3, (0..SPECIAL.len()).prop_map(|i| SPECIAL[i])]
}

fn arb_point() -> impl Strategy<Value = Point> {
    (arb_ordinate(), arb_ordinate()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_line() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..7)
        .prop_filter_map("line", |p| LineString::new(p).ok())
}

/// Two distinct ordinates, ascending.
fn arb_span() -> impl Strategy<Value = (f64, f64)> {
    (arb_ordinate(), arb_ordinate())
        .prop_filter_map("empty span", |(a, b)| (a != b).then(|| (a.min(b), a.max(b))))
}

/// A counterclockwise axis-aligned ring over the two spans.
fn rect_ring((x0, x1): (f64, f64), (y0, y1): (f64, f64)) -> Option<Ring> {
    Ring::new(vec![Point::new(x0, y0), Point::new(x1, y0), Point::new(x1, y1), Point::new(x0, y1)])
        .ok()
}

/// A rectangle with up to two rectangular holes cut at fractions of
/// its spans (written as `a·(1−t) + b·t` so extreme ordinates do not
/// overflow).
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    let holes = proptest::collection::vec((0.05f64..0.45, 0.55f64..0.95), 0..3);
    (arb_span(), arb_span(), holes).prop_filter_map("ring", |(xs, ys, holes)| {
        let exterior = rect_ring(xs, ys)?;
        let at = |(a, b): (f64, f64), t: f64| a * (1.0 - t) + b * t;
        let holes = holes
            .into_iter()
            .map(|(lo, hi)| rect_ring((at(xs, lo), at(xs, hi)), (at(ys, lo), at(ys, hi))))
            .collect::<Option<Vec<_>>>()?;
        Some(Polygon::new(exterior, holes))
    })
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        arb_line().prop_map(Geometry::LineString),
        arb_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_point(), 1..6)
            .prop_filter_map("multipoint", |p| MultiPoint::new(p).ok().map(Geometry::MultiPoint)),
        proptest::collection::vec(arb_line(), 1..4).prop_filter_map("multiline", |l| {
            MultiLineString::new(l).ok().map(Geometry::MultiLineString)
        }),
        proptest::collection::vec(arb_polygon(), 1..4).prop_filter_map("multipolygon", |p| {
            MultiPolygon::new(p).ok().map(Geometry::MultiPolygon)
        }),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..24)
        .prop_map(|cs| cs.into_iter().filter_map(|c| char::from_u32(c % 0x11_0000)).collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        // Every bit pattern, NaN payloads and infinities included.
        any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b))),
        arb_text().prop_map(Value::text),
        any::<u64>().prop_map(|r| Value::RowId(RowId::new(r))),
        arb_geometry().prop_map(Value::geometry),
    ]
}

/// Geometry structure and ordinate bits, independent of the codec.
fn geometry_bits(g: &Geometry) -> (u32, Vec<u32>, Vec<u64>) {
    let sdo = SdoGeometry::from_geometry(g);
    (sdo.gtype, sdo.elem_info, sdo.ordinates.iter().map(|v| v.to_bits()).collect())
}

fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Geometry(x), Value::Geometry(y)) => x == y && geometry_bits(x) == geometry_bits(y),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_value_decodes_to_itself_bit_for_bit(v in arb_value()) {
        let mut e = Encoder::new(resp::RESULT);
        e.value(&v);
        let payload = e.finish();

        // One format: the wire's value bytes are the storage codec's.
        let mut stored = Vec::new();
        put_value(&mut stored, &v);
        prop_assert_eq!(&payload[1..], &stored[..]);
        if let Value::Geometry(g) = &v {
            let enc = codec::encode_geometry(g);
            prop_assert_eq!(payload[1], 5);
            prop_assert_eq!(&payload[2..6], &(enc.len() as u32).to_le_bytes()[..]);
            prop_assert_eq!(&payload[6..], &enc[..]);
        }

        let (_, mut d) = Decoder::new(&payload).unwrap();
        let back = d.value().unwrap();
        prop_assert!(same_bits(&v, &back), "{:?} came back as {:?}", v, back);
        prop_assert!(d.at_end());
    }

    #[test]
    fn a_result_decodes_to_itself_bit_for_bit(
        columns in proptest::collection::vec(arb_text(), 1..5),
        cells in proptest::collection::vec(arb_value(), 0..24),
    ) {
        let width = columns.len();
        let rows: Vec<Vec<Value>> =
            cells.chunks_exact(width).map(|r| r.to_vec()).collect();
        let payload = encode_result(&columns, &rows);
        let (op, mut d) = Decoder::new(&payload).unwrap();
        prop_assert_eq!(op, resp::RESULT);
        let (c2, r2) = decode_result(&mut d).unwrap();
        prop_assert!(d.at_end());
        prop_assert_eq!(c2, columns);
        prop_assert_eq!(r2.len(), rows.len());
        for (got, want) in r2.iter().flatten().zip(rows.iter().flatten()) {
            prop_assert!(same_bits(want, got), "{:?} came back as {:?}", want, got);
        }
    }
}
