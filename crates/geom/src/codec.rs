//! Compact binary encoding of `SDO_GEOMETRY` values.
//!
//! Oracle stores `SDO_GEOMETRY` values as packed object bytes inside
//! table blocks; this module is the equivalent: a deterministic,
//! versioned little-endian encoding of a geometry's three arrays. It is
//! the geometry half of the engine's one value codec
//! (`sdo_storage::snapshot::put_value`), so checkpoints, the WAL,
//! persisted statistics and the wire protocol all carry these bytes.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  u16  0x5D0E          version u8  1
//! gtype  u32
//! n_elem u32                  elem_info: n_elem * 3 x u32
//! n_ord  u32                  ordinates: n_ord x f64
//! ```
//!
//! A value crosses the codec in one pass each way. [`put_geometry`]
//! writes a typed [`Geometry`]'s arrays straight into the caller's
//! buffer, and [`encoded_len`] gives their size from the ring sizes,
//! for a caller that sizes a buffer before writing. [`decode_geometry`] parses the framing
//! once and reads each element's vertices from the byte slice straight
//! into the vector its ring, line or point set keeps. Both take the
//! same element walk and the same element assembler as
//! [`SdoGeometry::from_geometry`] and [`SdoGeometry::to_geometry`], so
//! the bytes and the validation cannot drift apart. [`SdoGeometry`]
//! remains the object model, not a step of the value codec:
//! [`encode_sdo`] and [`decode_sdo`] convert it to and from the same
//! bytes.

use crate::error::GeomError;
use crate::geometry::Geometry;
use crate::point::Point;
use crate::sdo::{assemble, for_each_element, gtype_of, SdoArrays, SdoGeometry};

/// Format magic: "SDO" squeezed into 16 bits.
const MAGIC: u16 = 0x5D0E;
/// Current format version.
const VERSION: u8 = 1;
/// Bytes before `elem_info`: magic, version, gtype, element count.
const HEADER: usize = 2 + 1 + 4 + 4;

/// Encoded size of `n_elem` elements and `n_ord` ordinates.
fn frame_len(n_elem: usize, n_ord: usize) -> usize {
    HEADER + 12 * n_elem + 4 + 8 * n_ord
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_header(buf: &mut Vec<u8>, gtype: u32, n_elem: usize) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    put_u32(buf, gtype);
    put_u32(buf, n_elem as u32);
}

/// Element and ordinate counts of `g`'s encoding.
fn counts(g: &Geometry) -> (usize, usize) {
    let (mut n_elem, mut n_ord) = (0, 0);
    for_each_element(g, |e| {
        n_elem += 1;
        n_ord += e.ordinates();
    });
    (n_elem, n_ord)
}

/// The number of bytes [`put_geometry`] writes for `g`.
pub fn encoded_len(g: &Geometry) -> usize {
    let (n_elem, n_ord) = counts(g);
    frame_len(n_elem, n_ord)
}

/// Append the encoding of a typed geometry to `buf`, in one pass over
/// its vertices: the same bytes as
/// `encode_sdo(&SdoGeometry::from_geometry(g))`, without building
/// either.
pub fn put_geometry(buf: &mut Vec<u8>, g: &Geometry) {
    let (n_elem, n_ord) = counts(g);
    buf.reserve(frame_len(n_elem, n_ord));
    put_header(buf, gtype_of(g), n_elem);
    let mut offset = 1;
    for_each_element(g, |e| {
        for v in [offset as u32, e.etype, e.interp] {
            put_u32(buf, v);
        }
        offset += e.ordinates();
    });
    put_u32(buf, n_ord as u32);
    for_each_element(g, |e| {
        for p in e.vertices() {
            put_f64(buf, p.x);
            put_f64(buf, p.y);
        }
    });
}

/// Serialize a typed geometry into a buffer of its own.
pub fn encode_geometry(g: &Geometry) -> Vec<u8> {
    let mut buf = Vec::new();
    put_geometry(&mut buf, g);
    buf
}

/// Serialize an [`SdoGeometry`] as it stands, valid or not.
pub fn encode_sdo(sdo: &SdoGeometry) -> Vec<u8> {
    debug_assert!(sdo.elem_info.len().is_multiple_of(3));
    let mut buf =
        Vec::with_capacity(HEADER + 4 * sdo.elem_info.len() + 4 + 8 * sdo.ordinates.len());
    put_header(&mut buf, sdo.gtype, sdo.elem_info.len() / 3);
    for v in &sdo.elem_info {
        put_u32(&mut buf, *v);
    }
    put_u32(&mut buf, sdo.ordinates.len() as u32);
    for v in &sdo.ordinates {
        put_f64(&mut buf, *v);
    }
    buf
}

/// A frame whose framing checked out: the gtype and the two arrays,
/// still in their little-endian bytes.
struct Frame<'a> {
    gtype: u32,
    elem_info: &'a [u8],
    ordinates: &'a [u8],
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The one parser of codec bytes: magic, version, and both counts
/// against the bytes present, with nothing left over. Geometry
/// semantics are [`assemble`]'s.
fn parse(bytes: &[u8]) -> Result<Frame<'_>, GeomError> {
    let err = |m: &str| GeomError::InvalidSdo(format!("codec: {m}"));
    let Some((head, rest)) = bytes.split_first_chunk::<HEADER>() else {
        return Err(err("truncated header"));
    };
    if u16::from_le_bytes([head[0], head[1]]) != MAGIC {
        return Err(err("bad magic"));
    }
    if head[2] != VERSION {
        return Err(GeomError::InvalidSdo(format!("codec: unsupported version {}", head[2])));
    }
    let gtype = le_u32(&head[3..7]);
    let n_elem = le_u32(&head[7..11]) as usize;
    if n_elem > rest.len() / 12 {
        return Err(err("element count exceeds payload"));
    }
    let (elem_info, rest) = rest.split_at(12 * n_elem);
    let Some((n_ord, ordinates)) = rest.split_first_chunk::<4>() else {
        return Err(err("truncated ordinate count"));
    };
    let n_ord = u32::from_le_bytes(*n_ord) as usize;
    if n_ord > ordinates.len() / 8 {
        return Err(err("ordinate count exceeds payload"));
    }
    if ordinates.len() != 8 * n_ord {
        return Err(err("trailing bytes"));
    }
    Ok(Frame { gtype, elem_info, ordinates })
}

impl SdoArrays for Frame<'_> {
    fn gtype(&self) -> u32 {
        self.gtype
    }

    fn elem_info_len(&self) -> usize {
        self.elem_info.len() / 4
    }

    fn elem_info(&self, i: usize) -> u32 {
        le_u32(&self.elem_info[4 * i..4 * i + 4])
    }

    fn ordinates_len(&self) -> usize {
        self.ordinates.len() / 8
    }

    fn points(&self, from: usize, to: usize) -> impl Iterator<Item = Point> {
        self.ordinates[16 * from..16 * to]
            .chunks_exact(16)
            .map(|b| Point::new(le_f64(&b[..8]), le_f64(&b[8..])))
    }
}

/// Deserialize codec bytes into an [`SdoGeometry`].
///
/// Validates framing (magic, version, lengths) but not geometry
/// semantics — call [`SdoGeometry::to_geometry`] for that, as with any
/// bytes of unknown provenance.
pub fn decode_sdo(bytes: &[u8]) -> Result<SdoGeometry, GeomError> {
    let f = parse(bytes)?;
    Ok(SdoGeometry {
        gtype: f.gtype,
        elem_info: f.elem_info.chunks_exact(4).map(le_u32).collect(),
        ordinates: f.ordinates.chunks_exact(8).map(le_f64).collect(),
    })
}

/// Deserialize codec bytes into a typed geometry, with full
/// validation: exactly what `decode_sdo` then
/// [`SdoGeometry::to_geometry`] accepts, in one pass.
pub fn decode_geometry(bytes: &[u8]) -> Result<Geometry, GeomError> {
    assemble(&parse(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::{Polygon, Ring};
    use crate::rect::Rect;

    fn samples() -> Vec<Geometry> {
        let outer = Ring::new(Rect::new(0.0, 0.0, 10.0, 10.0).corners().to_vec()).unwrap();
        let hole = Ring::new(Rect::new(4.0, 4.0, 6.0, 6.0).corners().to_vec()).unwrap();
        vec![
            Geometry::Point(Point::new(1.5, -2.5)),
            Geometry::LineString(
                crate::linestring::LineString::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(3.0, 4.0),
                ])
                .unwrap(),
            ),
            Geometry::Polygon(Polygon::new(outer, vec![hole])),
            Geometry::MultiPoint(
                crate::multi::MultiPoint::new(vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)])
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn roundtrip_all_types() {
        for g in samples() {
            let bytes = encode_geometry(&g);
            assert_eq!(bytes.len(), encoded_len(&g));
            assert_eq!(bytes, encode_sdo(&SdoGeometry::from_geometry(&g)));
            let back = decode_geometry(&bytes).unwrap();
            assert_eq!(g, back);
            assert_eq!(decode_sdo(&bytes).unwrap(), SdoGeometry::from_geometry(&g));
        }
    }

    #[test]
    fn put_geometry_appends_after_what_the_buffer_holds() {
        let g = &samples()[2];
        let mut buf = vec![0xAB];
        put_geometry(&mut buf, g);
        assert_eq!(buf[0], 0xAB);
        assert_eq!(&buf[1..], &encode_geometry(g)[..]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = samples().pop().unwrap();
        assert_eq!(encode_geometry(&g), encode_geometry(&g));
    }

    #[test]
    fn rejects_corruption() {
        let g = &samples()[2];
        let good = encode_geometry(g);
        // truncations at every prefix length must error, not panic
        for cut in 0..good.len() {
            assert!(decode_sdo(&good[..cut]).is_err(), "prefix of {cut} bytes accepted");
            assert!(decode_geometry(&good[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
        // bad magic
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_sdo(&bad).is_err());
        // bad version
        let mut bad = good.clone();
        bad[2] = 99;
        assert!(decode_sdo(&bad).is_err());
        // trailing garbage
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_sdo(&bad).is_err());
        assert!(decode_geometry(&bad).is_err());
        // absurd element count must not allocate/panic
        let mut bad = good.clone();
        bad[7] = 0xFF;
        bad[8] = 0xFF;
        bad[9] = 0xFF;
        bad[10] = 0x7F;
        assert!(decode_sdo(&bad).is_err());
        assert!(decode_geometry(&bad).is_err());
    }

    #[test]
    fn decoded_bytes_still_validate_semantically() {
        // Framing-valid but semantically-broken SDO must fail at
        // to_geometry, demonstrating the two-layer validation.
        let sdo = SdoGeometry {
            gtype: 2003,
            elem_info: vec![1, 2003, 1], // interior ring first: invalid
            ordinates: vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
        };
        let bytes = encode_sdo(&sdo);
        let decoded = decode_sdo(&bytes).unwrap();
        assert_eq!(decoded, sdo);
        assert!(decoded.to_geometry().is_err());
        assert_eq!(decode_geometry(&bytes), decoded.to_geometry());
    }

    #[test]
    fn rectangle_interpretation_decodes_from_bytes() {
        let sdo = SdoGeometry::rectangle(&Rect::new(1.0, 2.0, 3.0, 5.0));
        let g = decode_geometry(&encode_sdo(&sdo)).unwrap();
        assert_eq!(g, sdo.to_geometry().unwrap());
        assert_eq!(g.area(), 6.0);
    }
}
