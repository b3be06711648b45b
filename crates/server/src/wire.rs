//! The length-prefixed wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is an opcode. Requests
//! and responses share the framing; response opcodes have the high
//! bit set. The format is deliberately trivial — no negotiation, no
//! compression, no pipelining — because the interesting machinery
//! (sessions, admission control, shared slave pool) lives behind it.
//!
//! ## Requests
//!
//! | opcode | name            | body                                   |
//! |--------|-----------------|----------------------------------------|
//! | 0x01   | `EXECUTE`       | `str32` SQL text                       |
//! | 0x02   | `PREPARE`       | `str16` name, `str32` SQL              |
//! | 0x03   | `EXEC_PREPARED` | `str16` name, `u16` n, n × value       |
//! | 0x04   | `DEALLOCATE`    | `str16` name                           |
//! | 0x05   | `METRICS`       | —                                      |
//! | 0x06   | `PING`          | —                                      |
//! | 0x07   | `CLOSE`         | —                                      |
//!
//! ## Responses
//!
//! | opcode | name       | body                                                   |
//! |--------|------------|--------------------------------------------------------|
//! | 0x81   | `RESULT`   | `u16` ncols, ncols × `str16`, `u32` nrows, nrows × ncols × value |
//! | 0x82   | `ERROR`    | `u8` kind, `str32` message                             |
//! | 0x83   | `PONG`     | —                                                      |
//! | 0x84   | `TEXT`     | `str32` (metrics exposition)                           |
//! | 0x85   | `PREPARED` | `u16` bind-parameter count                             |
//!
//! `str16`/`str32` are UTF-8 bytes behind a LE `u16`/`u32` length.
//! A length or count that does not fit its field is refused, never
//! truncated: the server answers with an `ERROR` frame and the client
//! refuses to send.
//!
//! ## Values
//!
//! A value is the engine's one value encoding, the same bytes that
//! checkpoints, the WAL and persisted statistics hold
//! ([`sdo_storage::snapshot::put_value`]): a tag byte, then 0 NULL
//! (nothing); 1 integer (`i64` LE); 2 double (`f64` bits LE); 3 text
//! (`str32`); 4 rowid (`u64` LE); 5 geometry, a `u32` LE length and
//! the [`sdo_geom::codec`] bytes of its `SDO_GEOMETRY` (gtype,
//! element-info array, raw `f64` ordinates). Geometry therefore
//! arrives bit-exact, and decoding it validates framing, counts
//! against the remaining bytes, finite ordinates and element
//! structure.

use sdo_storage::snapshot::{get_value, put_value};
use sdo_storage::Value;
use std::io::{self, IoSlice, Read, Write};

/// Largest frame either side accepts (64 MiB). A length prefix past
/// this is treated as a corrupt stream, not an allocation request.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request opcodes (client → server).
pub mod req {
    /// Parse + execute one SQL statement.
    pub const EXECUTE: u8 = 0x01;
    /// Cache a parsed statement under a name.
    pub const PREPARE: u8 = 0x02;
    /// Execute a prepared statement with bind values.
    pub const EXEC_PREPARED: u8 = 0x03;
    /// Drop a prepared statement.
    pub const DEALLOCATE: u8 = 0x04;
    /// Fetch the metrics exposition text.
    pub const METRICS: u8 = 0x05;
    /// Liveness probe.
    pub const PING: u8 = 0x06;
    /// Orderly connection shutdown.
    pub const CLOSE: u8 = 0x07;
}

/// Response opcodes (server → client).
pub mod resp {
    /// Tabular result.
    pub const RESULT: u8 = 0x81;
    /// Statement failed; body is an [`ErrorKind`](super::ErrorKind)
    /// byte plus a message.
    pub const ERROR: u8 = 0x82;
    /// Reply to `PING`.
    pub const PONG: u8 = 0x83;
    /// Plain-text body (metrics).
    pub const TEXT: u8 = 0x84;
    /// Reply to `PREPARE`: bind-parameter count.
    pub const PREPARED: u8 = 0x85;
}

/// Classifies server-reported errors so clients (and the saturation
/// bench) can distinguish engine errors from admission pushback
/// without parsing message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Engine/SQL error: the statement itself failed.
    Statement,
    /// Admission control rejected the statement (budget exceeded,
    /// queue full, or queue wait timed out). The connection stays
    /// usable; retrying later may succeed.
    Admission,
    /// The request frame could not be decoded.
    Protocol,
}

impl ErrorKind {
    /// Wire byte for this kind.
    pub fn code(self) -> u8 {
        match self {
            ErrorKind::Statement => 0,
            ErrorKind::Admission => 1,
            ErrorKind::Protocol => 2,
        }
    }

    /// Decode a wire byte (unknown codes map to `Statement`).
    pub fn from_code(c: u8) -> Self {
        match c {
            1 => ErrorKind::Admission,
            2 => ErrorKind::Protocol,
            _ => ErrorKind::Statement,
        }
    }
}

/// Read one frame payload (opcode byte included) from `r`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad frame length {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Write one frame with the given payload.
///
/// An empty or over-[`MAX_FRAME`] payload is refused *before* any
/// bytes hit the stream: the peer would reject the frame as corrupt
/// anyway (and a >4 GiB payload would silently truncate the `u32`
/// length prefix, desyncing the connection for good).
///
/// Length prefix and payload go out in one vectored write (one
/// `writev` on a socket), without copying the payload. Two writes
/// would put the payload behind Nagle's algorithm: the prefix leaves
/// alone, and the payload waits for the peer's delayed ACK of it,
/// tens of milliseconds on every response.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {} bytes outside 1..={MAX_FRAME}", payload.len()),
        ));
    }
    let len = (payload.len() as u32).to_le_bytes();
    let mut parts = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Incremental big-endian-free encoder for frame payloads.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Start a payload with `opcode`.
    pub fn new(opcode: u8) -> Self {
        Encoder { buf: vec![opcode] }
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a LE `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a LE `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `str16` (length-prefixed short string).
    ///
    /// # Panics
    /// If `s` is longer than `u16::MAX` bytes: a truncated length
    /// would desync the frame. Callers with unchecked input check it
    /// first, as [`encode_result`] and the client do.
    pub fn str16(&mut self, s: &str) -> &mut Self {
        let n = u16::try_from(s.len()).expect("str16 longer than u16::MAX bytes");
        self.u16(n);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append a `str32` (length-prefixed string).
    pub fn str32(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append one tagged [`Value`] (see [Values](self#values)).
    pub fn value(&mut self, v: &Value) -> &mut Self {
        put_value(&mut self.buf, v);
        self
    }

    /// Finish, yielding the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a received frame payload.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt frame: {what}"))
}

impl<'a> Decoder<'a> {
    /// Decode `payload`, returning the opcode and a cursor over the
    /// body.
    pub fn new(payload: &'a [u8]) -> io::Result<(u8, Self)> {
        let (&opcode, body) = payload.split_first().ok_or_else(|| corrupt("empty payload"))?;
        Ok((opcode, Decoder { buf: body, pos: 0 }))
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("truncated body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a LE `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a LE `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `str16`.
    pub fn str16(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    /// Read a `str32`.
    pub fn str32(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME as usize {
            return Err(corrupt("oversized string"));
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    /// Read one tagged [`Value`] (see [Values](self#values)).
    pub fn value(&mut self) -> io::Result<Value> {
        let mut rest = &self.buf[self.pos..];
        let v = get_value(&mut rest).map_err(|e| corrupt(&e.to_string()))?;
        self.pos = self.buf.len() - rest.len();
        Ok(v)
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole body.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// `n` as a wire `u16`, or an `InvalidInput` error naming `what`.
pub(crate) fn wire_u16(n: usize, what: &str) -> io::Result<u16> {
    u16::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} is {n}; the wire protocol allows at most {}", u16::MAX),
        )
    })
}

/// Encode an `ERROR` payload.
pub(crate) fn encode_error(kind: ErrorKind, message: &str) -> Vec<u8> {
    let mut e = Encoder::new(resp::ERROR);
    e.u8(kind.code());
    e.str32(message);
    e.finish()
}

/// Why a result cannot be framed as a `RESULT`, if it cannot.
fn check_result_shape(columns: &[String], rows: &[Vec<Value>]) -> io::Result<()> {
    wire_u16(columns.len(), "the result's column count")?;
    for c in columns {
        wire_u16(c.len(), "the byte length of a column name")?;
    }
    // `decode_result` refuses rows of no columns: they have no bytes
    // to bound their count by.
    if columns.is_empty() && !rows.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "result has rows but no columns"));
    }
    Ok(())
}

/// Encode a tabular result (columns + value rows) as a `RESULT`
/// payload.
///
/// A result the frame cannot carry (more than `u16::MAX` columns, a
/// column name longer than `u16::MAX` bytes, rows but no columns)
/// encodes as a statement `ERROR` payload instead, so the stream stays
/// framed and the connection usable.
pub fn encode_result(columns: &[String], rows: &[Vec<Value>]) -> Vec<u8> {
    if let Err(e) = check_result_shape(columns, rows) {
        return encode_error(ErrorKind::Statement, &e.to_string());
    }
    let mut e = Encoder::new(resp::RESULT);
    e.u16(columns.len() as u16);
    for c in columns {
        e.str16(c);
    }
    e.u32(rows.len() as u32);
    for row in rows {
        for v in row {
            e.value(v);
        }
    }
    e.finish()
}

/// Decode a `RESULT` body (opcode already stripped).
///
/// Counts are checked against the bytes that remain before anything
/// is reserved, so a corrupt frame cannot ask for more memory than it
/// could describe.
pub fn decode_result(d: &mut Decoder<'_>) -> io::Result<(Vec<String>, Vec<Vec<Value>>)> {
    let ncols = d.u16()? as usize;
    // Each name takes at least its 2-byte length.
    let mut columns = Vec::with_capacity(ncols.min(d.remaining() / 2));
    for _ in 0..ncols {
        columns.push(d.str16()?);
    }
    let nrows = d.u32()? as usize;
    // Each value takes at least its tag byte; a row of no columns
    // takes none, so no rows can follow zero columns.
    let fits = d.remaining().checked_div(ncols).map_or(nrows == 0, |most| nrows <= most);
    if !fits {
        return Err(corrupt("row count exceeds payload"));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(d.value()?);
        }
        rows.push(row);
    }
    Ok((columns, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    use sdo_geom::{Geometry, Polygon, Rect};
    use sdo_storage::RowId;

    fn square() -> Geometry {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(0.0, 0.0, 4.0, 4.0)))
    }

    #[test]
    fn value_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Integer(-42),
            Value::Double(2.5),
            Value::text("héllo\nworld"),
            Value::RowId(RowId(7)),
            Value::geometry(square()),
        ];
        let mut e = Encoder::new(resp::RESULT);
        for v in &vals {
            e.value(v);
        }
        let payload = e.finish();
        let (op, mut d) = Decoder::new(&payload).unwrap();
        assert_eq!(op, resp::RESULT);
        for v in &vals {
            assert_eq!(&d.value().unwrap(), v);
        }
        assert!(d.at_end());
    }

    #[test]
    fn result_roundtrip() {
        let columns = vec!["A".to_string(), "B".to_string()];
        let rows =
            vec![vec![Value::Integer(1), Value::text("x")], vec![Value::Null, Value::Double(0.5)]];
        let payload = encode_result(&columns, &rows);
        let (op, mut d) = Decoder::new(&payload).unwrap();
        assert_eq!(op, resp::RESULT);
        let (c2, r2) = decode_result(&mut d).unwrap();
        assert_eq!(c2, columns);
        assert_eq!(r2, rows);
        assert!(d.at_end());
    }

    #[test]
    fn geometry_is_a_length_and_the_sdo_codec_bytes() {
        let mut e = Encoder::new(resp::RESULT);
        e.value(&Value::geometry(square()));
        let payload = e.finish();
        let codec = sdo_geom::codec::encode_geometry(&square());
        assert_eq!(payload[1], 5, "geometry tag");
        assert_eq!(payload[2..6], (codec.len() as u32).to_le_bytes());
        assert_eq!(&payload[6..], &codec[..]);
    }

    fn error_message(payload: &[u8]) -> String {
        let (op, mut d) = Decoder::new(payload).unwrap();
        assert_eq!(op, resp::ERROR, "expected an ERROR payload");
        assert_eq!(ErrorKind::from_code(d.u8().unwrap()), ErrorKind::Statement);
        d.str32().unwrap()
    }

    #[test]
    fn results_the_frame_cannot_carry_encode_as_errors() {
        let wide: Vec<String> = (0..=u16::MAX as usize).map(|i| format!("C{i}")).collect();
        let msg = error_message(&encode_result(&wide, &[]));
        assert!(msg.contains("column count is 65536"), "{msg}");

        let long = vec!["A".repeat(u16::MAX as usize + 1)];
        let msg = error_message(&encode_result(&long, &[vec![Value::Integer(1)]]));
        assert!(msg.contains("column name is 65536"), "{msg}");

        let msg = error_message(&encode_result(&[], &[vec![]]));
        assert!(msg.contains("no columns"), "{msg}");

        // The largest header that fits still encodes.
        let ok = vec!["A".repeat(u16::MAX as usize)];
        let payload = encode_result(&ok, &[]);
        let (op, mut d) = Decoder::new(&payload).unwrap();
        assert_eq!(op, resp::RESULT);
        assert_eq!(decode_result(&mut d).unwrap().0, ok);
    }

    #[test]
    fn row_counts_past_the_payload_are_corrupt() {
        // Zero columns and four billion empty rows: no bytes back the
        // rows, so decoding must refuse rather than reserve them.
        let mut e = Encoder::new(resp::RESULT);
        e.u16(0).u32(u32::MAX);
        let payload = e.finish();
        let (_, mut d) = Decoder::new(&payload).unwrap();
        assert!(decode_result(&mut d).is_err());

        let mut e = Encoder::new(resp::RESULT);
        e.u16(1).str16("A").u32(2).value(&Value::Null);
        let payload = e.finish();
        let (_, mut d) = Decoder::new(&payload).unwrap();
        assert!(decode_result(&mut d).is_err());
    }

    #[test]
    fn frame_roundtrip_and_bad_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[resp::PONG]).unwrap();
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(payload, vec![resp::PONG]);

        // Zero-length and oversized frames are corrupt, not allocations.
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
    }

    /// A writer that records each `write_vectored` call and accepts at
    /// most `limit` bytes per call.
    struct Recorder {
        calls: Vec<Vec<u8>>,
        limit: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let call: Vec<u8> =
                bufs.iter().flat_map(|b| b.iter().copied()).take(self.limit).collect();
            let n = call.len();
            self.calls.push(call);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_survives_short_writes() {
        let payload = encode_result(&["A".to_string()], &[vec![Value::text("x".repeat(100))]]);
        let mut one = Recorder { calls: Vec::new(), limit: usize::MAX };
        write_frame(&mut one, &payload).unwrap();
        assert_eq!(one.calls.len(), 1, "length prefix and payload in one write");
        assert_eq!(read_frame(&mut one.calls[0].as_slice()).unwrap(), payload);

        // A writer that takes 3 bytes at a time still gets the whole
        // frame, in order.
        let mut short = Recorder { calls: Vec::new(), limit: 3 };
        write_frame(&mut short, &payload).unwrap();
        let bytes: Vec<u8> = short.calls.concat();
        assert_eq!(bytes, one.calls[0]);
        assert_eq!(short.calls.len(), bytes.len().div_ceil(3));
    }

    #[test]
    fn oversized_and_empty_writes_rejected_before_any_bytes() {
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &[]).is_err());
        let big = vec![0u8; MAX_FRAME as usize + 1];
        assert!(write_frame(&mut out, &big).is_err());
        assert!(out.is_empty(), "a refused frame must not desync the stream");
    }

    #[test]
    fn truncated_bodies_error_cleanly() {
        let mut e = Encoder::new(req::EXECUTE);
        e.str32("SELECT 1");
        let payload = e.finish();
        // Chop the body mid-string: decoding must fail, not panic.
        let (_, mut d) = Decoder::new(&payload[..payload.len() - 3]).unwrap();
        assert!(d.str32().is_err());
    }
}
