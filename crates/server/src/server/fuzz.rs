//! Frame-decoder fuzzing: deterministic mutations of valid request and
//! response frames must decode to `Err` (or to some other valid
//! message), never panic, and never allocate more than a small
//! multiple of the frame's own size.
//!
//! Every mutation is named by a [`Mutation`] value, so a failure report
//! such as `EXEC_PREPARED window: FlipBit(276)` replays exactly; each
//! one found becomes a named test at the bottom of this file.

use super::dispatch;
use crate::admission::AdmissionController;
use crate::wire::{decode_result, req, resp, Decoder, Encoder, ErrorKind};
use proptest::test_runner::TestRng;
use sdo_dbms::{Database, Session};
use sdo_geom::{Geometry, Point, Polygon, Rect, Ring};
use sdo_storage::{RowId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Counts the bytes this thread asks the allocator for while armed.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; `note` only updates this thread's counters and
// never allocates (`const`-initialised thread-locals, `try_with`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the bytes it requested.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|r| r.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, REQUESTED.with(Cell::get))
}

/// What decoding `frame` may allocate. A decoded value outweighs its
/// bytes (a one-byte NULL becomes a 24-byte `Value` in a row vector;
/// geometry decodes through element and point vectors), so the bound is
/// linear in the frame, plus room for error messages.
fn allocation_bound(frame: &[u8]) -> usize {
    64 * frame.len() + 64 * 1024
}

/// One deterministic change to a valid frame.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Keep the first `n` bytes.
    Truncate(usize),
    /// Flip bit `i % 8` of byte `i / 8`.
    FlipBit(usize),
    /// Overwrite four bytes at the offset with `u32::MAX`: every
    /// `u32` length or count field in turn.
    MaxU32(usize),
    /// Overwrite two bytes at the offset with `u16::MAX`.
    MaxU16(usize),
    /// Two to five of the above, drawn from a generator seeded here.
    Seeded(u64),
}

const SEEDS: u64 = 1500;

fn apply(frame: &[u8], m: Mutation) -> Vec<u8> {
    let mut out = frame.to_vec();
    match m {
        Mutation::Truncate(n) => out.truncate(n),
        Mutation::FlipBit(i) => {
            if let Some(b) = out.get_mut(i / 8) {
                *b ^= 1 << (i % 8);
            }
        }
        Mutation::MaxU32(at) => {
            if let Some(w) = out.get_mut(at..at + 4) {
                w.copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        Mutation::MaxU16(at) => {
            if let Some(w) = out.get_mut(at..at + 2) {
                w.copy_from_slice(&u16::MAX.to_le_bytes());
            }
        }
        Mutation::Seeded(seed) => {
            let mut rng = TestRng::from_seed(seed);
            for _ in 0..2 + rng.below(4) {
                let len = out.len().max(1) as u64;
                let m = match rng.below(8) {
                    0 => Mutation::Truncate(rng.below(len + 1) as usize),
                    1 => Mutation::MaxU32(rng.below(len) as usize),
                    2 => Mutation::MaxU16(rng.below(len) as usize),
                    _ => Mutation::FlipBit(rng.below(len * 8) as usize),
                };
                out = apply(&out, m);
            }
        }
    }
    out
}

/// Every mutation of a frame of `len` bytes: each prefix, each bit,
/// each `u32`/`u16` window set to its maximum, then the seeded mixes.
fn mutations(len: usize) -> impl Iterator<Item = Mutation> {
    (0..len)
        .map(Mutation::Truncate)
        .chain((0..len * 8).map(Mutation::FlipBit))
        .chain((0..len.saturating_sub(3)).map(Mutation::MaxU32))
        .chain((0..len.saturating_sub(1)).map(Mutation::MaxU16))
        .chain((0..SEEDS).map(Mutation::Seeded))
}

fn polygon_with_hole() -> Geometry {
    let outer = Ring::new(Rect::new(0.0, 0.0, 10.0, 10.0).corners().to_vec()).unwrap();
    let hole = Ring::new(Rect::new(4.0, 4.0, 6.0, 6.0).corners().to_vec()).unwrap();
    Geometry::Polygon(Polygon::new(outer, vec![hole]))
}

/// One value of every kind.
fn every_kind() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Integer(-7),
        Value::Double(-0.0),
        Value::text("héllo"),
        Value::RowId(RowId::new(3)),
        Value::geometry(polygon_with_hole()),
        Value::geometry(Geometry::Point(Point::new(1.0, 2.0))),
    ]
}

/// Valid request frames, encoded as the client encodes them.
fn requests() -> Vec<(&'static str, Vec<u8>)> {
    let mut exec = Encoder::new(req::EXECUTE);
    exec.str32("SELECT id FROM t WHERE id < 3");
    let mut prepare = Encoder::new(req::PREPARE);
    prepare.str16("p").str32("SELECT id FROM t WHERE id = ?");
    let mut window = Encoder::new(req::EXEC_PREPARED);
    window.str16("w").u16(1).value(&Value::geometry(polygon_with_hole()));
    let mut binds = Encoder::new(req::EXEC_PREPARED);
    let params = every_kind();
    binds.str16("p").u16(params.len() as u16);
    for v in &params {
        binds.value(v);
    }
    let mut dealloc = Encoder::new(req::DEALLOCATE);
    dealloc.str16("nope");
    vec![
        ("EXECUTE", exec.finish()),
        ("PREPARE", prepare.finish()),
        ("EXEC_PREPARED window", window.finish()),
        ("EXEC_PREPARED binds", binds.finish()),
        ("DEALLOCATE", dealloc.finish()),
        ("PING", vec![req::PING]),
    ]
}

/// Valid response frames, encoded as the server encodes them.
fn responses() -> Vec<(&'static str, Vec<u8>)> {
    let columns: Vec<String> = (0..every_kind().len()).map(|i| format!("C{i}")).collect();
    let rows = vec![every_kind(), every_kind().into_iter().rev().collect()];
    let mut error = Encoder::new(resp::ERROR);
    error.u8(ErrorKind::Statement.code()).str32("no such table");
    let mut prepared = Encoder::new(resp::PREPARED);
    prepared.u16(2);
    vec![
        ("RESULT", crate::wire::encode_result(&columns, &rows)),
        ("RESULT empty", crate::wire::encode_result(&[], &[])),
        ("ERROR", error.finish()),
        ("PREPARED", prepared.finish()),
    ]
}

/// Decode a response the ways a client can: as a result, and as a run
/// of values.
fn decode_response(frame: &[u8]) {
    if let Ok((_, mut d)) = Decoder::new(frame) {
        let _ = decode_result(&mut d);
    }
    if let Ok((_, mut d)) = Decoder::new(frame) {
        while !d.at_end() && d.value().is_ok() {}
    }
}

/// A database with the table and the prepared statements the request
/// frames name.
fn engine() -> (Arc<Database>, Session, AdmissionController) {
    let db = Arc::new(Database::new());
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for i in 0..4 {
        db.execute(&format!(
            "INSERT INTO t VALUES ({i}, SDO_GEOMETRY('POLYGON (({i} 0, {j} 0, {j} 1, {i} 1, {i} 0))'))",
            j = i + 1
        ))
        .unwrap();
    }
    let session = db.session();
    session
        .prepare("w", "SELECT id FROM t WHERE SDO_RELATE(geom, ?, 'ANYINTERACT') = 'TRUE'")
        .unwrap();
    session.prepare("p", "SELECT id FROM t WHERE id = ?").unwrap();
    let admission = AdmissionController::new(u64::MAX, 4, Duration::from_secs(1));
    (db, session, admission)
}

/// Dispatch `frame` on the server's path. A frame that fails to decode
/// returns `Err` having executed nothing, so its allocations are the
/// decoder's alone and must stay within the bound.
fn dispatch_one(frame: &[u8], engine: &(Arc<Database>, Session, AdmissionController)) {
    let (db, session, admission) = engine;
    let (out, bytes) = allocated_by(|| dispatch(frame, session, admission, db).map(|_| ()));
    if out.is_err() {
        assert!(
            bytes <= allocation_bound(frame),
            "rejecting a {}-byte frame allocated {bytes} bytes",
            frame.len()
        );
    }
}

fn check_response(frame: &[u8]) {
    let ((), bytes) = allocated_by(|| decode_response(frame));
    assert!(
        bytes <= allocation_bound(frame),
        "decoding a {}-byte frame allocated {bytes} bytes",
        frame.len()
    );
}

/// Run `check` on every mutation of every frame; report the first
/// failure by frame name and mutation.
fn fuzz(frames: Vec<(&'static str, Vec<u8>)>, mut check: impl FnMut(&[u8])) {
    for (name, frame) in &frames {
        for m in mutations(frame.len()) {
            let bad = apply(frame, m);
            if catch_unwind(AssertUnwindSafe(|| check(&bad))).is_err() {
                panic!("{name}: {m:?} fails; add it as a named test");
            }
        }
    }
}

#[test]
fn mutated_responses_decode_to_errors_within_the_allocation_bound() {
    fuzz(responses(), check_response);
}

#[test]
fn mutated_requests_dispatch_without_panicking() {
    let engine = engine();
    fuzz(requests(), |frame| dispatch_one(frame, &engine));
}

/// Replay one mutation of a named frame.
fn replay(frames: Vec<(&'static str, Vec<u8>)>, name: &str, m: Mutation) -> Vec<u8> {
    let (_, frame) = frames.into_iter().find(|(n, _)| *n == name).expect("frame name");
    apply(&frame, m)
}

#[test]
fn unmutated_frames_decode() {
    let engine = engine();
    for (name, frame) in requests() {
        let out = dispatch(&frame, &engine.1, &engine.2, &engine.0);
        assert!(matches!(out, Ok(Some(_))), "{name}");
    }
    let (_, frame) = &responses()[0];
    let (_, mut d) = Decoder::new(frame).unwrap();
    assert_eq!(decode_result(&mut d).unwrap().1.len(), 2);
}

// Mutations the fuzzer found failing, each replayed as its own test.

/// Flips an element offset of the polygon past its ordinates: SDO
/// decoding sliced out of bounds and panicked.
#[test]
fn result_flip_bit_820_offset_past_the_ordinates() {
    check_response(&replay(responses(), "RESULT", Mutation::FlipBit(820)));
}

/// The same defect reached through a bind value: the connection thread
/// panicked instead of answering with a protocol error.
#[test]
fn exec_prepared_window_flip_bit_276_offset_past_the_ordinates() {
    let (db, session, admission) = engine();
    let frame = replay(requests(), "EXEC_PREPARED window", Mutation::FlipBit(276));
    let Err(err) = dispatch(&frame, &session, &admission, &db) else {
        panic!("a corrupt frame must not dispatch");
    };
    assert!(err.to_string().contains("bad starting offset"), "{err}");
}
