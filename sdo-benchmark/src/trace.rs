//! Spans recorded by the harness around each call into a layer.
//!
//! The engine is not instrumented. A traced operation is the real wire
//! round trip — the root span `wire_op` — followed by a replay of what
//! the server did for it, as direct calls from this process in the
//! order the server makes them: decode, admit, execute, encode. Each
//! call is a child span of `wire_op`. Work *below* `execute` is
//! replayed the same way through the layers' public functions, on the
//! same inputs, and hangs under the `execute` span.
//!
//! So a child runs after its parent's interval, not inside it: `parent`
//! is a logical link and the timestamps say when the replay ran. A
//! span's self time is its duration minus its children's durations.
//! Replays are serial CPU time; where they add up to more than their
//! parent's wall time (the parent ran in parallel) they are scaled to
//! fit, so that a share stays a share of wall time. The root's self
//! time is what no replayed step accounts for: socket, scheduling,
//! thread hand-over.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// Spans of one operation share this.
    pub op_id: u64,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn nanos(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// In-memory span store; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Stores that will be merged share one `epoch`, hence one clock.
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Record an operation's root span from a measurement already
    /// taken: it started at `start` and took `nanos`.
    pub fn root(&mut self, op_id: u64, name: &'static str, start: Instant, nanos: u64) -> SpanId {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { op_id, name, parent: None, start_ns, end_ns: start_ns + nanos });
        self.spans.len() - 1
    }

    /// Time `f` as a span under `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let op_id = self.spans[parent].op_id;
        self.spans.push(Span { op_id, name, parent: Some(parent), start_ns, end_ns });
        (self.spans.len() - 1, out)
    }

    pub fn merge(&mut self, other: Tracer) {
        assert_eq!(self.epoch, other.epoch, "merged span stores must share a clock");
        // Span ids are indices: rebase the incoming parents.
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("op_id", s.op_id.into()),
                        ("id", id.into()),
                        ("name", s.name.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// The per-layer share metrics, in report order.
pub const SHARES: [&str; 11] = [
    "share.server_wire",
    "share.server_admission",
    "share.dbms_sql",
    "share.dbms_exec",
    "share.core",
    "share.rtree",
    "share.geom",
    "share.quadtree",
    "share.storage_heap",
    "share.storage_wal",
    "share.unattributed",
];

/// The share metric a span's self time is charged to: the span name up
/// to its first dot, mapped to the crate that does the work.
pub fn share_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or(name) {
        "wire" => "share.server_wire",
        "admission" => "share.server_admission",
        "sql" => "share.dbms_sql",
        "exec" => "share.dbms_exec",
        "core" => "share.core",
        "rtree" => "share.rtree",
        "geom" => "share.geom",
        "quadtree" => "share.quadtree",
        "heap" => "share.storage_heap",
        "wal" => "share.storage_wal",
        // The `wire_op` root.
        _ => "share.unattributed",
    }
}

/// Self time per span name, in nanoseconds, summed over all spans.
/// The values add up to the total duration of the root spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    fn visit(
        id: SpanId,
        scale: f64,
        spans: &[Span],
        children: &[Vec<SpanId>],
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let mine = spans[id].nanos() * scale;
        let below: f64 = children[id].iter().map(|c| spans[*c].nanos() * scale).sum();
        let fit = if below > mine { mine / below } else { 1.0 };
        *out.entry(spans[id].name).or_insert(0.0) += (mine - below * fit).max(0.0);
        for c in &children[id] {
            visit(*c, scale * fit, spans, children, out);
        }
    }
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            visit(id, 1.0, spans, &children, &mut out);
        }
    }
    out
}

/// Mean duration per operation of the spans called `name`, in
/// nanoseconds (an operation may hold several, one per statement).
pub fn mean_per_op(spans: &[Span], name: &str, ops: usize) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::nanos).sum::<f64>() / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, nanos: u64) -> Span {
        Span { op_id: 1, name, parent, start_ns: 1000, end_ns: 1000 + nanos }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("wire_op", None, 100),
            span("wire.decode_request", Some(0), 10),
            span("exec.execute", Some(0), 80),
            span("rtree.primary_filter", Some(2), 30),
            span("geom.exact_filter", Some(2), 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["wire_op"], 10.0);
        assert_eq!(t["wire.decode_request"], 10.0);
        assert_eq!(t["exec.execute"], 30.0);
        assert_eq!(t["rtree.primary_filter"], 30.0);
        assert_eq!(t["geom.exact_filter"], 20.0);
        assert_eq!(t.values().sum::<f64>(), 100.0, "self times add up to the root");
        assert_eq!(mean_per_op(&spans, "exec.execute", 2), 40.0);
    }

    #[test]
    fn children_longer_than_their_parent_are_scaled_to_fit() {
        // 80 ns of parallel wall time, 160 ns of serial replay below
        // it, itself split 3:1 one level further down.
        let spans = vec![
            span("exec.execute", None, 80),
            span("core.spatial_join", Some(0), 160),
            span("rtree.primary_filter", Some(1), 120),
            span("geom.exact_filter", Some(1), 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t["exec.execute"], 0.0);
        assert_eq!(t["core.spatial_join"], 0.0);
        assert_eq!(t["rtree.primary_filter"], 60.0);
        assert_eq!(t["geom.exact_filter"], 20.0);
        assert_eq!(t.values().sum::<f64>(), 80.0);
    }

    #[test]
    fn tracer_links_children_and_rebases_parents_on_merge() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.root(7, "wire_op", Instant::now(), 5_000);
        let (exec, v) = a.child("exec.execute", root, || std::hint::black_box(42));
        assert_eq!(v, 42);
        assert_eq!((a.spans[exec].parent, a.spans[exec].op_id), (Some(root), 7));
        assert_eq!(a.spans[root].end_ns - a.spans[root].start_ns, 5_000);
        let mut b = Tracer::new(epoch);
        let r2 = b.root(8, "wire_op", Instant::now(), 1);
        b.child("rtree.primary_filter", r2, || ());
        a.merge(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2), "parents rebased on merge");
        assert_eq!(share_of("rtree.primary_filter"), "share.rtree");
        assert_eq!(share_of("wire_op"), "share.unattributed");
        assert!(SHARES.contains(&share_of("heap.fetch")));
    }
}
