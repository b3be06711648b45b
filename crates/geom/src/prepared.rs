//! Prepared geometries: decoded-once edge arrays with a per-geometry
//! segment index for repeated secondary-filter evaluation.
//!
//! The paper's `SDO_RELATE`/`SDO_WITHIN_DISTANCE` secondary filter
//! evaluates exact predicates against the *same* stored geometry for
//! every candidate the primary filter emits. The naive predicates in
//! [`crate::relate`](mod@crate::relate) re-collect `Vec<Segment>` edge lists on every call
//! and test segment pairs quadratically. [`PreparedGeometry`] amortizes
//! that work:
//!
//! * boundary segments are decoded **once** into a flat edge array,
//! * a small STR-packed bounding-box hierarchy ([`SegIndex`]) over the
//!   edges answers "which segments can touch this rectangle" in
//!   `O(log n + k)` with a fixed-size traversal stack — no per-query
//!   allocation,
//! * a representative interior point per polygon element is computed
//!   once and cached.
//!
//! With both sides prepared, `intersects` / `covered_by` /
//! `within_distance` drop from `O(n·m)` segment tests to
//! `O((n + m)·log)` candidate probes, and the steady-state
//! secondary-filter loop performs no heap allocation.
//!
//! ## Equivalence with the naive predicates
//!
//! Every fast path funnels its candidates into the *same*
//! [`Segment`]/ring primitives the naive code uses, so prepared results
//! match `relate`/`within_distance` exactly as long as the candidate
//! set is a superset of the pairs the naive code tests:
//!
//! * point-on-boundary probes pad the query by [`EPS`], the exact
//!   absolute bound `Segment::contains_point` enforces;
//! * ray-cast point location counts the same half-open edge crossings
//!   as `Ring::locate_point`; parity over exterior-plus-hole edges
//!   equals the sequential exterior/holes logic of
//!   `Polygon::locate_point` for validly nested rings (holes inside the
//!   exterior, mutually disjoint — what [`crate::validate`] enforces);
//! * segment-pair probes that mirror a bbox-prefiltered naive loop
//!   (`segments_intersect_filtered`, `crosses_out_of_polygon`) query
//!   with the raw segment bbox and reproduce the identical pair set;
//! * segment-pair probes that mirror an *unfiltered* naive loop
//!   (`lines_intersect`) pad the query by `join_pad`: the orientation
//!   tolerance can let `Segment::intersects` accept pairs whose bboxes
//!   are disjoint by up to roughly `EPS * extent / min_edge_length`,
//!   and the pad dominates that band (clamping to the full extent, i.e.
//!   a plain scan, for degenerate inputs). Extra candidates only cost
//!   time — the exact segment test runs afterwards.

use crate::geometry::Geometry;
use crate::point::Point;
use crate::polygon::{PointLocation, Polygon, Ring};
use crate::rect::Rect;
use crate::relate::RelateMask;
use crate::segment::Segment;
use crate::EPS;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// Fanout of the packed segment-index hierarchy. Sixteen keeps the
/// tree two levels deep for the ring sizes validation sees (~10k
/// edges) while leaf groups still scan in a few cache lines.
const FAN: usize = 16;

/// Edge count below which `Ring::is_simple` keeps its quadratic scan;
/// building an index does not pay for itself under this.
pub(crate) const SIMPLE_SCAN_CUTOFF: usize = 48;

// ---------------------------------------------------------------------------
// Segment index
// ---------------------------------------------------------------------------

/// A static STR-packed bounding-box hierarchy over a segment array.
///
/// Built once per prepared geometry (or per validated ring); queries
/// descend with a fixed-size stack and never allocate. The index stores
/// raw (unpadded) segment bboxes — callers pad the *query* rectangle to
/// the tolerance their probe needs.
pub struct SegIndex {
    /// Segment index (into the caller's edge array) at each packed
    /// leaf position.
    perm: Vec<u32>,
    /// Segment bbox at each packed leaf position.
    leaf: Vec<Rect>,
    /// The leaf bboxes again as four parallel coordinate arrays, so a
    /// leaf run can be prefiltered four boxes per AVX2 compare (the
    /// SIMD bbox prefilter; unused on non-AVX2 hosts).
    lmin_x: Vec<f64>,
    lmin_y: Vec<f64>,
    lmax_x: Vec<f64>,
    lmax_y: Vec<f64>,
    /// `levels[0]` groups `FAN` leaves per node, `levels[k]` groups
    /// `FAN` nodes of `levels[k-1]`; the last level has at most `FAN`
    /// nodes and acts as the root's children.
    levels: Vec<Vec<Rect>>,
}

impl SegIndex {
    /// Build over one bbox per segment.
    pub fn build(boxes: &[Rect]) -> SegIndex {
        let n = boxes.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        if n > FAN {
            // Sort-Tile-Recursive: slice by center x, order each
            // vertical slice by center y, pack consecutive runs.
            perm.sort_unstable_by(|&i, &j| {
                boxes[i as usize].center().x.total_cmp(&boxes[j as usize].center().x)
            });
            let pages = n.div_ceil(FAN);
            let slices = (pages as f64).sqrt().ceil() as usize;
            let per_slice = n.div_ceil(slices.max(1));
            for chunk in perm.chunks_mut(per_slice.max(1)) {
                chunk.sort_unstable_by(|&i, &j| {
                    boxes[i as usize].center().y.total_cmp(&boxes[j as usize].center().y)
                });
            }
        }
        let leaf: Vec<Rect> = perm.iter().map(|&i| boxes[i as usize]).collect();
        let lmin_x = leaf.iter().map(|r| r.min_x).collect();
        let lmin_y = leaf.iter().map(|r| r.min_y).collect();
        let lmax_x = leaf.iter().map(|r| r.max_x).collect();
        let lmax_y = leaf.iter().map(|r| r.max_y).collect();
        let mut levels: Vec<Vec<Rect>> = Vec::new();
        let mut cur: &[Rect] = &leaf;
        loop {
            if cur.len() <= FAN {
                break;
            }
            let parents: Vec<Rect> = cur
                .chunks(FAN)
                .map(|c| c.iter().fold(Rect::EMPTY, |acc, r| acc.union(r)))
                .collect();
            levels.push(parents);
            // Re-borrow from `levels` so the loop-carried reference
            // does not outlive the temporary.
            cur = levels.last().unwrap();
        }
        SegIndex { perm, leaf, lmin_x, lmin_y, lmax_x, lmax_y, levels }
    }

    /// Number of indexed segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaf.len()
    }

    /// True when the index holds no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaf.is_empty()
    }

    /// Visit every segment whose bbox intersects `q`; the visitor gets
    /// the segment's index in the original edge array and may break
    /// early. Returns `true` when the visitor broke.
    ///
    /// Traversal uses a fixed stack: depth is `log_FAN(n)` (≤ 8 for
    /// `u32` counts) and at most `FAN` children are pending per level,
    /// so 160 slots can never overflow.
    pub fn query<F>(&self, q: &Rect, mut visit: F) -> bool
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        if self.levels.is_empty() {
            return self.scan_leaves(q, 0, self.leaf.len(), &mut visit);
        }
        let top = self.levels.len() - 1;
        let mut stack = [(0u8, 0u32); 160];
        let mut sp = 0usize;
        for (i, r) in self.levels[top].iter().enumerate() {
            if r.intersects(q) {
                stack[sp] = (top as u8, i as u32);
                sp += 1;
            }
        }
        while sp > 0 {
            sp -= 1;
            let (lvl, idx) = stack[sp];
            let start = idx as usize * FAN;
            if lvl == 0 {
                let end = (start + FAN).min(self.leaf.len());
                if self.scan_leaves(q, start, end, &mut visit) {
                    return true;
                }
            } else {
                let children = &self.levels[lvl as usize - 1];
                let end = (start + FAN).min(children.len());
                for (off, child) in children[start..end].iter().enumerate() {
                    if child.intersects(q) {
                        stack[sp] = (lvl - 1, (start + off) as u32);
                        sp += 1;
                    }
                }
            }
        }
        false
    }

    /// Visit leaf positions `start..end` whose bbox intersects `q`, in
    /// ascending position order. On AVX2 hosts the bbox prefilter runs
    /// four boxes per compare over the SoA arrays; hit order, visited
    /// set, and early-break behaviour are identical to the scalar loop.
    fn scan_leaves<F>(&self, q: &Rect, start: usize, end: usize, visit: &mut F) -> bool
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::dispatched() == crate::simd::SimdIsa::Avx2 {
            // An `unsafe fn` call, guarded by the runtime AVX2 check.
            return unsafe { self.scan_leaves_avx2(q, start, end, visit) };
        }
        for pos in start..end {
            if self.leaf[pos].intersects(q) && visit(self.perm[pos]).is_break() {
                return true;
            }
        }
        false
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_leaves_avx2<F>(&self, q: &Rect, start: usize, end: usize, visit: &mut F) -> bool
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        use core::arch::x86_64::*;
        let qminx = _mm256_set1_pd(q.min_x);
        let qminy = _mm256_set1_pd(q.min_y);
        let qmaxx = _mm256_set1_pd(q.max_x);
        let qmaxy = _mm256_set1_pd(q.max_y);
        let mut pos = start;
        while pos + 4 <= end {
            let minx = _mm256_loadu_pd(self.lmin_x.as_ptr().add(pos));
            let miny = _mm256_loadu_pd(self.lmin_y.as_ptr().add(pos));
            let maxx = _mm256_loadu_pd(self.lmax_x.as_ptr().add(pos));
            let maxy = _mm256_loadu_pd(self.lmax_y.as_ptr().add(pos));
            let m = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(minx, qmaxx),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(qminx, maxx),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(miny, qmaxy),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(qminy, maxy),
                ),
            );
            let mut bits = _mm256_movemask_pd(m) as u32;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                if visit(self.perm[pos + lane]).is_break() {
                    return true;
                }
                bits &= bits - 1;
            }
            pos += 4;
        }
        while pos < end {
            if self.leaf[pos].intersects(q) && visit(self.perm[pos]).is_break() {
                return true;
            }
            pos += 1;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Prepared geometry
// ---------------------------------------------------------------------------

/// Segment endpoints as four parallel coordinate arrays, feeding the
/// vectorized ray-cast crossing kernel four edges per AVX2 iteration.
#[derive(Default)]
struct SegSoa {
    ax: Vec<f64>,
    ay: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
}

impl SegSoa {
    fn from_segs(segs: &[Segment]) -> SegSoa {
        SegSoa {
            ax: segs.iter().map(|s| s.a.x).collect(),
            ay: segs.iter().map(|s| s.a.y).collect(),
            bx: segs.iter().map(|s| s.b.x).collect(),
            by: segs.iter().map(|s| s.b.y).collect(),
        }
    }
}

/// Edge count up to which polygon point location scans every edge with
/// the SIMD crossing kernel instead of descending the segment index:
/// at 4 edges per compare the full scan beats the indexed strip query
/// comfortably in this range, and the arrays stay cache-resident.
const SIMD_LOCATE_CUTOFF: usize = 1024;

/// One simple (non-multi) element of a prepared geometry.
struct PrepElem {
    /// The element itself (points/linestring/polygon — never `Multi*`).
    geom: Geometry,
    /// Element bbox.
    bbox: Rect,
    /// Decoded edges: linestring segments, or polygon boundary segments
    /// in `boundary_segments()` order (exterior ring then holes).
    segs: Vec<Segment>,
    /// `segs` again in SoA form for the vectorized crossing kernel.
    soa: SegSoa,
    /// Index over `segs`.
    index: SegIndex,
    /// Representative interior point, polygons only, computed on first
    /// use.
    interior: OnceLock<Point>,
}

/// Lazily built per-geometry acceleration state.
struct Shape {
    elems: Vec<PrepElem>,
    /// Shortest edge across all elements (`INFINITY` for point-only
    /// geometries); feeds the conservative [`join_pad`].
    min_len: f64,
}

/// A geometry plus cached acceleration structures for repeated exact
/// predicate evaluation (the paper's secondary filter).
///
/// Construction is cheap — the edge arrays and segment index are built
/// on the first predicate call (`OnceLock`), so callers that only ever
/// run the primary filter pay nothing.
pub struct PreparedGeometry {
    geom: Arc<Geometry>,
    bbox: Rect,
    shape: OnceLock<Shape>,
}

impl PreparedGeometry {
    /// Wrap a geometry; no index is built until a predicate runs.
    pub fn new(geom: Geometry) -> Self {
        Self::from_arc(Arc::new(geom))
    }

    /// Wrap a shared geometry without cloning its coordinate data
    /// (buffer caches hand out `Arc<Geometry>`).
    pub fn from_arc(geom: Arc<Geometry>) -> Self {
        let bbox = geom.bbox();
        PreparedGeometry { geom, bbox, shape: OnceLock::new() }
    }

    /// The wrapped geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Cached bounding box.
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    fn shape(&self) -> &Shape {
        self.shape.get_or_init(|| {
            let mut min_len = f64::INFINITY;
            let elems = self
                .geom
                .elements()
                .into_iter()
                .map(|e| {
                    let segs: Vec<Segment> = match &e {
                        Geometry::Point(_) => Vec::new(),
                        Geometry::LineString(l) => l.segments().collect(),
                        Geometry::Polygon(p) => p.boundary_segments().collect(),
                        _ => unreachable!("elements() yields simple geometries"),
                    };
                    for s in &segs {
                        min_len = min_len.min(s.length());
                    }
                    let boxes: Vec<Rect> = segs.iter().map(|s| s.bbox()).collect();
                    PrepElem {
                        bbox: e.bbox(),
                        index: SegIndex::build(&boxes),
                        soa: SegSoa::from_segs(&segs),
                        segs,
                        geom: e,
                        interior: OnceLock::new(),
                    }
                })
                .collect();
            Shape { elems, min_len }
        })
    }

    /// Cached representative interior point of the first polygon
    /// element (`None` for point/line geometries).
    pub fn interior_point(&self) -> Option<Point> {
        self.shape().elems.iter().find_map(|e| match &e.geom {
            Geometry::Polygon(p) => {
                Some(*e.interior.get_or_init(|| crate::relate::interior_point(p)))
            }
            _ => None,
        })
    }

    /// Prepared `ANYINTERACT`: equals [`crate::relate::intersects`].
    pub fn intersects(&self, other: &PreparedGeometry) -> bool {
        if !self.bbox.intersects(&other.bbox) {
            return false;
        }
        let (sa, sb) = (self.shape(), other.shape());
        let pad = join_pad(self, other);
        sa.elems.iter().any(|ea| sb.elems.iter().any(|eb| elem_intersects(ea, eb, pad)))
    }

    /// Prepared covered-by: equals [`crate::relate::covered_by`]
    /// (`self ⊆ other`, closed sense).
    pub fn covered_by(&self, other: &PreparedGeometry) -> bool {
        if self.bbox.is_empty() {
            return false;
        }
        if !other.bbox.contains_rect(&self.bbox) {
            return false;
        }
        let (sa, sb) = (self.shape(), other.shape());
        sa.elems.iter().all(|ea| sb.elems.iter().any(|eb| elem_covered_by(ea, eb)))
    }

    /// Prepared boundary interaction: equals
    /// [`crate::relate::boundaries_interact`].
    pub fn boundaries_interact(&self, other: &PreparedGeometry) -> bool {
        let (sa, sb) = (self.shape(), other.shape());
        let a_has_segs = sa.elems.iter().any(|e| !e.segs.is_empty());
        let b_has_segs = sb.elems.iter().any(|e| !e.segs.is_empty());
        match (a_has_segs, b_has_segs) {
            (false, false) => self.intersects(other),
            (false, true) => vertices_touch_segments(sa, sb),
            (true, false) => vertices_touch_segments(sb, sa),
            (true, true) => {
                // Same pair set as `segments_intersect_filtered` over
                // the flattened segment arrays: raw-bbox candidates,
                // exact test.
                for ea in &sa.elems {
                    for s in &ea.segs {
                        let q = s.bbox();
                        for eb in &sb.elems {
                            if seg_hits_index(s, &q, eb, |s, t| s.intersects(t)) {
                                return true;
                            }
                        }
                    }
                }
                false
            }
        }
    }

    /// Prepared within-distance: equals
    /// [`crate::relate::within_distance`].
    pub fn within_distance(&self, other: &PreparedGeometry, d: f64) -> bool {
        if d <= 0.0 {
            return self.intersects(other);
        }
        if self.bbox.mindist(&other.bbox) > d + EPS {
            return false;
        }
        let (sa, sb) = (self.shape(), other.shape());
        // `geometry_distance` is a min over element pairs; `min <= d`
        // iff some pair is within `d`.
        let reach = d + EPS + join_pad(self, other);
        sa.elems.iter().any(|ea| sb.elems.iter().any(|eb| elem_within(ea, eb, d, reach)))
    }

    /// Prepared single-mask relate: equals [`crate::relate::relate`].
    ///
    /// `TOUCH` and `OVERLAP` need interior-interior analysis that the
    /// index does not accelerate; they evaluate their containment and
    /// intersection terms through the prepared paths and fall back to
    /// the naive `interiors_intersect` for the rest.
    pub fn relate(&self, other: &PreparedGeometry, mask: RelateMask) -> bool {
        match mask {
            RelateMask::AnyInteract => self.intersects(other),
            RelateMask::Disjoint => !self.intersects(other),
            RelateMask::Inside => self.covered_by(other) && !self.boundaries_interact(other),
            RelateMask::Contains => other.covered_by(self) && !self.boundaries_interact(other),
            RelateMask::CoveredBy => {
                self.covered_by(other) && self.boundaries_interact(other) && !other.covered_by(self)
            }
            RelateMask::Covers => {
                other.covered_by(self) && self.boundaries_interact(other) && !self.covered_by(other)
            }
            RelateMask::Touch => {
                self.intersects(other)
                    && !crate::relate::interiors_intersect(&self.geom, &other.geom)
            }
            RelateMask::Overlap => {
                crate::relate::interiors_intersect(&self.geom, &other.geom)
                    && !self.covered_by(other)
                    && !other.covered_by(self)
            }
            RelateMask::Equal => self.covered_by(other) && other.covered_by(self),
        }
    }

    /// Prepared mask union: equals [`crate::relate::relate_any`].
    pub fn relate_any(&self, other: &PreparedGeometry, masks: &[RelateMask]) -> bool {
        masks.iter().any(|m| self.relate(other, *m))
    }

    /// Prepared point cover test: equals [`Geometry::covers_point`].
    pub fn covers_point(&self, p: &Point) -> bool {
        self.shape().elems.iter().any(|e| elem_covers_point(e, p))
    }
}

/// Conservative query padding for segment-pair probes that mirror an
/// *unfiltered* naive loop. See the module docs: the orientation
/// tolerance admits "intersections" between segments whose bboxes are
/// disjoint by up to ~`EPS * extent / min_edge_length`; clamped to the
/// combined extent so degenerate edges degrade to a full scan, never a
/// missed pair.
fn join_pad(a: &PreparedGeometry, b: &PreparedGeometry) -> f64 {
    let u = a.bbox.union(&b.bbox);
    let extent = (u.width() + u.height()).max(1.0);
    let min_len = a.shape().min_len.min(b.shape().min_len).max(EPS);
    (EPS * 8.0 * (1.0 + extent) * (1.0 + 1.0 / min_len)).min(extent)
}

/// `a`'s vertices against `b`'s segments — the point-side arm of
/// `boundaries_interact`. Query pads by `EPS`, the exact
/// `Segment::contains_point` bbox slack.
fn vertices_touch_segments(points_side: &Shape, segs_side: &Shape) -> bool {
    points_side.elems.iter().any(|ea| {
        vertex_iter(&ea.geom).any(|p| {
            let q = point_query(&p);
            segs_side.elems.iter().any(|eb| index_any(eb, &q, |t| t.contains_point(&p)))
        })
    })
}

/// Vertices of a simple element without allocating.
fn vertex_iter(g: &Geometry) -> impl Iterator<Item = Point> + '_ {
    // Chained option iterators keep this allocation-free; exactly one
    // arm is non-empty per variant.
    let pt = match g {
        Geometry::Point(p) => Some(*p),
        _ => None,
    };
    let line = match g {
        Geometry::LineString(l) => Some(l.points().iter().copied()),
        _ => None,
    };
    let poly = match g {
        Geometry::Polygon(p) => Some(
            p.exterior()
                .points()
                .iter()
                .chain(p.holes().iter().flat_map(|h| h.points().iter()))
                .copied(),
        ),
        _ => None,
    };
    pt.into_iter().chain(line.into_iter().flatten()).chain(poly.into_iter().flatten())
}

/// Query rectangle for "which segments can contain this point":
/// `Segment::contains_point` accepts points within `EPS` of the
/// segment bbox, so an `EPS` pad is exact.
#[inline]
fn point_query(p: &Point) -> Rect {
    Rect::new(p.x - EPS, p.y - EPS, p.x + EPS, p.y + EPS)
}

/// True when any indexed segment of `e` intersecting `q` satisfies
/// `test`.
#[inline]
fn index_any(e: &PrepElem, q: &Rect, mut test: impl FnMut(&Segment) -> bool) -> bool {
    e.index.query(q, |j| {
        if test(&e.segs[j as usize]) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
}

/// True when `s` matches any of `e`'s segments near `q` under `test`.
#[inline]
fn seg_hits_index(
    s: &Segment,
    q: &Rect,
    e: &PrepElem,
    mut test: impl FnMut(&Segment, &Segment) -> bool,
) -> bool {
    index_any(e, q, |t| test(s, t))
}

/// Indexed equivalent of `Ring`/`Polygon` point location over one
/// polygon element: ray-cast parity across every boundary edge with
/// the same half-open crossing rule, boundary class first.
///
/// On AVX2 hosts with at most [`SIMD_LOCATE_CUTOFF`] edges the kernel
/// scans *every* edge four lanes at a time instead of descending the
/// index. Equivalence: the index's strip query visits a superset of
/// the contributing edges — a straddling edge whose crossing satisfies
/// `x_at > p.x` always intersects the strip (its bbox reaches past
/// `p.x` at height `p.y`), and every `contains_point` candidate
/// intersects the `EPS`-padded probe box — so parity and the
/// boundary class agree between the two scans.
fn elem_locate_poly(e: &PrepElem, p: &Point) -> PointLocation {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::dispatched() == crate::simd::SimdIsa::Avx2
        && !e.segs.is_empty()
        && e.segs.len() <= SIMD_LOCATE_CUTOFF
    {
        return unsafe { elem_locate_poly_avx2(e, p) };
    }
    let q = Rect::new(p.x - EPS, p.y - EPS, f64::INFINITY, p.y + EPS);
    let mut on_boundary = false;
    let mut inside = false;
    e.index.query(&q, |j| {
        let s = &e.segs[j as usize];
        if s.contains_point(p) {
            on_boundary = true;
            return ControlFlow::Break(());
        }
        if (s.a.y > p.y) != (s.b.y > p.y) {
            let x_at = s.a.x + (p.y - s.a.y) / (s.b.y - s.a.y) * (s.b.x - s.a.x);
            if x_at > p.x {
                inside = !inside;
            }
        }
        ControlFlow::Continue(())
    });
    if on_boundary {
        PointLocation::OnBoundary
    } else if inside {
        PointLocation::Inside
    } else {
        PointLocation::Outside
    }
}

/// Full-scan SIMD point location: the half-open ray-cast crossing test
/// four edges per iteration, with a vectorized bbox prefilter feeding
/// boundary candidates into the exact `Segment::contains_point`.
///
/// The per-lane crossing arithmetic (`x_at = ax + (py-ay)/(by-ay)*(bx-ax)`)
/// is the identical IEEE 754 operation sequence as the scalar path, so
/// each lane's toggle decision is bit-identical; non-straddling lanes
/// may divide by zero but their inf/NaN results are masked out
/// (`_CMP_GT_OQ` is false on NaN).
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn elem_locate_poly_avx2(e: &PrepElem, p: &Point) -> PointLocation {
    use core::arch::x86_64::*;
    let n = e.segs.len();
    let px = _mm256_set1_pd(p.x);
    let py = _mm256_set1_pd(p.y);
    let eps = _mm256_set1_pd(EPS);
    let mut crossings = 0u32;
    let mut i = 0;
    while i + 4 <= n {
        let ax = _mm256_loadu_pd(e.soa.ax.as_ptr().add(i));
        let ay = _mm256_loadu_pd(e.soa.ay.as_ptr().add(i));
        let bx = _mm256_loadu_pd(e.soa.bx.as_ptr().add(i));
        let by = _mm256_loadu_pd(e.soa.by.as_ptr().add(i));
        // Boundary candidates: p inside the EPS-padded edge bbox.
        let minx = _mm256_sub_pd(_mm256_min_pd(ax, bx), eps);
        let maxx = _mm256_add_pd(_mm256_max_pd(ax, bx), eps);
        let miny = _mm256_sub_pd(_mm256_min_pd(ay, by), eps);
        let maxy = _mm256_add_pd(_mm256_max_pd(ay, by), eps);
        let near = _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(minx, px),
                _mm256_cmp_pd::<_CMP_LE_OQ>(px, maxx),
            ),
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(miny, py),
                _mm256_cmp_pd::<_CMP_LE_OQ>(py, maxy),
            ),
        );
        let mut cand = _mm256_movemask_pd(near) as u32;
        while cand != 0 {
            let lane = cand.trailing_zeros() as usize;
            if e.segs[i + lane].contains_point(p) {
                return PointLocation::OnBoundary;
            }
            cand &= cand - 1;
        }
        // Half-open crossing: (ay > py) != (by > py), toggle on
        // x_at > px.
        let a_above = _mm256_cmp_pd::<_CMP_GT_OQ>(ay, py);
        let b_above = _mm256_cmp_pd::<_CMP_GT_OQ>(by, py);
        let straddle = _mm256_xor_pd(a_above, b_above);
        let t = _mm256_div_pd(_mm256_sub_pd(py, ay), _mm256_sub_pd(by, ay));
        let x_at = _mm256_add_pd(ax, _mm256_mul_pd(t, _mm256_sub_pd(bx, ax)));
        let toggles = _mm256_and_pd(straddle, _mm256_cmp_pd::<_CMP_GT_OQ>(x_at, px));
        crossings += (_mm256_movemask_pd(toggles) as u32).count_ones();
        i += 4;
    }
    for s in &e.segs[i..] {
        if s.contains_point(p) {
            return PointLocation::OnBoundary;
        }
        if (s.a.y > p.y) != (s.b.y > p.y) {
            let x_at = s.a.x + (p.y - s.a.y) / (s.b.y - s.a.y) * (s.b.x - s.a.x);
            if x_at > p.x {
                crossings += 1;
            }
        }
    }
    if crossings & 1 == 1 {
        PointLocation::Inside
    } else {
        PointLocation::Outside
    }
}

/// Indexed `covers_point` for one simple element.
fn elem_covers_point(e: &PrepElem, p: &Point) -> bool {
    match &e.geom {
        Geometry::Point(q) => q.almost_eq(p),
        Geometry::LineString(_) => index_any(e, &point_query(p), |s| s.contains_point(p)),
        Geometry::Polygon(_) => elem_locate_poly(e, p) != PointLocation::Outside,
        _ => unreachable!("elements are simple"),
    }
}

/// Indexed `intersects_simple`.
fn elem_intersects(ea: &PrepElem, eb: &PrepElem, pad: f64) -> bool {
    use Geometry::*;
    match (&ea.geom, &eb.geom) {
        (Point(p), Point(q)) => p.almost_eq(q),
        (Point(p), LineString(_)) => elem_covers_point(eb, p),
        (LineString(_), Point(p)) => elem_covers_point(ea, p),
        (Point(p), Polygon(_)) => elem_covers_point(eb, p),
        (Polygon(_), Point(p)) => elem_covers_point(ea, p),
        // `lines_intersect` has no bbox prefilter — pad the candidate
        // query so tolerance-admitted pairs survive.
        (LineString(_), LineString(_)) => seg_join_intersects(ea, eb, pad),
        (LineString(l), Polygon(_)) => {
            l.points().iter().any(|p| elem_locate_poly(eb, p) != PointLocation::Outside)
                || seg_join_intersects(ea, eb, pad)
        }
        (Polygon(_), LineString(l)) => {
            l.points().iter().any(|p| elem_locate_poly(ea, p) != PointLocation::Outside)
                || seg_join_intersects(eb, ea, pad)
        }
        (Polygon(p1), Polygon(p2)) => {
            // Mirrors `polygons_intersect`: element bbox check, exterior
            // vertices each way, then the bbox-prefiltered boundary
            // join (raw-bbox query — identical pair set).
            if !ea.bbox.intersects(&eb.bbox) {
                return false;
            }
            if p1
                .exterior()
                .points()
                .iter()
                .any(|p| elem_locate_poly(eb, p) != PointLocation::Outside)
                || p2
                    .exterior()
                    .points()
                    .iter()
                    .any(|p| elem_locate_poly(ea, p) != PointLocation::Outside)
            {
                return true;
            }
            seg_join_intersects(ea, eb, 0.0)
        }
        _ => unreachable!("elements are simple"),
    }
}

/// Any segment of `ea` intersecting any segment of `eb`, probing the
/// smaller side against the larger side's index.
fn seg_join_intersects(ea: &PrepElem, eb: &PrepElem, pad: f64) -> bool {
    let (probe, target) = if ea.segs.len() <= eb.segs.len() { (ea, eb) } else { (eb, ea) };
    probe.segs.iter().any(|s| {
        let q = s.bbox().expanded(pad);
        seg_hits_index(s, &q, target, |s, t| s.intersects(t))
    })
}

/// Indexed `covered_by_simple`.
fn elem_covered_by(ea: &PrepElem, eb: &PrepElem) -> bool {
    use Geometry::*;
    match (&ea.geom, &eb.geom) {
        (Point(p), _) => elem_covers_point(eb, p),
        (LineString(_), Point(_)) | (Polygon(_), Point(_)) | (Polygon(_), LineString(_)) => false,
        (LineString(l1), LineString(_)) => {
            l1.points().iter().all(|p| elem_covers_point(eb, p))
                && ea.segs.iter().all(|s| {
                    let mid = (s.a + s.b) * 0.5;
                    elem_covers_point(eb, &mid)
                })
        }
        (LineString(l), Polygon(_)) => {
            l.points().iter().all(|p| elem_locate_poly(eb, p) != PointLocation::Outside)
                && !elem_crosses_out(&ea.segs, eb)
        }
        (Polygon(_), Polygon(_)) => elem_polygon_covered_by(ea, eb),
        _ => unreachable!("elements are simple"),
    }
}

/// Indexed `crosses_out_of_polygon`: a proper boundary crossing
/// (raw-bbox candidates, like the naive prefilter) or a midpoint
/// falling outside.
fn elem_crosses_out(segs: &[Segment], poly_elem: &PrepElem) -> bool {
    for s in segs {
        let q = s.bbox();
        if seg_hits_index(s, &q, poly_elem, |s, t| s.crosses_properly(t)) {
            return true;
        }
        if elem_locate_poly(poly_elem, &((s.a + s.b) * 0.5)) == PointLocation::Outside {
            return true;
        }
    }
    false
}

/// Indexed `polygon_covered_by`.
fn elem_polygon_covered_by(ea: &PrepElem, eb: &PrepElem) -> bool {
    let a = match &ea.geom {
        Geometry::Polygon(p) => p,
        _ => unreachable!(),
    };
    let b = match &eb.geom {
        Geometry::Polygon(p) => p,
        _ => unreachable!(),
    };
    if !a.exterior().points().iter().all(|p| elem_locate_poly(eb, p) != PointLocation::Outside) {
        return false;
    }
    for h in a.holes() {
        if !h.points().iter().all(|p| elem_locate_poly(eb, p) != PointLocation::Outside) {
            return false;
        }
    }
    if elem_crosses_out(&ea.segs, eb) {
        return false;
    }
    // A hole of b strictly inside a would punch uncovered area out of a.
    for h in b.holes() {
        if h.points().iter().any(|p| elem_locate_poly(ea, p) == PointLocation::Inside) {
            return false;
        }
        if h.points().iter().all(|p| elem_locate_poly(ea, p) != PointLocation::Outside) {
            // Rare vertex-coincident case; mirror the naive centroid
            // probe (this branch may allocate — it is off the
            // steady-state ANYINTERACT/distance path).
            let c =
                crate::algorithms::centroid(&Geometry::Polygon(Polygon::from_exterior(h.clone())));
            if elem_locate_poly(ea, &c) == PointLocation::Inside
                && elem_locate_poly(eb, &c) == PointLocation::Outside
            {
                return false;
            }
        }
    }
    true
}

/// Indexed boolean form of `geometry_distance(ea, eb) <= d + EPS`.
///
/// `reach` is the candidate-query expansion: `d + EPS` (distance probes
/// are exactly bounded by bbox mindist) plus the tolerance pad for the
/// `Segment::intersects` zero-distance shortcut.
fn elem_within(ea: &PrepElem, eb: &PrepElem, d: f64, reach: f64) -> bool {
    use Geometry::*;
    let lim = d + EPS;
    match (&ea.geom, &eb.geom) {
        (Point(p), Point(q)) => p.dist(q) <= lim,
        (Point(p), LineString(_)) => point_near_segs(p, eb, lim, reach),
        (LineString(_), Point(p)) => point_near_segs(p, ea, lim, reach),
        (Point(p), Polygon(_)) => point_near_poly(p, eb, lim, reach),
        (Polygon(_), Point(p)) => point_near_poly(p, ea, lim, reach),
        (LineString(_), LineString(_)) => segs_near(ea, eb, lim, reach),
        (LineString(l), Polygon(_)) => {
            l.points().iter().any(|p| elem_locate_poly(eb, p) != PointLocation::Outside)
                || segs_near(ea, eb, lim, reach)
        }
        (Polygon(_), LineString(l)) => {
            l.points().iter().any(|p| elem_locate_poly(ea, p) != PointLocation::Outside)
                || segs_near(ea, eb, lim, reach)
        }
        (Polygon(p1), Polygon(p2)) => {
            p1.exterior().points().iter().any(|p| elem_locate_poly(eb, p) != PointLocation::Outside)
                || p2
                    .exterior()
                    .points()
                    .iter()
                    .any(|p| elem_locate_poly(ea, p) != PointLocation::Outside)
                || segs_near(ea, eb, lim, reach)
        }
        _ => unreachable!("elements are simple"),
    }
}

/// `LineString::dist_point(p) <= lim`, indexed.
fn point_near_segs(p: &Point, e: &PrepElem, lim: f64, reach: f64) -> bool {
    let q = Rect::new(p.x, p.y, p.x, p.y).expanded(reach);
    index_any(e, &q, |s| s.dist_point(p) <= lim)
}

/// `Polygon::dist_point(p) <= lim`, indexed.
fn point_near_poly(p: &Point, e: &PrepElem, lim: f64, reach: f64) -> bool {
    elem_locate_poly(e, p) != PointLocation::Outside || point_near_segs(p, e, lim, reach)
}

/// Any segment pair within `lim`, indexed (`segments_min_dist <= lim`).
fn segs_near(ea: &PrepElem, eb: &PrepElem, lim: f64, reach: f64) -> bool {
    let (probe, target) = if ea.segs.len() <= eb.segs.len() { (ea, eb) } else { (eb, ea) };
    probe.segs.iter().any(|s| {
        let q = s.bbox().expanded(reach);
        seg_hits_index(s, &q, target, |s, t| s.dist_segment(t) <= lim)
    })
}

// ---------------------------------------------------------------------------
// Indexed ring simplicity (validation path)
// ---------------------------------------------------------------------------

/// Index-accelerated form of `Ring::is_simple` for large rings: same
/// pair tests (`collinear_overlaps` for adjacent edges, `intersects`
/// otherwise), candidates from the segment index instead of an
/// `O(n²)` sweep.
pub(crate) fn ring_is_simple_indexed(ring: &Ring) -> bool {
    let edges: Vec<Segment> = ring.segments().collect();
    let n = edges.len();
    let boxes: Vec<Rect> = edges.iter().map(|s| s.bbox()).collect();
    let index = SegIndex::build(&boxes);
    // Pad the candidate query like `join_pad`: the naive check has no
    // bbox prefilter, so tolerance-admitted intersections between
    // bbox-disjoint edges must stay in the candidate set.
    let bb = ring.bbox();
    let extent = (bb.width() + bb.height()).max(1.0);
    let min_len = edges.iter().map(Segment::length).fold(f64::INFINITY, f64::min).max(EPS);
    let pad = (EPS * 8.0 * (1.0 + extent) * (1.0 + 1.0 / min_len)).min(extent);
    for i in 0..n {
        let q = boxes[i].expanded(pad);
        let broke = index.query(&q, |j| {
            let j = j as usize;
            if j <= i {
                return ControlFlow::Continue(());
            }
            let adjacent = j == i + 1 || (i == 0 && j == n - 1);
            let hit = if adjacent {
                edges[i].collinear_overlaps(&edges[j])
            } else {
                edges[i].intersects(&edges[j])
            };
            if hit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if broke {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relate::{self, RelateMask};
    use crate::wkt::parse_wkt;

    fn prep(wkt: &str) -> PreparedGeometry {
        PreparedGeometry::new(parse_wkt(wkt).unwrap())
    }

    fn fixtures() -> Vec<Geometry> {
        [
            "POINT(2 2)",
            "POINT(25 25)",
            "POINT(0 0)",
            "LINESTRING(0 0, 4 4, 8 0)",
            "LINESTRING(-2 1, 10 1)",
            "LINESTRING(20 20, 30 30)",
            "LINESTRING(1 1, 3 1, 3 3, 1 3, 1 1)",
            "POLYGON((0 0, 8 0, 8 8, 0 8, 0 0))",
            "POLYGON((0 0, 8 0, 8 8, 0 8, 0 0), (2 2, 6 2, 6 6, 2 6, 2 2))",
            "POLYGON((3 3, 5 3, 5 5, 3 5, 3 3))",
            "POLYGON((10 10, 14 10, 14 14, 10 14, 10 10))",
            "MULTIPOINT((2 2), (9 9))",
            "MULTILINESTRING((0 0, 4 4), (6 0, 6 9))",
            "MULTIPOLYGON(((0 0, 3 0, 3 3, 0 3, 0 0)), ((5 5, 9 5, 9 9, 5 9, 5 5)))",
        ]
        .iter()
        .map(|w| parse_wkt(w).unwrap())
        .collect()
    }

    #[test]
    fn prepared_predicates_match_naive_on_fixtures() {
        let gs = fixtures();
        let masks = [
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
        for a in &gs {
            let pa = PreparedGeometry::new(a.clone());
            for b in &gs {
                let pb = PreparedGeometry::new(b.clone());
                assert_eq!(
                    pa.intersects(&pb),
                    relate::intersects(a, b),
                    "intersects {a:?} vs {b:?}"
                );
                assert_eq!(
                    pa.covered_by(&pb),
                    relate::covered_by(a, b),
                    "covered_by {a:?} vs {b:?}"
                );
                assert_eq!(
                    pa.boundaries_interact(&pb),
                    relate::boundaries_interact(a, b),
                    "boundaries {a:?} vs {b:?}"
                );
                for m in masks {
                    assert_eq!(
                        pa.relate(&pb, m),
                        relate::relate(a, b, m),
                        "mask {m:?} {a:?} vs {b:?}"
                    );
                }
                for d in [0.0, 0.5, 2.0, 10.0, 50.0] {
                    assert_eq!(
                        pa.within_distance(&pb, d),
                        relate::within_distance(a, b, d),
                        "within {d} {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_covers_point_matches_naive() {
        let gs = fixtures();
        let probes: Vec<Point> = (-2..12)
            .flat_map(|x| (-2..12).map(move |y| Point::new(x as f64 * 0.9, y as f64 * 1.1)))
            .collect();
        for g in &gs {
            let pg = PreparedGeometry::new(g.clone());
            for p in &probes {
                assert_eq!(pg.covers_point(p), g.covers_point(p), "{g:?} at {p:?}");
            }
        }
    }

    #[test]
    fn seg_index_query_matches_linear_scan() {
        // Deterministic pseudo-random segments.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let segs: Vec<Segment> = (0..500)
            .map(|_| {
                let x = next() * 100.0;
                let y = next() * 100.0;
                Segment::new(
                    Point::new(x, y),
                    Point::new(x + next() * 10.0 - 5.0, y + next() * 10.0 - 5.0),
                )
            })
            .collect();
        let boxes: Vec<Rect> = segs.iter().map(|s| s.bbox()).collect();
        let index = SegIndex::build(&boxes);
        assert_eq!(index.len(), segs.len());
        for _ in 0..50 {
            let x = next() * 110.0 - 5.0;
            let y = next() * 110.0 - 5.0;
            let q = Rect::new(x, y, x + next() * 30.0, y + next() * 30.0);
            let mut got: Vec<u32> = Vec::new();
            index.query(&q, |i| {
                got.push(i);
                ControlFlow::Continue(())
            });
            got.sort_unstable();
            let want: Vec<u32> = boxes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.intersects(&q))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn indexed_locate_matches_polygon_locate() {
        let g = parse_wkt(
            "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2), \
             (6 6, 8 6, 8 8, 6 8, 6 6))",
        )
        .unwrap();
        let poly = match &g {
            Geometry::Polygon(p) => p.clone(),
            _ => unreachable!(),
        };
        let pg = PreparedGeometry::new(g);
        let shape = pg.shape();
        let e = &shape.elems[0];
        for xi in -10..110 {
            for yi in -10..110 {
                let p = Point::new(xi as f64 * 0.1, yi as f64 * 0.1);
                assert_eq!(elem_locate_poly(e, &p), poly.locate_point(&p), "at {p:?}");
            }
        }
    }

    #[test]
    fn locate_agrees_across_simd_cutoff() {
        // The same star-shaped outline at two resolutions: one under
        // SIMD_LOCATE_CUTOFF (full-scan SIMD path on AVX2 hosts) and
        // one over it (indexed strip-query path). Both must agree with
        // Polygon::locate_point everywhere, including boundary hits.
        for n in [64usize, 2048] {
            let pts: Vec<Point> = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64 * std::f64::consts::TAU;
                    let r = 50.0 + 10.0 * (5.0 * t).cos();
                    Point::new(r * t.cos(), r * t.sin())
                })
                .collect();
            let first = pts[0];
            let ring = Ring::new(pts).unwrap();
            let poly = Polygon::from_exterior(ring);
            let g = Geometry::Polygon(poly.clone());
            let pg = PreparedGeometry::new(g);
            let shape = pg.shape();
            let e = &shape.elems[0];
            assert_eq!(e.segs.len(), n);
            for xi in -7..7 {
                for yi in -7..7 {
                    let p = Point::new(xi as f64 * 9.7, yi as f64 * 9.3);
                    assert_eq!(elem_locate_poly(e, &p), poly.locate_point(&p), "n={n} at {p:?}");
                }
            }
            // A vertex is on the boundary in both paths.
            assert_eq!(elem_locate_poly(e, &first), PointLocation::OnBoundary, "n={n}");
        }
    }

    #[test]
    fn interior_point_cached_and_inside() {
        let pg = prep("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2))");
        let ip = pg.interior_point().unwrap();
        assert!(pg.covers_point(&ip));
        assert_eq!(pg.interior_point().unwrap(), ip, "second call must hit the cache");
        assert!(prep("LINESTRING(0 0, 1 1)").interior_point().is_none());
    }

    #[test]
    fn big_ring_is_simple_fast() {
        // ~10k-vertex near-circle: simple; the quadratic check would do
        // ~5·10⁷ segment tests here, the indexed one a few per edge.
        let n = 10_000;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = 100.0 + 3.0 * (7.0 * t).sin();
                Point::new(r * t.cos(), r * t.sin())
            })
            .collect();
        let ring = Ring::new(pts.clone()).unwrap();
        assert!(ring.is_simple());

        // Introduce one crossing far from the seam and re-check.
        let mut bad = pts;
        bad.swap(2_500, 2_502);
        let ring = Ring::new(bad).unwrap();
        assert!(!ring.is_simple());
    }

    #[test]
    fn indexed_simplicity_matches_quadratic_on_small_rings() {
        let simple = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        let bowtie = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap();
        let spike = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 0.0), // collinear backtrack over the first edge
            Point::new(2.0, 3.0),
        ])
        .unwrap();
        for r in [&simple, &bowtie, &spike] {
            assert_eq!(ring_is_simple_indexed(r), r.is_simple(), "ring {:?}", r.points());
        }
    }
}
