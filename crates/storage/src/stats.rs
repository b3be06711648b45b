//! Logical I/O and work counters.
//!
//! The paper reports wall-clock times on a specific 2003-era machine;
//! absolute seconds are not reproducible, but machine-independent work
//! counters (rows fetched, MBR tests, exact predicate evaluations) track
//! the same costs and are what the ablation experiments report.

use crate::snapshot::{get_str, get_value, put_str, put_value};
use crate::table::Table;
use crate::value::Value;
use crate::StorageError;
use bytes::{Buf, BufMut, BytesMut};
use sdo_geom::Rect;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe work counters.
///
/// Counters are monotone and relaxed — they are observability, not
/// synchronization. Clone-by-`Arc` so parallel table-function slaves
/// charge work to the same account.
#[derive(Debug, Default)]
pub struct Counters {
    /// Rows fetched from heap tables by rowid.
    pub row_fetches: AtomicU64,
    /// Rows produced by full-table scans.
    pub rows_scanned: AtomicU64,
    /// R-tree node reads.
    pub rtree_node_reads: AtomicU64,
    /// MBR-vs-MBR tests performed by primary filters.
    pub mbr_tests: AtomicU64,
    /// Exact geometry predicate evaluations (secondary filter).
    pub exact_tests: AtomicU64,
    /// Geometries tessellated into tiles.
    pub tessellations: AtomicU64,
    /// Transactions committed (explicit and autocommit).
    pub txn_commits: AtomicU64,
    /// Transactions rolled back.
    pub txn_aborts: AtomicU64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes_written: AtomicU64,
    /// Physical `fsync` calls issued by the WAL (group commit makes
    /// this ≤ the number of durable commits).
    pub wal_fsyncs: AtomicU64,
    /// Dead row versions dropped from heap version chains once no
    /// pinned snapshot could still see them.
    pub heap_versions_pruned: AtomicU64,
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Increment a counter by one.
    #[inline]
    pub fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for f in [
            &self.row_fetches,
            &self.rows_scanned,
            &self.rtree_node_reads,
            &self.mbr_tests,
            &self.exact_tests,
            &self.tessellations,
            &self.txn_commits,
            &self.txn_aborts,
            &self.wal_bytes_written,
            &self.wal_fsyncs,
            &self.heap_versions_pruned,
        ] {
            f.store(0, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            values: [
                Counters::get(&self.row_fetches),
                Counters::get(&self.rows_scanned),
                Counters::get(&self.rtree_node_reads),
                Counters::get(&self.mbr_tests),
                Counters::get(&self.exact_tests),
                Counters::get(&self.tessellations),
                Counters::get(&self.txn_commits),
                Counters::get(&self.txn_aborts),
                Counters::get(&self.wal_bytes_written),
                Counters::get(&self.wal_fsyncs),
                Counters::get(&self.heap_versions_pruned),
            ],
        }
    }

    /// Work done since `earlier` was snapshotted. Saturating, so a
    /// concurrent `reset` yields zeros rather than wrapping.
    pub fn diff(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        self.snapshot().diff(earlier)
    }
}

/// Names of the [`Counters`] fields, in snapshot order.
pub const COUNTER_NAMES: [&str; 11] = [
    "row_fetches",
    "rows_scanned",
    "rtree_node_reads",
    "mbr_tests",
    "exact_tests",
    "tessellations",
    "txn_commits",
    "txn_aborts",
    "wal_bytes_written",
    "wal_fsyncs",
    "heap_versions_pruned",
];

/// Immutable copy of all [`Counters`] values, used to report
/// per-operation deltas (`after.diff(&before)`) instead of absolute
/// process-lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountersSnapshot {
    /// Values in [`COUNTER_NAMES`] order.
    pub values: [u64; COUNTER_NAMES.len()],
}

impl CountersSnapshot {
    /// Element-wise saturating subtraction: the work between `earlier`
    /// and `self`.
    pub fn diff(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        let mut values = [0u64; COUNTER_NAMES.len()];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CountersSnapshot { values }
    }

    /// `(name, value)` pairs in declaration order.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        COUNTER_NAMES.iter().copied().zip(self.values).collect()
    }

    /// Look up one counter by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        COUNTER_NAMES.iter().position(|n| *n == name).map(|i| self.values[i])
    }

    /// Sum of all counters — a single scalar "work" figure.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// `true` if every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|v| *v == 0)
    }
}

/// Table-level spatial statistics estimated from a strided sample of a
/// geometry column — the optimizer-side input a partitioned spatial
/// join needs to size its grid (data extent, cardinality, typical
/// object footprint) without a full pre-pass over both inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialSample {
    /// Exact live-row count of the table (cheap: slot accounting).
    pub rows: usize,
    /// Sampled rows that held a non-empty geometry.
    pub sampled: usize,
    /// Union of the sampled MBRs ([`Rect::EMPTY`] when nothing matched).
    /// An *estimate*: outliers between sample strides may fall outside.
    pub extent: Rect,
    /// Mean MBR width over the sample.
    pub avg_width: f64,
    /// Mean MBR height over the sample.
    pub avg_height: f64,
}

impl SpatialSample {
    /// Sample up to `max_sample` live rows of `table` at a uniform slot
    /// stride and summarize the geometry MBRs found in column `column`.
    /// Rows whose column is not a geometry, or whose bounding box is
    /// empty/NaN, are skipped (they can never join). Sampled rows are
    /// charged to the table's `rows_scanned` counter like any scan.
    pub fn collect(table: &Table, column: usize, max_sample: usize) -> SpatialSample {
        let rows = table.len();
        let hwm = table.high_water_mark();
        let stride = if max_sample == 0 { hwm } else { (hwm / max_sample.max(1)).max(1) };
        let mut sampled = 0usize;
        let mut extent = Rect::EMPTY;
        let (mut sum_w, mut sum_h) = (0.0f64, 0.0f64);
        let mut slot = 0usize;
        while slot < hwm {
            // One live row (if any) per stride window.
            if let Some((_, row)) = table.scan_slots(slot, slot + stride).next() {
                if let Some(b) = row.get(column).and_then(|v| v.as_geometry()).map(|g| g.bbox()) {
                    if !b.is_empty() {
                        extent = if sampled == 0 { b } else { extent.union(&b) };
                        sum_w += b.width();
                        sum_h += b.height();
                        sampled += 1;
                    }
                }
            }
            slot += stride;
        }
        let denom = sampled.max(1) as f64;
        SpatialSample { rows, sampled, extent, avg_width: sum_w / denom, avg_height: sum_h / denom }
    }
}

// ---------------------------------------------------------------------------
// Persisted optimizer statistics
// ---------------------------------------------------------------------------

/// Grid resolution of a [`SpatialHistogram`] built by `ANALYZE`.
pub const HISTOGRAM_DIM: u32 = 32;

/// Default sample ceiling for `ANALYZE` (strided, so cost is bounded
/// regardless of table size).
pub const ANALYZE_SAMPLE: usize = 10_000;

/// Per-column scalar statistics from an `ANALYZE` sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Estimated distinct non-null values, scaled linearly from the
    /// sample and capped at the row count.
    pub ndv: u64,
    /// Estimated null count, scaled from the sample.
    pub null_count: u64,
    /// Smallest non-null sampled value (SQL ordering).
    pub min: Option<Value>,
    /// Largest non-null sampled value.
    pub max: Option<Value>,
}

/// A fixed-resolution MBR-occupancy grid over one geometry column —
/// [`SpatialSample`]'s extent/footprint summary extended with a
/// `dim × dim` count of sampled MBR *centers* per cell, which is what
/// selectivity estimation needs.
///
/// Estimators use the Minkowski trick: two rectangles intersect exactly
/// when one's center lies inside the other expanded by half the first's
/// width/height on every side. With per-cell center counts and the
/// average object extent, "how many objects intersect window W" becomes
/// "how many centers fall in W expanded by the half-extents" — a
/// partial-cell-weighted sum over the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialHistogram {
    /// Union of the sampled MBRs (the histogram's domain).
    pub extent: Rect,
    /// Grid resolution per axis.
    pub dim: u32,
    /// Row-major `dim × dim` center-point occupancy counts.
    pub counts: Vec<u32>,
    /// Mean sampled MBR width.
    pub avg_width: f64,
    /// Mean sampled MBR height.
    pub avg_height: f64,
    /// Sampled geometries contributing to `counts`.
    pub sampled: u64,
}

impl SpatialHistogram {
    /// Build a histogram from up to `max_sample` strided rows of
    /// `table`, or `None` when the column yields no usable geometry.
    pub fn collect(table: &Table, column: usize, max_sample: usize) -> Option<SpatialHistogram> {
        let hwm = table.high_water_mark();
        let stride = if max_sample == 0 { hwm } else { (hwm / max_sample.max(1)).max(1) };
        let mut boxes: Vec<Rect> = Vec::new();
        let mut slot = 0usize;
        while slot < hwm {
            if let Some((_, row)) = table.scan_slots(slot, slot + stride).next() {
                if let Some(b) = row.get(column).and_then(|v| v.as_geometry()).map(|g| g.bbox()) {
                    if !b.is_empty() {
                        boxes.push(b);
                    }
                }
            }
            slot += stride;
        }
        if boxes.is_empty() {
            return None;
        }
        let mut extent = boxes[0];
        let (mut sum_w, mut sum_h) = (0.0f64, 0.0f64);
        for b in &boxes {
            extent = extent.union(b);
            sum_w += b.width();
            sum_h += b.height();
        }
        let dim = HISTOGRAM_DIM;
        let mut counts = vec![0u32; (dim * dim) as usize];
        let cw = (extent.width() / dim as f64).max(f64::MIN_POSITIVE);
        let ch = (extent.height() / dim as f64).max(f64::MIN_POSITIVE);
        for b in &boxes {
            let c = b.center();
            let ix = (((c.x - extent.min_x) / cw) as u32).min(dim - 1);
            let iy = (((c.y - extent.min_y) / ch) as u32).min(dim - 1);
            counts[(iy * dim + ix) as usize] += 1;
        }
        let n = boxes.len() as f64;
        Some(SpatialHistogram {
            extent,
            dim,
            counts,
            avg_width: sum_w / n,
            avg_height: sum_h / n,
            sampled: boxes.len() as u64,
        })
    }

    /// Estimated number of object *centers* inside `window`, scaled to
    /// `rows` live rows. Partial cell overlaps contribute fractionally
    /// (uniformity assumption within a cell).
    pub fn centers_in(&self, window: &Rect, rows: u64) -> f64 {
        if self.sampled == 0 || rows == 0 || window.is_empty() || self.extent.is_empty() {
            return 0.0;
        }
        let dim = self.dim as usize;
        let cw = (self.extent.width() / self.dim as f64).max(f64::MIN_POSITIVE);
        let ch = (self.extent.height() / self.dim as f64).max(f64::MIN_POSITIVE);
        let scale = rows as f64 / self.sampled as f64;
        let mut sum = 0.0f64;
        for iy in 0..dim {
            let cell_min_y = self.extent.min_y + iy as f64 * ch;
            let oy = overlap_1d(cell_min_y, cell_min_y + ch, window.min_y, window.max_y);
            if oy <= 0.0 {
                continue;
            }
            for ix in 0..dim {
                let count = self.counts[iy * dim + ix];
                if count == 0 {
                    continue;
                }
                let cell_min_x = self.extent.min_x + ix as f64 * cw;
                let ox = overlap_1d(cell_min_x, cell_min_x + cw, window.min_x, window.max_x);
                if ox <= 0.0 {
                    continue;
                }
                sum += count as f64 * (ox / cw) * (oy / ch);
            }
        }
        (sum * scale).min(rows as f64)
    }

    /// Estimated rows whose MBR intersects `window` (window-query /
    /// `SDO_FILTER` selectivity): Minkowski-expand the window by the
    /// average half-extents, then count centers.
    pub fn estimate_window(&self, window: &Rect, rows: u64) -> f64 {
        if window.is_empty() {
            return 0.0;
        }
        let grown = Rect::new(
            window.min_x - self.avg_width / 2.0,
            window.min_y - self.avg_height / 2.0,
            window.max_x + self.avg_width / 2.0,
            window.max_y + self.avg_height / 2.0,
        );
        self.centers_in(&grown, rows)
    }

    /// Estimated rows within `distance` of `window`'s boundary or
    /// interior (`SDO_WITHIN_DISTANCE` selectivity).
    pub fn estimate_within_distance(&self, window: &Rect, distance: f64, rows: u64) -> f64 {
        if window.is_empty() {
            return 0.0;
        }
        let d = distance.max(0.0);
        let grown =
            Rect::new(window.min_x - d, window.min_y - d, window.max_x + d, window.max_y + d);
        self.estimate_window(&grown, rows)
    }

    /// Estimated MBR-intersecting pairs between this histogram (scaled
    /// to `rows`) and `other` (scaled to `other_rows`) — the primary
    /// filter output cardinality of a spatial join.
    ///
    /// For each occupied cell, objects are assumed at the cell center
    /// with the average extent; partners are the other side's centers
    /// inside the combined Minkowski box `(w₁+w₂) × (h₁+h₂)` around
    /// that center.
    pub fn estimate_join_pairs(&self, rows: u64, other: &SpatialHistogram, other_rows: u64) -> f64 {
        if self.sampled == 0 || other.sampled == 0 || rows == 0 || other_rows == 0 {
            return 0.0;
        }
        let dim = self.dim as usize;
        let cw = (self.extent.width() / self.dim as f64).max(f64::MIN_POSITIVE);
        let ch = (self.extent.height() / self.dim as f64).max(f64::MIN_POSITIVE);
        let scale = rows as f64 / self.sampled as f64;
        let half_w = (self.avg_width + other.avg_width) / 2.0;
        let half_h = (self.avg_height + other.avg_height) / 2.0;
        let mut pairs = 0.0f64;
        for iy in 0..dim {
            for ix in 0..dim {
                let count = self.counts[iy * dim + ix];
                if count == 0 {
                    continue;
                }
                let cx = self.extent.min_x + (ix as f64 + 0.5) * cw;
                let cy = self.extent.min_y + (iy as f64 + 0.5) * ch;
                // Partner-center window: the cell itself dilated by the
                // combined half-extents (objects sit anywhere in the
                // cell, so the window covers the cell, not just its
                // center point).
                let win = Rect::new(
                    cx - cw / 2.0 - half_w,
                    cy - ch / 2.0 - half_h,
                    cx + cw / 2.0 + half_w,
                    cy + ch / 2.0 + half_h,
                );
                // Correct for the window being a whole cell wide: the
                // per-object window is (cw-shrunk) — approximate by the
                // ratio of the object window to the dilated cell window.
                let obj_area =
                    (2.0 * half_w).max(f64::MIN_POSITIVE) * (2.0 * half_h).max(f64::MIN_POSITIVE);
                let win_area = (cw + 2.0 * half_w) * (ch + 2.0 * half_h);
                let partners = other.centers_in(&win, other_rows) * (obj_area / win_area).min(1.0);
                pairs += count as f64 * scale * partners;
            }
        }
        pairs.max(0.0)
    }
}

/// `[a0,a1] ∩ [b0,b1]` length (0 when disjoint).
fn overlap_1d(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// Everything `ANALYZE <table>` learns, persisted through the snapshot
/// and WAL so estimates survive restart.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name (uppercase).
    pub table: String,
    /// Live-row count at analysis time.
    pub rows: u64,
    /// The table's modification counter at analysis time; the gap to
    /// the current counter measures staleness.
    pub analyzed_mods: u64,
    /// Scalar stats per column (schema order).
    pub columns: Vec<ColumnStats>,
    /// Spatial histogram per column (`Some` only for geometry columns
    /// with at least one sampled geometry).
    pub spatial: Vec<Option<SpatialHistogram>>,
}

impl TableStats {
    /// Build statistics from up to `max_sample` strided rows.
    pub fn analyze(table: &Table, max_sample: usize) -> TableStats {
        let rows = table.len() as u64;
        let arity = table.schema().arity();
        let hwm = table.high_water_mark();
        let stride = if max_sample == 0 { hwm } else { (hwm / max_sample.max(1)).max(1) };
        let mut sample: Vec<std::sync::Arc<[Value]>> = Vec::new();
        let mut slot = 0usize;
        while slot < hwm {
            if let Some((_, row)) = table.scan_slots(slot, slot + stride).next() {
                sample.push(row);
            }
            slot += stride;
        }
        let sampled = sample.len().max(1) as f64;
        let scale = rows as f64 / sampled;
        let mut columns = Vec::with_capacity(arity);
        let mut spatial = Vec::with_capacity(arity);
        for col in 0..arity {
            let mut distinct: HashSet<Vec<u8>> = HashSet::new();
            let mut nulls = 0u64;
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            for row in &sample {
                let v = match row.get(col) {
                    Some(v) => v,
                    None => continue,
                };
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                let mut key = Vec::new();
                put_value(&mut key, v);
                distinct.insert(key);
                // Geometries have no SQL ordering; skip min/max.
                if v.as_geometry().is_some() {
                    continue;
                }
                if min.as_ref().is_none_or(|m| v.sql_cmp(m) == std::cmp::Ordering::Less) {
                    min = Some(v.clone());
                }
                if max.as_ref().is_none_or(|m| v.sql_cmp(m) == std::cmp::Ordering::Greater) {
                    max = Some(v.clone());
                }
            }
            let ndv = if distinct.len() == sample.len() {
                // Every sampled value distinct: assume a unique column.
                rows
            } else {
                ((distinct.len() as f64 * scale) as u64).min(rows)
            };
            columns.push(ColumnStats {
                ndv,
                null_count: ((nulls as f64 * scale) as u64).min(rows),
                min,
                max,
            });
            spatial.push(SpatialHistogram::collect(table, col, max_sample));
        }
        TableStats {
            table: table.name().to_string(),
            rows,
            analyzed_mods: table.mod_count(),
            columns,
            spatial,
        }
    }

    /// The spatial histogram for a column, if one was built.
    pub fn spatial_histogram(&self, col: usize) -> Option<&SpatialHistogram> {
        self.spatial.get(col).and_then(|h| h.as_ref())
    }

    /// Staleness rule: the stats are stale once DML since `ANALYZE`
    /// exceeds `max(64, rows/5)` modifications — 20% churn, with a
    /// floor so small tables aren't flagged by a handful of inserts.
    pub fn is_stale(&self, current_mods: u64) -> bool {
        let budget = (self.rows / 5).max(64);
        current_mods.saturating_sub(self.analyzed_mods) > budget
    }

    /// Serialize into `buf` (snapshot stats section, WAL `Analyze`).
    pub fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.table);
        buf.put_u64_le(self.rows);
        buf.put_u64_le(self.analyzed_mods);
        buf.put_u32_le(self.columns.len() as u32);
        for c in &self.columns {
            buf.put_u64_le(c.ndv);
            buf.put_u64_le(c.null_count);
            for bound in [&c.min, &c.max] {
                match bound {
                    Some(v) => {
                        buf.put_u8(1);
                        put_value(buf, v);
                    }
                    None => buf.put_u8(0),
                }
            }
        }
        buf.put_u32_le(self.spatial.len() as u32);
        for h in &self.spatial {
            match h {
                Some(h) => {
                    buf.put_u8(1);
                    for f in [h.extent.min_x, h.extent.min_y, h.extent.max_x, h.extent.max_y] {
                        buf.put_f64_le(f);
                    }
                    buf.put_u32_le(h.dim);
                    buf.put_f64_le(h.avg_width);
                    buf.put_f64_le(h.avg_height);
                    buf.put_u64_le(h.sampled);
                    buf.put_u32_le(h.counts.len() as u32);
                    for c in &h.counts {
                        buf.put_u32_le(*c);
                    }
                }
                None => buf.put_u8(0),
            }
        }
    }

    /// Decode one record produced by [`TableStats::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<TableStats, StorageError> {
        let trunc = || StorageError::TypeError("stats: truncated record".into());
        let table = get_str(buf)?;
        if buf.remaining() < 20 {
            return Err(trunc());
        }
        let rows = buf.get_u64_le();
        let analyzed_mods = buf.get_u64_le();
        let n_cols = buf.get_u32_le() as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            if buf.remaining() < 16 {
                return Err(trunc());
            }
            let ndv = buf.get_u64_le();
            let null_count = buf.get_u64_le();
            let mut bounds = [None, None];
            for b in &mut bounds {
                if !buf.has_remaining() {
                    return Err(trunc());
                }
                if buf.get_u8() == 1 {
                    *b = Some(get_value(buf)?);
                }
            }
            let [min, max] = bounds;
            columns.push(ColumnStats { ndv, null_count, min, max });
        }
        if buf.remaining() < 4 {
            return Err(trunc());
        }
        let n_spatial = buf.get_u32_le() as usize;
        let mut spatial = Vec::with_capacity(n_spatial.min(1024));
        for _ in 0..n_spatial {
            if !buf.has_remaining() {
                return Err(trunc());
            }
            if buf.get_u8() == 0 {
                spatial.push(None);
                continue;
            }
            if buf.remaining() < 4 * 8 + 4 + 2 * 8 + 8 + 4 {
                return Err(trunc());
            }
            let extent =
                Rect::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
            let dim = buf.get_u32_le();
            let avg_width = buf.get_f64_le();
            let avg_height = buf.get_f64_le();
            let sampled = buf.get_u64_le();
            let n_counts = buf.get_u32_le() as usize;
            if buf.remaining() < n_counts * 4 {
                return Err(trunc());
            }
            let mut counts = Vec::with_capacity(n_counts);
            for _ in 0..n_counts {
                counts.push(buf.get_u32_le());
            }
            spatial.push(Some(SpatialHistogram {
                extent,
                dim,
                counts,
                avg_width,
                avg_height,
                sampled,
            }));
        }
        Ok(TableStats { table, rows, analyzed_mods, columns, spatial })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bump_and_reset() {
        let c = Counters::new();
        Counters::bump(&c.mbr_tests);
        Counters::add(&c.mbr_tests, 4);
        assert_eq!(Counters::get(&c.mbr_tests), 5);
        c.reset();
        assert_eq!(Counters::get(&c.mbr_tests), 0);
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(Counters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        Counters::bump(&c.row_fetches);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(Counters::get(&c.row_fetches), 4000);
    }

    #[test]
    fn snapshot_names_every_counter() {
        let c = Counters::new();
        Counters::bump(&c.exact_tests);
        let snap = c.snapshot().pairs();
        assert_eq!(snap.len(), 11);
        assert_eq!(snap.len(), COUNTER_NAMES.len());
        assert!(snap.contains(&("exact_tests", 1)));
    }

    #[test]
    fn spatial_sample_estimates_extent_and_footprint() {
        use crate::schema::{DataType, Schema};
        use crate::value::Value;
        use sdo_geom::{Geometry, Polygon};

        let mut t =
            Table::new("s", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
        for i in 0..200 {
            let x = (i % 20) as f64 * 10.0;
            let y = (i / 20) as f64 * 10.0;
            let poly = Polygon::from_rect(&Rect::new(x, y, x + 2.0, y + 4.0));
            t.insert(vec![Value::Integer(i as i64), Value::geometry(Geometry::Polygon(poly))])
                .unwrap();
        }
        // Full sample: exact extent and exact mean footprint.
        let full = SpatialSample::collect(&t, 1, usize::MAX);
        assert_eq!(full.rows, 200);
        assert_eq!(full.sampled, 200);
        assert_eq!(full.extent, Rect::new(0.0, 0.0, 192.0, 94.0));
        assert!((full.avg_width - 2.0).abs() < 1e-9);
        assert!((full.avg_height - 4.0).abs() < 1e-9);

        // Strided sample: bounded size, extent within the true extent.
        let s = SpatialSample::collect(&t, 1, 16);
        assert!(s.sampled <= 17 && s.sampled >= 8, "sampled {}", s.sampled);
        assert!(full.extent.contains_rect(&s.extent));
        assert!(s.avg_width > 0.0 && s.avg_height > 0.0);

        // Non-geometry column: nothing sampled, empty extent.
        let none = SpatialSample::collect(&t, 0, 64);
        assert_eq!(none.sampled, 0);
        assert!(none.extent.is_empty());
    }

    fn geometry_table(n: i64) -> Table {
        use crate::schema::{DataType, Schema};
        use sdo_geom::{Geometry, Polygon};
        let mut t =
            Table::new("g", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
        for i in 0..n {
            let x = (i % 20) as f64 * 10.0;
            let y = (i / 20) as f64 * 10.0;
            let poly = Polygon::from_rect(&Rect::new(x, y, x + 2.0, y + 4.0));
            t.insert(vec![Value::Integer(i), Value::geometry(Geometry::Polygon(poly))]).unwrap();
        }
        t
    }

    #[test]
    fn analyze_builds_column_and_spatial_stats() {
        let t = geometry_table(200);
        let stats = TableStats::analyze(&t, usize::MAX);
        assert_eq!(stats.rows, 200);
        assert_eq!(stats.analyzed_mods, 200);
        assert_eq!(stats.columns.len(), 2);
        // ID: unique integers 0..200.
        assert_eq!(stats.columns[0].ndv, 200);
        assert_eq!(stats.columns[0].min, Some(Value::Integer(0)));
        assert_eq!(stats.columns[0].max, Some(Value::Integer(199)));
        // GEOM: histogram present, with the full extent and exact mean
        // footprint at full sampling.
        let h = stats.spatial_histogram(1).expect("geometry histogram");
        assert_eq!(h.sampled, 200);
        assert_eq!(h.extent, Rect::new(0.0, 0.0, 192.0, 94.0));
        assert!((h.avg_width - 2.0).abs() < 1e-9);
        assert!((h.avg_height - 4.0).abs() < 1e-9);
        assert!(stats.spatial_histogram(0).is_none());
        // Whole-extent window ≈ every row.
        let all = h.estimate_window(&h.extent, stats.rows);
        assert!(all > 150.0 && all <= 200.0, "whole-extent estimate {all}");
        // A window covering ~1/4 of the extent sees roughly 1/4 of rows.
        let quarter = h.estimate_window(&Rect::new(0.0, 0.0, 96.0, 47.0), stats.rows);
        assert!(quarter > 25.0 && quarter < 90.0, "quarter estimate {quarter}");
        // Empty window sees nothing.
        assert_eq!(h.estimate_window(&Rect::EMPTY, stats.rows), 0.0);
        // Within-distance grows the estimate.
        let w = Rect::new(50.0, 30.0, 60.0, 40.0);
        assert!(
            h.estimate_within_distance(&w, 30.0, stats.rows) > h.estimate_window(&w, stats.rows)
        );
    }

    #[test]
    fn join_pair_estimate_tracks_truth_on_a_grid() {
        let t = geometry_table(400);
        let stats = TableStats::analyze(&t, usize::MAX);
        let h = stats.spatial_histogram(1).unwrap();
        // Self-join truth: count intersecting bbox pairs by brute force.
        let boxes: Vec<Rect> =
            t.scan().map(|(_, row)| row[1].as_geometry().map(|g| g.bbox()).unwrap()).collect();
        let mut truth = 0u64;
        for a in &boxes {
            for b in &boxes {
                if a.intersects(b) {
                    truth += 1;
                }
            }
        }
        let est = h.estimate_join_pairs(stats.rows, h, stats.rows);
        // Within 4x either way is plenty for a planner cost input.
        assert!(est > truth as f64 / 4.0 && est < truth as f64 * 4.0, "est {est} vs truth {truth}");
    }

    #[test]
    fn stats_encode_decode_roundtrip() {
        let t = geometry_table(120);
        let stats = TableStats::analyze(&t, 64);
        let mut buf = BytesMut::new();
        stats.encode(&mut buf);
        let bytes = buf.freeze();
        let decoded = TableStats::decode(&mut &bytes[..]).unwrap();
        assert_eq!(decoded, stats);
        // Every truncation errors rather than panics.
        for cut in 0..bytes.len() {
            assert!(TableStats::decode(&mut &bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn staleness_follows_modification_budget() {
        let mut t = geometry_table(1000);
        let stats = TableStats::analyze(&t, usize::MAX);
        assert!(!stats.is_stale(t.mod_count()));
        // 20% churn budget: 200 mods for 1000 rows.
        for i in 0..200 {
            t.delete(crate::RowId::new(i)).unwrap();
        }
        assert!(!stats.is_stale(t.mod_count()), "at the budget, not past it");
        t.delete(crate::RowId::new(300)).unwrap();
        assert!(stats.is_stale(t.mod_count()));
    }

    #[test]
    fn diff_reports_deltas() {
        let c = Counters::new();
        Counters::add(&c.mbr_tests, 10);
        let before = c.snapshot();
        Counters::add(&c.mbr_tests, 7);
        Counters::bump(&c.row_fetches);
        let delta = c.diff(&before);
        assert_eq!(delta.get("mbr_tests"), Some(7));
        assert_eq!(delta.get("row_fetches"), Some(1));
        assert_eq!(delta.total(), 8);
        assert!(!delta.is_zero());
        // Saturating: a reset between snapshots cannot underflow.
        c.reset();
        assert!(c.diff(&before).is_zero() || c.diff(&before).get("mbr_tests") == Some(0));
    }
}
