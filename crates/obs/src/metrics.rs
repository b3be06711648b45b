//! Lock-cheap metrics: counters, gauges, and fixed-bucket histograms.
//!
//! All mutation is relaxed-atomic; the registry's `HashMap` is behind
//! an `RwLock` but hot paths hold an `Arc` handle to their instrument
//! and never touch the map again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depths, cache sizes, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared high-water-mark gauge for resident-row accounting.
///
/// Operators in a query pipeline clone one gauge and charge the rows
/// they hold resident; the gauge tracks both the instantaneous total
/// and the peak across the whole statement, which the executor reports
/// as the `peak_resident_rows` metric in `EXPLAIN ANALYZE`. Cloning is
/// cheap (`Arc`); mutation is relaxed-atomic, with the peak maintained
/// by `fetch_max` so concurrent operators (e.g. parallel slaves) stay
/// correct without locks.
#[derive(Debug, Clone, Default)]
pub struct MemoryGauge {
    inner: Arc<MemoryGaugeInner>,
}

#[derive(Debug, Default)]
struct MemoryGaugeInner {
    current: AtomicU64,
    peak: AtomicU64,
}

impl MemoryGauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `n` units, returning the new instantaneous total.
    pub fn add(&self, n: u64) -> u64 {
        let now = self.inner.current.fetch_add(n, Ordering::Relaxed) + n;
        self.inner.peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Release `n` units (saturating at zero).
    pub fn sub(&self, n: u64) {
        // fetch_update to saturate rather than wrap on over-release.
        let _ = self
            .inner
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| Some(cur.saturating_sub(n)));
    }

    /// Instantaneous total.
    pub fn current(&self) -> u64 {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// High-water mark since creation.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Open an RAII charge account against this gauge.
    ///
    /// Parallel workers each hold their own [`GaugeCharge`]; whatever a
    /// worker has charged when it unwinds — an error mid-morsel, a
    /// receiver that hung up, a panic — is released by `Drop`, so the
    /// gauge always returns to zero no matter which side of a channel
    /// failed first.
    pub fn charge(&self) -> GaugeCharge {
        GaugeCharge { gauge: self.clone(), held: 0 }
    }
}

/// RAII balance of units charged to a [`MemoryGauge`].
///
/// The owning side (typically one worker, or one buffered result in a
/// merge queue) adjusts its balance with [`add`](GaugeCharge::add) /
/// [`set`](GaugeCharge::set); dropping the charge releases whatever is
/// still held. Transferring the struct transfers the liability — an
/// exchange worker charges its morsel output, sends the charge along
/// with the rows, and the consumer's drop releases it after the rows
/// flow downstream.
#[derive(Debug)]
pub struct GaugeCharge {
    gauge: MemoryGauge,
    held: u64,
}

impl GaugeCharge {
    /// Charge `n` more units, returning the gauge's new total.
    pub fn add(&mut self, n: u64) -> u64 {
        self.held += n;
        self.gauge.add(n)
    }

    /// Adjust the balance to exactly `n` units, returning the gauge's
    /// new total.
    pub fn set(&mut self, n: u64) -> u64 {
        if n >= self.held {
            self.add(n - self.held)
        } else {
            self.gauge.sub(self.held - n);
            self.held = n;
            self.gauge.current()
        }
    }

    /// Units currently held by this account.
    pub fn held(&self) -> u64 {
        self.held
    }
}

impl Drop for GaugeCharge {
    fn drop(&mut self) {
        self.gauge.sub(self.held);
    }
}

/// Fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are cumulative-friendly: `counts[i]` holds samples `<=
/// bounds[i]`, with one implicit overflow bucket at the end. Recording
/// is a binary search plus one relaxed `fetch_add`; histograms with
/// identical bounds merge across threads losslessly.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Histogram with explicit ascending upper-bound edges.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Default latency bounds: powers of two from 256 ns to ~17 s.
    pub fn latency() -> Self {
        Self::with_bounds((8..35).map(|i| 1u64 << i).collect())
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a wall-time sample in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket containing it. Returns 0 for an empty
    /// histogram; the overflow bucket reports `max`.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            if cumulative + in_bucket >= rank {
                if idx >= self.bounds.len() {
                    return self.max();
                }
                let lo = if idx == 0 { 0 } else { self.bounds[idx - 1] };
                let hi = self.bounds[idx];
                let frac = if in_bucket == 0 {
                    0.0
                } else {
                    (rank - cumulative) as f64 / in_bucket as f64
                };
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            cumulative += in_bucket;
        }
        self.max()
    }

    /// Merge `other` into `self`.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different bounds");
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }
}

/// Registry of named instruments. Lookup is get-or-create; handles are
/// `Arc`s, so hot code resolves its instrument once and keeps it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T, F: FnOnce() -> T>(
    map: &RwLock<HashMap<String, Arc<T>>>,
    name: &str,
    make: F,
) -> Arc<T> {
    if let Some(v) = map.read().expect("metrics registry poisoned").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("metrics registry poisoned");
    Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(make())))
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Named counter (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// Named gauge (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// Named latency histogram (created on first use with the default
    /// power-of-two nanosecond bounds).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, Histogram::latency)
    }

    /// Consistent point-in-time copy of every instrument, sorted by
    /// name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSummary)> = self
            .histograms
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: v.count(),
                        sum: v.sum(),
                        max: v.max(),
                        p50: v.percentile(0.50),
                        p95: v.percentile(0.95),
                        p99: v.percentile(0.99),
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot { counters, gauges, histograms }
    }
}

/// Point-in-time percentile summary of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// The process-wide registry used by [`crate::span()`] and the engine's
/// built-in hooks.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("c").get(), 5);
        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("g").get(), 7);
    }

    #[test]
    fn memory_gauge_tracks_peak_across_clones() {
        let g = MemoryGauge::new();
        let g2 = g.clone();
        g.add(100);
        g2.add(50);
        assert_eq!(g.current(), 150);
        g.sub(120);
        assert_eq!(g2.current(), 30);
        assert_eq!(g2.peak(), 150);
        // Over-release saturates instead of wrapping.
        g.sub(1000);
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 150);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        // On-boundary samples land in the bucket they bound.
        h.record(10);
        h.record(11);
        h.record(100);
        h.record(5000); // overflow bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.sum(), 10 + 11 + 100 + 5000);
        let raw: Vec<u64> = h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(raw, vec![1, 2, 0, 1]);
    }

    #[test]
    fn histogram_percentiles() {
        let h = Histogram::with_bounds(vec![100, 200, 300, 400]);
        for v in (1..=100).map(|i| i * 4) {
            h.record(v); // uniform over (0, 400]
        }
        assert_eq!(h.percentile(0.0), 4); // rank clamps to the first sample's bucket
        let p50 = h.percentile(0.50);
        assert!((150..=250).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(0.99);
        assert!((350..=400).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(1.0), 400);
        // Empty histogram is all zeros.
        assert_eq!(Histogram::latency().percentile(0.99), 0);
    }

    #[test]
    fn histogram_concurrent_merge() {
        let shared = Arc::new(Histogram::with_bounds((0..16).map(|i| 1 << i).collect()));
        let merged = Histogram::with_bounds((0..16).map(|i| 1 << i).collect());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let local = Histogram::with_bounds((0..16).map(|i| 1 << i).collect());
                    for i in 0..1000u64 {
                        shared.record(t * 1000 + i);
                        local.record(t * 1000 + i);
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            merged.merge(&h.join().unwrap());
        }
        assert_eq!(merged.count(), 8000);
        assert_eq!(merged.count(), shared.count());
        assert_eq!(merged.sum(), shared.sum());
        assert_eq!(merged.max(), shared.max());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(merged.percentile(q), shared.percentile(q));
        }
    }

    #[test]
    fn registry_snapshot_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b").inc();
        r.counter("a").add(2);
        r.histogram("h").record(512);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".into(), 2), ("b".into(), 1)]);
        assert_eq!(snap.histograms[0].1.count, 1);
    }
}
