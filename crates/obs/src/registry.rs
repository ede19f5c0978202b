//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with cheap atomic updates.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed and
//! `Clone`; updating one is a single atomic operation, so instruments can
//! live on hot paths. Registration is idempotent: asking for the same
//! `(name, labels)` twice returns a handle to the same underlying cell,
//! and re-registering a name with a different metric kind panics (that is
//! a programming error, not a runtime condition).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Kind of a metric family (drives the Prometheus `# TYPE` line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value that can go up and down.
    Gauge,
    /// Fixed-bucket distribution with sum and count.
    Histogram,
}

impl MetricKind {
    /// Prometheus type keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter (integer-valued).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (always valid to update;
    /// never exported). Useful as a no-op default.
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one and returns the value before the increment (one atomic
    /// operation — for deterministic 1-in-N sampling keyed on the count).
    #[inline]
    pub fn fetch_inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a point-in-time `f64` that can move in both directions.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Interior of a histogram: cumulative-style fixed buckets.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    /// Finite ascending upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries (last = `+Inf`).
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits (CAS loop on update).
    sum_bits: AtomicU64,
    /// Number of observations.
    count: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// A histogram with the given finite ascending bucket upper bounds,
    /// not attached to any registry.
    ///
    /// # Panics
    /// Panics when `bounds` is empty, non-finite, or not strictly
    /// ascending.
    pub fn detached(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram(Arc::new(HistogramCell {
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            bounds: bounds.to_vec(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let c = &self.0;
        let idx = c.bounds.partition_point(|&b| b < v);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = c.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match c
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The finite upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket
    /// counts, interpolating linearly inside the bucket that holds the
    /// target rank — the same estimator Prometheus' `histogram_quantile`
    /// uses. The first bucket interpolates from an implicit lower edge
    /// of `0`; ranks landing in the `+Inf` bucket clamp to the last
    /// finite bound. Returns `NaN` when the histogram is empty.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = q * total as f64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen as f64 + c as f64 >= rank {
                let bounds = self.bounds();
                if i == bounds.len() {
                    // +Inf bucket: no finite upper edge to interpolate
                    // toward; clamp to the largest finite bound.
                    return bounds[bounds.len() - 1];
                }
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let upper = bounds[i];
                let into = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * into;
            }
            seen += c;
        }
        // Unreachable for total > 0, but keep a sane fallback.
        self.bounds()[self.bounds().len() - 1]
    }
}

/// `count` bucket bounds growing geometrically from `start` by `factor`.
///
/// # Panics
/// Panics for non-positive `start`, `factor <= 1`, or `count == 0`.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && factor > 1.0 && count > 0,
        "degenerate buckets"
    );
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

/// The value cell behind one registered series.
#[derive(Clone, Debug)]
pub(crate) enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One labeled series of a family.
#[derive(Debug)]
pub(crate) struct Series {
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    pub instrument: Instrument,
}

/// A named metric family: kind, help text, and its labeled series.
#[derive(Debug)]
pub(crate) struct Family {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub series: Vec<Series>,
}

/// A registry of metric families.
///
/// Cheap to share behind an `Arc`; registration takes a lock, updates via
/// the returned handles do not.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // detlint: allow(D3, family list shared with workers; rendered in stable registration order)
    pub(crate) families: Mutex<Vec<Family>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let labels = sorted_labels(labels);
        // detlint: allow(D5, lock poisoning implies a prior panic; propagating it is the least surprising failure)
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} re-registered as {:?}, was {:?}",
                    kind,
                    f.kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                // detlint: allow(D5, pushed on the preceding line)
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return s.instrument.clone();
        }
        let instrument = make();
        family.series.push(Series {
            labels,
            instrument: instrument.clone(),
        });
        family.series.sort_by(|a, b| a.labels.cmp(&b.labels));
        instrument
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter, || {
            Instrument::Counter(Counter::detached())
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge, || {
            Instrument::Gauge(Gauge::detached())
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or finds) an unlabeled histogram with the given finite
    /// ascending bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or finds) a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.register(name, help, labels, MetricKind::Histogram, || {
            Instrument::Histogram(Histogram::detached(bounds))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        // detlint: allow(D5, lock poisoning implies a prior panic; propagating it is the least surprising failure)
        self.families.lock().expect("registry poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let r = MetricsRegistry::new();
        let c = r.counter("jobs_total", "jobs");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration returns the same cell.
        let again = r.counter("jobs_total", "jobs");
        again.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(r.family_count(), 1);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = MetricsRegistry::new();
        let a = r.counter_with("starts_total", "starts", &[("mode", "shared")]);
        let b = r.counter_with("starts_total", "starts", &[("mode", "exclusive")]);
        a.inc();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 1);
        assert_eq!(r.family_count(), 1);
        // Label order does not matter.
        let a2 = r.counter_with("starts_total", "starts", &[("mode", "shared")]);
        assert_eq!(a2.get(), 2);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("queue_depth", "depth");
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let r = MetricsRegistry::new();
        let h = r.histogram("latency", "l", &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 1]);
        // Boundary values land in the bucket whose bound they equal (le).
        h.observe(0.1);
        assert_eq!(h.bucket_counts()[0], 2);
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        // 1000 uniform samples over (0, 10] against ten equal buckets:
        // the interpolated quantiles should sit within one bucket width
        // of the exact order statistics.
        let bounds: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let h = Histogram::detached(&bounds);
        for i in 0..1000 {
            h.observe((i as f64 + 0.5) / 100.0);
        }
        for (q, expect) in [(0.5, 5.0), (0.95, 9.5), (0.99, 9.9)] {
            let got = h.quantile(q);
            assert!(
                (got - expect).abs() <= 1.0,
                "q{q}: got {got}, expected ~{expect}"
            );
        }
        // Quantiles are monotone in q.
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // All mass in the (1, 2] bucket: q interpolates linearly across
        // that bucket, so p50 is its midpoint.
        let h = Histogram::detached(&[1.0, 2.0, 3.0]);
        for _ in 0..4 {
            h.observe(1.5);
        }
        assert!((h.quantile(0.5) - 1.5).abs() < 1e-9, "{}", h.quantile(0.5));
        assert!((h.quantile(1.0) - 2.0).abs() < 1e-9);
        // First bucket interpolates from an implicit lower edge of 0.
        let low = Histogram::detached(&[4.0, 8.0]);
        low.observe(1.0);
        low.observe(2.0);
        assert!(
            (low.quantile(0.5) - 2.0).abs() < 1e-9,
            "{}",
            low.quantile(0.5)
        );
    }

    #[test]
    fn quantiles_handle_edge_cases() {
        let h = Histogram::detached(&[1.0, 10.0]);
        assert!(h.quantile(0.5).is_nan(), "empty histogram has no quantile");
        // Mass beyond the last finite bound clamps to it.
        h.observe(100.0);
        assert_eq!(h.quantile(0.99), 10.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_range_is_checked() {
        Histogram::detached(&[1.0]).quantile(1.5);
    }

    #[test]
    fn exponential_bucket_helper() {
        let b = exponential_buckets(1e-6, 10.0, 4);
        assert_eq!(b.len(), 4);
        assert!((b[3] - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflicts_panic() {
        let r = MetricsRegistry::new();
        r.counter("x_total", "x");
        r.gauge("x_total", "x");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn bad_bounds_panic() {
        Histogram::detached(&[1.0, 1.0]);
    }
}
