//! Process-wide metrics: named counters, gauges and log-scaled latency
//! histograms behind a static registry.
//!
//! Handles are `Arc`s to relaxed atomics — call sites fetch them once (e.g.
//! into a `OnceLock`) and then record with a single atomic RMW, no locking.
//! The registry itself is only locked when a handle is first created or a
//! snapshot is taken.
//!
//! Counters are monotone and snapshots support subtraction
//! ([`MetricsSnapshot::delta_since`]), which is what test assertions and
//! bench reports want: "how many compiles happened during *this* stretch?".

use crate::obs::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotone counter. All operations are relaxed: counters order nothing,
/// they only count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (e.g. "interner size right now").
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂-scaled buckets: bucket `i` counts samples whose value has
/// `i` significant bits, i.e. values in `[2^(i-1), 2^i)` (bucket 0 is the
/// zero bucket). 64 buckets cover the full `u64` range.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram over `u64` samples (typically nanoseconds) with log₂-scaled
/// buckets, a running sum and a count. Recording is two relaxed RMWs plus
/// one on the bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copy the current bucket contents out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts: bucket `i` holds the samples with `i`
    /// significant bits.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the first bucket at which
    /// the cumulative count reaches `q·count`. Accurate to the bucket's
    /// factor-of-two resolution; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
            }
        }
        u64::MAX
    }

    fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(earlier.buckets.len());
        let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..n)
                .map(|i| get(&self.buckets, i).saturating_sub(get(&earlier.buckets, i)))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

/// The process-wide registry of named metrics. Obtain it via [`registry`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide [`MetricsRegistry`].
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

impl MetricsRegistry {
    /// Fetch (registering on first use) the counter named `name`. Cache the
    /// returned handle at the call site; recording through it never touches
    /// the registry lock again.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Fetch (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Fetch (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Copy every registered metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of every registered metric, with subtraction for
/// "what happened during this stretch" assertions.
///
/// ```
/// use certus::obs::metrics::registry;
///
/// let c = registry().counter("doc.snapshot.widgets");
/// let before = registry().snapshot();
/// c.add(3);
/// let delta = registry().snapshot().delta_since(&before);
/// assert_eq!(delta.counter("doc.snapshot.widgets"), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Shorthand for `registry().snapshot()`.
    pub fn now() -> MetricsSnapshot {
        registry().snapshot()
    }

    /// Value of counter `name` (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of gauge `name` (0 if never registered).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Counters and histograms become differences since `earlier`
    /// (saturating, so a metric registered in between reads as its absolute
    /// value); gauges keep their current reading — a gauge has no meaningful
    /// delta.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let base = earlier.histograms.get(k).cloned().unwrap_or_default();
                (k.clone(), v.delta_since(&base))
            })
            .collect();
        MetricsSnapshot { counters, gauges: self.gauges.clone(), histograms }
    }

    /// Render every metric as a JSON object keyed by kind then name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json::escape(k), v));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json::escape(k), v));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                json::escape(k),
                h.count,
                h.sum,
                json::number(h.mean()),
                h.quantile(0.50),
                h.quantile(0.99)
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = registry().counter("test.metrics.counter");
        let g = registry().gauge("test.metrics.gauge");
        let before = MetricsSnapshot::now();
        c.incr();
        c.add(4);
        g.set(17);
        let delta = MetricsSnapshot::now().delta_since(&before);
        assert_eq!(delta.counter("test.metrics.counter"), 5);
        assert_eq!(delta.gauge("test.metrics.gauge"), 17);
        assert_eq!(delta.counter("test.metrics.never_registered"), 0);
    }

    #[test]
    fn handles_are_shared() {
        let a = registry().counter("test.metrics.shared");
        let b = registry().counter("test.metrics.shared");
        let base = a.value();
        b.incr();
        assert_eq!(a.value(), base + 1);
    }

    #[test]
    fn histogram_buckets_scale_by_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1106);
        assert!((snap.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));
        assert!(snap.quantile(1.0) >= 1000);
    }

    #[test]
    fn histogram_delta_subtracts() {
        let h = registry().histogram("test.metrics.hist");
        let before = MetricsSnapshot::now();
        h.record(10);
        h.record(2000);
        let delta = MetricsSnapshot::now().delta_since(&before);
        let hs = delta.histogram("test.metrics.hist").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum, 2010);
    }

    #[test]
    fn snapshot_renders_json() {
        registry().counter("test.metrics.json").add(2);
        let s = MetricsSnapshot::now().to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"test.metrics.json\""));
    }
}
