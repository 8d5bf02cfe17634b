//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms, all lock-free to update.
//!
//! Instruments are created on first use and shared by name; a drained
//! [`MetricsSnapshot`] sorts names so serialisation is deterministic.  The
//! histogram uses fixed power-of-two buckets (bucket *i* holds values in
//! `[2^i, 2^(i+1))`, values of 0 land in bucket 0): cheap to update from a
//! hot path — one `leading_zeros` and one relaxed increment — and precise
//! enough to separate a 2 µs lock wait from a 2 ms one, which is what the
//! lock-wait, solve-time and migration-size distributions need.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of power-of-two histogram buckets (covers the full `u64` range).
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub(crate) fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub(crate) struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub(crate) fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed power-of-two-bucket histogram of `u64` samples.
#[derive(Debug)]
pub(crate) struct Histogram {
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
    /// Bucket index of a sample: `floor(log2(value))`, with 0 in bucket 0.
    #[must_use]
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub(crate) fn observe(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    #[must_use]
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Sparse snapshot of the non-empty buckets, as
    /// `(log2-floor, sample count)` pairs in bucket order.
    #[must_use]
    pub(crate) fn sparse_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect()
    }
}

/// A drained histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty `(log2-floor, count)` buckets in ascending order.
    pub buckets: Vec<(u32, u64)>,
}

/// A drained registry: every instrument's value at drain time, sorted by
/// name for deterministic serialisation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter lookup by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Gauge lookup by name.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram lookup by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Named instrument store; instruments are created on first use.
///
/// Lookup takes a read-lock and updates are relaxed atomics, so hot paths
/// should hold the returned `Arc` rather than re-resolving the name per
/// sample.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<Vec<(String, Arc<Counter>)>>,
    gauges: RwLock<Vec<(String, Arc<Gauge>)>>,
    histograms: RwLock<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_create<T: Default>(table: &RwLock<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    if let Some(found) = table
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| Arc::clone(v))
    {
        return found;
    }
    let mut w = table.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Racing creator may have won between the locks.
    if let Some((_, v)) = w.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let fresh = Arc::new(T::default());
    w.push((name.to_string(), Arc::clone(&fresh)));
    fresh
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name` (created zeroed on first use).
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name` (created at 0.0 on first use).
    #[must_use]
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name` (created empty on first use).
    #[must_use]
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Drains every instrument into a name-sorted snapshot.
    #[must_use]
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(n, h)| {
                (n.clone(), HistogramSnapshot { count: h.count(), sum: h.sum(), buckets: h.sparse_buckets() })
            })
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_by_name() {
        let r = MetricsRegistry::new();
        r.counter("epochs").add(3);
        r.counter("epochs").incr();
        r.gauge("drift").set(0.25);
        assert_eq!(r.counter("epochs").get(), 4);
        assert_eq!(r.gauge("drift").get(), 0.25);
        let snap = r.snapshot();
        assert_eq!(snap.counter("epochs"), Some(4));
        assert_eq!(snap.gauge("drift"), Some(0.25));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        let h = Histogram::default();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        h.observe(2048);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 2058);
        assert_eq!(h.sparse_buckets(), vec![(0, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = MetricsRegistry::new();
        r.counter("zeta").incr();
        r.counter("alpha").incr();
        r.histogram("m").observe(7);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        assert_eq!(snap.counters[1].0, "zeta");
        assert_eq!(snap.histogram("m").unwrap().count, 1);
    }

    #[test]
    fn concurrent_creation_yields_one_instrument() {
        let r = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.counter("shared").incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 800);
        assert_eq!(r.snapshot().counters.len(), 1);
    }
}
