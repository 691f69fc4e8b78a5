//! The cache-aligned histogram.
//!
//! State is sharded per core through [`PerCore`], whose slots are
//! 128-byte aligned: an instrumented hot path touches only its own
//! core's cache line, so adding a metric to a scalable path cannot
//! itself become the bottleneck the paper warns about. Reads traverse
//! all cores (the same "significantly more work to find the true value"
//! trade-off as the counters in `pk-sloppy`).

use pk_percpu::{CoreId, PerCore};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::buckets::{bucket_of, BUCKETS};
use crate::sample::HistogramSnapshot;

/// One core's histogram shard.
#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A bucketed histogram of u64 samples (latencies in cycles, queue
/// lengths), sharded per core.
///
/// Buckets are log2 below `2^TAIL_SPLIT` and 8-per-octave above it
/// (see [`crate::buckets`]): a fixed footprint and a branch-free
/// record path, like the kernel's own latency histograms, but
/// [`Histogram::quantile`] answers "what value do q of the samples
/// fall below" to within 1/8 everywhere a latency tail can live.
#[derive(Debug)]
pub struct Histogram {
    shards: PerCore<HistShard>,
}

impl Histogram {
    /// Creates a histogram with one shard per core.
    pub fn new(cores: usize) -> Self {
        Self {
            shards: PerCore::new_with(cores, |_| HistShard::new()),
        }
    }

    /// Records one sample on behalf of `core`.
    pub fn record(&self, core: CoreId, value: u64) {
        let shard = self.shards.get(core);
        shard.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.shards
            .fold(0, |a, s| a + s.count.load(Ordering::Relaxed))
    }

    /// Sum of all recorded samples. Wraps on overflow, matching the
    /// per-shard atomic record path (which wraps silently), so the
    /// merged sum is the same pure function of the sample multiset in
    /// debug and release builds.
    pub fn sum(&self) -> u64 {
        self.shards
            .fold(0u64, |a, s| a.wrapping_add(s.sum.load(Ordering::Relaxed)))
    }

    /// Mean of all recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// An upper bound on the `q`-quantile (e.g. `0.99`): the inclusive
    /// upper edge of the first bucket whose cumulative count reaches
    /// `q * count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let snap = self.snapshot();
        snap.quantile(q)
    }

    /// Merges every shard into one immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for shard in self.shards.iter() {
            for (b, cell) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *b += cell.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_mean_and_count() {
        let h = Histogram::new(2);
        h.record(CoreId(0), 10);
        h.record(CoreId(1), 30);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 40);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_brackets_samples() {
        let h = Histogram::new(1);
        for v in [1u64, 2, 4, 100, 1000] {
            h.record(CoreId(0), v);
        }
        // Median of {1,2,4,100,1000} is 4; the log2 bound is < 8.
        let q50 = h.quantile(0.5);
        assert!((4..8).contains(&q50), "q50={q50}");
        // The max sample is bracketed by its bucket's upper edge.
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new(1);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
