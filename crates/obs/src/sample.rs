//! The wire format between instrumented crates and reports.

use std::fmt;

/// Per-lock contention measurements, as recorded by `pk-sync`'s
/// `LockStats` (the paper's per-lock wait-time attribution, §4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSample {
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Estimated cycles burned spinning across all contended acquires.
    pub spin_cycles: u64,
}

impl LockSample {
    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }
}

/// A bucketed histogram of u64 samples (latencies in cycles), recorded
/// in place by its single owner.
///
/// Buckets are log2 below `2^TAIL_SPLIT` and 8-per-octave above it
/// (see [`crate::buckets`]): a fixed footprint and a branch-free record
/// path, like the kernel's own latency histograms, but
/// [`HistogramSnapshot::quantile`] answers "what value do q of the
/// samples fall below" to within 1/8 everywhere a latency tail can
/// live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts with the boundaries of [`crate::buckets`]: bucket
    /// 0 holds zeros, log2 buckets below the tail split, 8 sub-buckets
    /// per octave above it.
    pub buckets: Vec<u64>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Records one sample in place. The sum wraps on overflow, so it is
    /// the same pure function of the sample multiset in debug and
    /// release builds. The single owner needs no per-core shards and no
    /// atomic read-modify-writes.
    pub fn record(&mut self, value: u64) {
        self.buckets[crate::buckets::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// An upper bound on the `q`-quantile (e.g. `0.99`): the inclusive
    /// upper edge of the first bucket whose cumulative count reaches
    /// `q * count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target.max(1) {
                return crate::buckets::bucket_upper_edge(i);
            }
        }
        u64::MAX
    }
}

/// One measurement value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone event count.
    Counter(u64),
    /// A signed instantaneous value.
    Gauge(i64),
    /// Per-lock contention counters.
    Lock(LockSample),
    /// How many operations hit a shared cache line versus stayed
    /// core-local — the sloppy-counter trade-off made visible (§4.3).
    OpMix {
        /// Operations that touched the shared central state.
        central: u64,
        /// Operations satisfied from per-core state.
        local: u64,
    },
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Dotted metric name (e.g. `vfs.mount_central_lookups`) or the
    /// resource label (e.g. `vfsmount-table lock`).
    pub name: String,
    /// The measured value.
    pub value: MetricValue,
}

impl Sample {
    /// A plain counter sample.
    pub fn counter(name: impl Into<String>, value: u64) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge sample.
    pub fn gauge(name: impl Into<String>, value: i64) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A lock-contention sample.
    pub fn lock(name: impl Into<String>, lock: LockSample) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Lock(lock),
        }
    }

    /// A central-vs-local operation mix sample.
    pub fn op_mix(name: impl Into<String>, central: u64, local: u64) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::OpMix { central, local },
        }
    }
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            MetricValue::Counter(v) => write!(f, "{} = {v}", self.name),
            MetricValue::Gauge(v) => write!(f, "{} = {v}", self.name),
            MetricValue::Lock(l) => write!(
                f,
                "{}: {} acquires, {} contended ({:.1}%), {} spin cycles",
                self.name,
                l.acquisitions,
                l.contended,
                l.contention_ratio() * 100.0,
                l.spin_cycles
            ),
            MetricValue::OpMix { central, local } => {
                let total = central + local;
                let pct = if total == 0 {
                    0.0
                } else {
                    *central as f64 / total as f64 * 100.0
                };
                write!(
                    f,
                    "{}: {central} central / {local} local ops ({pct:.2}% shared)",
                    self.name
                )
            }
        }
    }
}

/// An ordered collection of samples taken at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    samples: Vec<Sample>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Returns the first sample with the given name, if any.
    pub fn find(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Iterates over the samples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl IntoIterator for Snapshot {
    type Item = Sample;
    type IntoIter = std::vec::IntoIter<Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.into_iter()
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.samples {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_find_and_order() {
        let mut snap = Snapshot::new();
        snap.push(Sample::counter("a", 1));
        snap.push(Sample::gauge("b", -2));
        assert_eq!(snap.len(), 2);
        assert!(snap.find("b").is_some());
        assert!(snap.find("c").is_none());
        let names: Vec<_> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn histogram_records_in_place() {
        let mut h = HistogramSnapshot {
            buckets: vec![0; crate::buckets::BUCKETS],
            count: 0,
            sum: 0,
        };
        assert_eq!(h.quantile(0.99), 0, "an empty histogram reports 0");
        for v in [1u64, 2, 4, 100, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1106, "the sum wraps: 1107 + u64::MAX");
        // The median sample is 4; its log2 bucket's upper edge is 7.
        assert!((4..8).contains(&h.quantile(0.5)));
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn lock_sample_ratio() {
        let l = LockSample {
            acquisitions: 10,
            contended: 4,
            spin_cycles: 100,
        };
        assert!((l.contention_ratio() - 0.4).abs() < 1e-12);
        let empty = LockSample {
            acquisitions: 0,
            contended: 0,
            spin_cycles: 0,
        };
        assert_eq!(empty.contention_ratio(), 0.0);
    }

    #[test]
    fn display_is_humane() {
        let s = Sample::op_mix("dentry-refcount", 2, 98);
        let text = s.to_string();
        assert!(text.contains("2 central"), "{text}");
        assert!(text.contains("2.00% shared"), "{text}");
    }
}
