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

/// Per-station queueing measurements from the simulator (MVA solve or
/// discrete-event run): where each operation's cycles go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationSample {
    /// Service demand per operation, cycles.
    pub demand_cycles: f64,
    /// Mean residence (service + waiting) per operation, cycles.
    pub residence_cycles: f64,
    /// Mean waiting per operation, cycles — the queueing delay the
    /// paper attributes to contended locks and cache lines.
    pub wait_cycles: f64,
    /// Mean queue length seen at the station.
    pub queue_len: f64,
    /// Server utilization in `[0, 1]`.
    pub utilization: f64,
    /// Cache-line transfers per operation charged to this station by
    /// the MESI cost model (0 when the solver does not track them).
    pub line_transfers: f64,
    /// Whether residence here is system (kernel) time.
    pub is_system: bool,
}

/// A merged, immutable view of a [`crate::Histogram`].
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
    /// Upper bound on the `q`-quantile; see [`crate::Histogram::quantile`].
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

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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
    /// Per-station queueing detail from the simulator.
    Station(StationSample),
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

    /// A simulator station sample.
    pub fn station(name: impl Into<String>, station: StationSample) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Station(station),
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
            MetricValue::Station(s) => write!(
                f,
                "{}: {:.0} cycles/op ({:.0} waiting), queue {:.2}, util {:.2}",
                self.name, s.residence_cycles, s.wait_cycles, s.queue_len, s.utilization
            ),
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

    /// Appends every sample from `other`.
    pub fn extend(&mut self, other: Snapshot) {
        self.samples.extend(other.samples);
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

/// A pull-based metric source: subsystems that already own their
/// counters (lock stats, VFS stats, op mixes) implement this, and a
/// report polls the sources it wants into one [`Snapshot`].
pub trait Collect: Send + Sync {
    /// Appends this source's current samples to `out`.
    fn collect(&self, out: &mut Snapshot);
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
