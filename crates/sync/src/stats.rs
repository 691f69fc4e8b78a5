//! Lock contention statistics.
//!
//! A lock's counters are written by whoever already owns the line: the
//! thread that has just won the lock. [`LockStats::record_acquisition`]
//! is crate-private and every caller invokes it between the acquiring
//! atomic and the guard's release, so its updates are plain relaxed
//! loads and stores — ordered between successive holders by the lock's
//! own acquire/release pair, never lost, and no second `lock`-prefixed
//! instruction on the uncontended path.

use pk_percpu::owner_add;
use std::sync::atomic::{AtomicU64, Ordering};

/// Nominal cost of one failed spin iteration, in cycles: a read of a
/// remote modified cache line on the paper's 48-core machine costs
/// 100–380 cycles depending on distance (§2); each spin retry is one
/// such coherence round-trip, so we charge the on-chip cost.
pub const CYCLES_PER_SPIN_ITERATION: u64 = 100;

/// Counters describing how contended a lock has been.
///
/// The paper attributes scalability collapse to time spent "waiting for
/// and acquiring spin locks and mutexes" (§4.7); these counters let the
/// workloads and the simulator make the same attribution. The counts
/// are exact: they are only written under the lock they describe (see
/// the module docs). Readers use relaxed loads — diagnostics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    spin_iterations: AtomicU64,
}

impl LockStats {
    /// Creates zeroed statistics.
    pub const fn new() -> Self {
        Self {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            spin_iterations: AtomicU64::new(0),
        }
    }

    /// Records one acquisition; `spins` is the number of failed attempts
    /// before the lock was obtained (0 means uncontended).
    ///
    /// Must be called by the thread that holds the lock these statistics
    /// belong to, before it releases it: the holder is the only writer,
    /// which is what makes load + store exact.
    #[inline]
    pub(crate) fn record_acquisition(&self, spins: u64) {
        owner_add(&self.acquisitions, 1);
        if spins > 0 {
            owner_add(&self.contended, 1);
            owner_add(&self.spin_iterations, spins);
        }
    }

    /// Total successful acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to wait at least one spin iteration.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Total spin iterations across all contended acquisitions.
    pub fn spin_iterations(&self) -> u64 {
        self.spin_iterations.load(Ordering::Relaxed)
    }

    /// Estimated cycles burned spinning, charging
    /// [`CYCLES_PER_SPIN_ITERATION`] per failed attempt.
    pub fn spin_cycles(&self) -> u64 {
        self.spin_iterations()
            .saturating_mul(CYCLES_PER_SPIN_ITERATION)
    }

    /// Packages the counters as a named [`pk_obs::Sample`] for the
    /// contention report.
    pub fn sample(&self, name: impl Into<String>) -> pk_obs::Sample {
        pk_obs::Sample::lock(
            name,
            pk_obs::LockSample {
                acquisitions: self.acquisitions(),
                contended: self.contended(),
                spin_cycles: self.spin_cycles(),
            },
        )
    }

    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        let total = self.acquisitions();
        if total == 0 {
            0.0
        } else {
            self.contended() as f64 / total as f64
        }
    }

    /// Resets all counters to zero. Meant for a quiescent lock: an
    /// acquisition racing the reset may survive it.
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.spin_iterations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_uncontended_and_contended() {
        let s = LockStats::new();
        s.record_acquisition(0);
        s.record_acquisition(5);
        s.record_acquisition(3);
        assert_eq!(s.acquisitions(), 3);
        assert_eq!(s.contended(), 2);
        assert_eq!(s.spin_iterations(), 8);
        assert!((s.contention_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(LockStats::new().contention_ratio(), 0.0);
    }

    #[test]
    fn sample_carries_the_counters() {
        let s = LockStats::new();
        s.record_acquisition(0);
        s.record_acquisition(4);
        let sample = s.sample("d_lock");
        assert_eq!(sample.name, "d_lock");
        match sample.value {
            pk_obs::MetricValue::Lock(l) => {
                assert_eq!(l.acquisitions, 2);
                assert_eq!(l.contended, 1);
                assert_eq!(l.spin_cycles, 4 * CYCLES_PER_SPIN_ITERATION);
            }
            v => panic!("wrong value kind: {v:?}"),
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = LockStats::new();
        s.record_acquisition(9);
        s.reset();
        assert_eq!(s.acquisitions(), 0);
        assert_eq!(s.contended(), 0);
        assert_eq!(s.spin_iterations(), 0);
    }
}
