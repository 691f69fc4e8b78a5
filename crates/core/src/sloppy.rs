//! The sloppy counter (paper §4.3).
//!
//! A local acquire or release "modifies only the per-core counter": the
//! spare count and the tally of local operations share one per-core
//! slot, so the whole operation — bookkeeping included — writes exactly
//! one cache line, the acting core's own. Only an operation that goes to
//! the central counter writes a shared line, and its tally
//! (`central_ops`) sits beside the central RMW it accompanies.

use pk_percpu::{owner_add, CoreId, PerCore};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Tuning parameters for a [`SloppyCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloppyConfig {
    /// Spare references a core may bank before returning the excess to the
    /// central counter. The paper: "if the local count grows above some
    /// threshold, spare references are released by decrementing both the
    /// per-core count and the central count."
    pub threshold: i64,
    /// How many *extra* references to pull from the central counter when a
    /// local acquire misses. The paper's base protocol pulls exactly the
    /// requested amount (`prefetch = 0`); pulling a batch amortizes central
    /// contention further at the cost of more slop. Exercised by the
    /// `ablate_threshold` experiment.
    pub prefetch: i64,
}

impl Default for SloppyConfig {
    fn default() -> Self {
        Self {
            threshold: 8,
            prefetch: 0,
        }
    }
}

/// One logical counter split into a shared central counter and per-core
/// spare-reference counts.
///
/// All operations name the acting core explicitly (the userspace analogue
/// of being "on" a CPU), which keeps the type usable both from registered
/// host threads and from the discrete-event simulator.
///
/// # Invariant
///
/// `central = in_use + Σ local_spares` at every quiescent point, where
/// `in_use` is the number of acquired-but-unreleased references. This is
/// checked by unit and property tests, and [`Self::in_use`] computes the
/// right-hand side subtraction explicitly.
///
/// # Examples
///
/// ```
/// use pk_percpu::CoreId;
/// use pk_sloppy::SloppyCounter;
///
/// let c = SloppyCounter::new(4);
/// c.acquire(CoreId(0), 1);       // central += 1 (no spares yet)
/// assert_eq!(c.central(), 1);
/// c.release(CoreId(0), 1);       // banked locally, central unchanged
/// assert_eq!(c.central(), 1);
/// c.acquire(CoreId(0), 1);       // satisfied from the local spare
/// assert_eq!(c.central(), 1);    // central never touched again
/// assert_eq!(c.in_use(), 1);
/// ```
#[derive(Debug)]
pub struct SloppyCounter {
    central: AtomicI64,
    local: PerCore<Slot>,
    config: SloppyConfig,
    central_ops: AtomicU64,
}

/// One core's share: the spares it has banked and the count of
/// operations they absorbed, on one line.
#[derive(Debug, Default)]
struct Slot {
    spares: AtomicI64,
    /// Local (non-central) operations on this slot. Written with a
    /// relaxed load + store by the acting core, so it is exact under the
    /// one-thread-per-core discipline `check_percore_mutation` enforces;
    /// threads sharing a `CoreId` may lose counts here (never spares).
    ops: AtomicU64,
}

impl SloppyCounter {
    /// Creates a counter with `cores` per-core slots and default tuning.
    pub fn new(cores: usize) -> Self {
        Self::with_config(cores, SloppyConfig::default())
    }

    /// Creates a counter with explicit tuning parameters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold < 0` or `prefetch < 0`.
    pub fn with_config(cores: usize, config: SloppyConfig) -> Self {
        assert!(config.threshold >= 0, "threshold must be non-negative");
        assert!(config.prefetch >= 0, "prefetch must be non-negative");
        Self {
            central: AtomicI64::new(0),
            local: PerCore::new(cores),
            config,
            central_ops: AtomicU64::new(0),
        }
    }

    /// Returns the number of per-core slots.
    pub fn cores(&self) -> usize {
        self.local.cores()
    }

    /// Acquires `v` references on behalf of `core`.
    ///
    /// First tries to take the references from the core's spare count; on
    /// a miss, charges the central counter (plus the configured prefetch,
    /// which is banked as spares).
    ///
    /// # Panics
    ///
    /// Panics if `v < 0`.
    pub fn acquire(&self, core: CoreId, v: i64) {
        assert!(v >= 0, "acquire amount must be non-negative");
        pk_lockdep::check_percore_mutation("sloppy.counter.bank", core.index());
        let slot = self.local.get(core);
        let spares = &slot.spares;
        // Try to decrement the per-core counter by `v`; succeed only if it
        // holds at least `v` spares. A CAS loop keeps the slot non-negative
        // even if another thread shares this logical core id.
        let mut cur = spares.load(Ordering::Relaxed);
        while cur >= v {
            match spares.compare_exchange_weak(cur, cur - v, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => {
                    owner_add(&slot.ops, 1);
                    return;
                }
                Err(actual) => cur = actual,
            }
        }
        // Miss: acquire from the central counter.
        let pull = v + self.config.prefetch;
        self.central.fetch_add(pull, Ordering::AcqRel);
        self.central_ops.fetch_add(1, Ordering::Relaxed);
        if self.config.prefetch > 0 {
            let after =
                spares.fetch_add(self.config.prefetch, Ordering::AcqRel) + self.config.prefetch;
            // Banking the prefetch must honour the same threshold as
            // `release`: with `prefetch > threshold` (or concurrent
            // releases racing into the same slot) the bank could
            // otherwise exceed the threshold and stay there forever,
            // breaking the documented bound on banked spares.
            self.return_excess(spares, after);
        }
    }

    /// Returns the excess above the threshold from `slot` (whose value
    /// was just observed as `after`) to the central counter.
    ///
    /// The excess is claimed from the slot by CAS *before* the central
    /// subtraction, so concurrent callers can never double-return the
    /// same spares, and a concurrent `acquire` draining the slot simply
    /// shrinks (or cancels) the claim.
    fn return_excess(&self, slot: &AtomicI64, after: i64) {
        let threshold = self.config.threshold;
        if after <= threshold {
            return;
        }
        let excess = after - threshold;
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let take = excess.min(cur);
            if take <= 0 {
                return;
            }
            match slot.compare_exchange_weak(cur, cur - take, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => {
                    self.central.fetch_sub(take, Ordering::AcqRel);
                    self.central_ops.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `v` references on behalf of `core`.
    ///
    /// The references are banked as local spares; if the local count then
    /// exceeds the threshold, the excess is returned to the central
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if `v < 0`.
    pub fn release(&self, core: CoreId, v: i64) {
        assert!(v >= 0, "release amount must be non-negative");
        pk_lockdep::check_percore_mutation("sloppy.counter.bank", core.index());
        let slot = self.local.get(core);
        let after = slot.spares.fetch_add(v, Ordering::AcqRel) + v;
        owner_add(&slot.ops, 1);
        self.return_excess(&slot.spares, after);
    }

    /// Returns the central counter value: references in use **plus** all
    /// banked spares. This is the view legacy shared-counter code sees,
    /// and it is always an upper bound on [`Self::in_use`].
    pub fn central(&self) -> i64 {
        self.central.load(Ordering::Acquire)
    }

    /// Returns the sum of per-core spare counts.
    pub fn spares(&self) -> i64 {
        self.local
            .fold(0, |a, s| a + s.spares.load(Ordering::Acquire))
    }

    /// Computes the true logical value (references actually in use).
    ///
    /// This is the "significantly more work" read the paper warns about:
    /// it touches every core's cache line.
    pub fn in_use(&self) -> i64 {
        self.central() - self.spares()
    }

    /// Flushes every core's spares back to the central counter and returns
    /// the exact logical value.
    ///
    /// This is the reconciliation step needed "when deciding whether an
    /// object can be de-allocated" — expensive, so "sloppy counters should
    /// only be used for objects that are relatively infrequently
    /// de-allocated."
    pub fn reconcile(&self) -> i64 {
        // Reconciliation sweeps every core's bank from one core — the
        // §4.3 "expensive" de-allocation step, by design cross-core.
        let _migrate = pk_lockdep::MigrationScope::enter();
        for slot in self.local.iter() {
            let spares = slot.spares.swap(0, Ordering::AcqRel);
            if spares != 0 {
                self.central.fetch_sub(spares, Ordering::AcqRel);
                self.central_ops.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.central()
    }

    /// Returns `(central_ops, local_ops)`: how many operations hit the
    /// shared cache line versus stayed core-local. The whole point of the
    /// technique is to make the first number small.
    ///
    /// `local_ops` folds the per-core slots. It is exact when each
    /// `CoreId` is driven by one thread at a time (the discipline
    /// `pk_lockdep::check_percore_mutation` enforces); threads that share
    /// a `CoreId` keep every *value* identity — the spares are moved by
    /// CAS and RMW — but race on the slot's plain op tally, so there it
    /// is a lower bound on the local operations performed.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.central_ops.load(Ordering::Relaxed),
            self.local.fold(0, |a, s| a + s.ops.load(Ordering::Relaxed)),
        )
    }

    /// Returns the tuning configuration.
    pub fn config(&self) -> SloppyConfig {
        self.config
    }
}

impl crate::traits::Counter for SloppyCounter {
    fn add(&self, core: CoreId, delta: i64) {
        if delta >= 0 {
            self.acquire(core, delta);
        } else {
            self.release(core, -delta);
        }
    }

    fn value(&self) -> i64 {
        self.in_use()
    }

    fn name(&self) -> &'static str {
        "sloppy"
    }

    fn op_counts(&self) -> (u64, u64) {
        SloppyCounter::op_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn assert_invariant(c: &SloppyCounter, in_use: i64) {
        assert_eq!(
            c.central(),
            in_use + c.spares(),
            "central = in_use + spares violated"
        );
        assert_eq!(c.in_use(), in_use);
    }

    #[test]
    fn acquire_miss_hits_central() {
        let c = SloppyCounter::new(2);
        c.acquire(CoreId(0), 3);
        assert_eq!(c.central(), 3);
        assert_eq!(c.spares(), 0);
        assert_invariant(&c, 3);
    }

    #[test]
    fn release_banks_spares_locally() {
        let c = SloppyCounter::new(2);
        c.acquire(CoreId(0), 5);
        c.release(CoreId(0), 5);
        assert_eq!(c.central(), 5, "central untouched by local release");
        assert_eq!(c.spares(), 5);
        assert_invariant(&c, 0);
    }

    #[test]
    fn acquire_hit_consumes_spares() {
        let c = SloppyCounter::new(2);
        c.acquire(CoreId(1), 4);
        c.release(CoreId(1), 4);
        let (central_before, _) = c.op_counts();
        c.acquire(CoreId(1), 2);
        let (central_after, _) = c.op_counts();
        assert_eq!(central_before, central_after, "hit must not touch central");
        assert_invariant(&c, 2);
    }

    #[test]
    fn spares_are_per_core() {
        let c = SloppyCounter::new(2);
        c.acquire(CoreId(0), 2);
        c.release(CoreId(0), 2);
        // Core 1 has no spares; it must go to the central counter.
        let (before, _) = c.op_counts();
        c.acquire(CoreId(1), 1);
        let (after, _) = c.op_counts();
        assert_eq!(after, before + 1);
        assert_invariant(&c, 1);
    }

    #[test]
    fn threshold_releases_excess() {
        let c = SloppyCounter::with_config(
            2,
            SloppyConfig {
                threshold: 4,
                prefetch: 0,
            },
        );
        c.acquire(CoreId(0), 10);
        c.release(CoreId(0), 10); // 10 spares > threshold 4 → 6 returned
        assert_eq!(c.spares(), 4);
        assert_eq!(c.central(), 4);
        assert_invariant(&c, 0);
    }

    #[test]
    fn prefetch_banks_extra() {
        let c = SloppyCounter::with_config(
            2,
            SloppyConfig {
                threshold: 64,
                prefetch: 3,
            },
        );
        c.acquire(CoreId(0), 1);
        assert_eq!(c.central(), 4);
        assert_eq!(c.spares(), 3);
        assert_invariant(&c, 1);
        // Next three acquires are free.
        let (before, _) = c.op_counts();
        for _ in 0..3 {
            c.acquire(CoreId(0), 1);
        }
        assert_eq!(c.op_counts().0, before);
        assert_invariant(&c, 4);
    }

    #[test]
    fn prefetch_above_threshold_is_returned() {
        // Regression: banking the prefetch used to skip the threshold
        // check, so a prefetch larger than the threshold left the slot
        // over-full forever.
        let c = SloppyCounter::with_config(
            2,
            SloppyConfig {
                threshold: 4,
                prefetch: 100,
            },
        );
        c.acquire(CoreId(0), 1);
        assert!(
            c.spares() <= 4,
            "banked spares must respect the threshold, got {}",
            c.spares()
        );
        assert_invariant(&c, 1);
    }

    #[test]
    fn op_mix_sample_reports_central_share() {
        use crate::traits::Counter;
        let c = SloppyCounter::new(2);
        c.acquire(CoreId(0), 1); // central
        c.release(CoreId(0), 1); // local
        c.acquire(CoreId(0), 1); // local
        let sample = Counter::sample(&c);
        assert_eq!(sample.name, "sloppy");
        match sample.value {
            pk_obs::MetricValue::OpMix { central, local } => {
                assert_eq!(central, 1);
                assert_eq!(local, 2);
            }
            v => panic!("wrong value kind: {v:?}"),
        }
    }

    #[test]
    fn reconcile_returns_exact_value() {
        let c = SloppyCounter::new(4);
        for i in 0..4 {
            c.acquire(CoreId(i), 3);
            c.release(CoreId(i), 2);
        }
        assert_eq!(c.reconcile(), 4);
        assert_eq!(c.spares(), 0);
        assert_invariant(&c, 4);
    }

    #[test]
    fn zero_amounts_are_noops() {
        let c = SloppyCounter::new(1);
        c.acquire(CoreId(0), 0);
        c.release(CoreId(0), 0);
        assert_eq!(c.central(), 0);
        assert_invariant(&c, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_acquire_panics() {
        SloppyCounter::new(1).acquire(CoreId(0), -1);
    }

    #[test]
    fn figure2_trace() {
        // Reproduces the Figure 2 narrative: core 0 acquires from central,
        // releases locally, then reacquires the spare without touching the
        // central counter.
        let c = SloppyCounter::new(2);
        c.acquire(CoreId(0), 1);
        let central_after_first = c.central();
        c.release(CoreId(0), 1);
        c.acquire(CoreId(0), 1);
        assert_eq!(c.central(), central_after_first);
        let (central_ops, local_ops) = c.op_counts();
        assert_eq!(central_ops, 1);
        assert_eq!(local_ops, 2); // one banked release + one spare acquire
    }

    #[test]
    fn concurrent_acquire_release_preserves_invariant() {
        let c = Arc::new(SloppyCounter::new(8));
        let handles: Vec<_> = (0..8)
            .map(|core| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        c.acquire(CoreId(core), 1);
                        c.release(CoreId(core), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.in_use(), 0);
        assert_eq!(c.reconcile(), 0);
    }

    #[test]
    fn mostly_local_under_steady_state() {
        let c = SloppyCounter::new(1);
        for _ in 0..1_000 {
            c.acquire(CoreId(0), 1);
            c.release(CoreId(0), 1);
        }
        let (central_ops, local_ops) = c.op_counts();
        assert!(
            central_ops <= 2,
            "steady state should be core-local, central_ops={central_ops}"
        );
        assert!(local_ops >= 1_998);
    }

    #[test]
    fn op_counts_are_exact_with_one_thread_per_core() {
        // The local tally is a load + store in the core's own slot: with
        // each core driven by one thread, every one of the 800 000 calls
        // must be counted, as central or as local, exactly once.
        const PAIRS: u64 = 100_000;
        let c = SloppyCounter::new(4);
        std::thread::scope(|s| {
            for core in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..PAIRS {
                        c.acquire(CoreId(core), 1);
                        c.release(CoreId(core), 1);
                    }
                });
            }
        });
        let (central, local) = c.op_counts();
        // One miss per core, then every acquire finds the spare its own
        // release banked; a lone spare never reaches the threshold.
        assert_eq!(central, 4);
        assert_eq!(central + local, 4 * 2 * PAIRS);
        assert_eq!(c.central(), c.spares(), "central = in_use (0) + spares");
        assert_eq!(c.in_use(), 0);
    }

    #[test]
    fn threads_sharing_a_core_keep_the_value_identities() {
        // Two threads on one `CoreId` break the per-core discipline. The
        // spares move by CAS and RMW, so no reference is lost or forged;
        // only the slot's plain op tally may drop counts (documented on
        // `op_counts`), so it is bounded, not pinned.
        const PAIRS: u64 = 100_000;
        let c = SloppyCounter::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..PAIRS {
                        c.acquire(CoreId(1), 1);
                        c.release(CoreId(1), 1);
                    }
                });
            }
        });
        assert_eq!(c.in_use(), 0);
        assert_eq!(c.central(), c.spares());
        assert!(
            (0..=2).contains(&c.spares()),
            "one spare per holder at most"
        );
        let (central, local) = c.op_counts();
        assert!(central >= 1, "the first acquire had to miss");
        assert!((1..=2 * 2 * PAIRS).contains(&local));
        assert_eq!(c.reconcile(), 0);
    }
}
