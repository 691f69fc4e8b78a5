//! A common interface over all counter designs.

use pk_percpu::CoreId;

/// A concurrent counter that can be incremented/decremented from a core
/// and read (possibly expensively) as a whole.
///
/// The paper compares sloppy counters with SNZI, distributed counters, and
/// approximate counters; "all of these techniques speed up
/// increment/decrement by use of per-core counters, and require
/// significantly more work to find the true total value" (§4.3). This
/// trait makes the trade-off measurable: [`Counter::add`] is the fast
/// path, [`Counter::value`] the expensive one.
pub trait Counter: Send + Sync {
    /// Adds `delta` (may be negative) on behalf of `core`.
    fn add(&self, core: CoreId, delta: i64);

    /// Returns the current logical value. May traverse all cores.
    fn value(&self) -> i64;

    /// Returns whether the logical value is nonzero.
    ///
    /// Designs like SNZI answer this much more cheaply than [`value`];
    /// the default implementation just compares.
    ///
    /// [`value`]: Counter::value
    fn is_nonzero(&self) -> bool {
        self.value() != 0
    }

    /// A short human-readable name for benchmark tables.
    fn name(&self) -> &'static str;

    /// Returns `(central_ops, local_ops)`: operations that touched a
    /// shared cache line versus ones that stayed core-local. Designs
    /// that do not track the split return `(0, 0)`.
    fn op_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Packages [`Counter::op_counts`] as a `pk-obs` sample, named
    /// after the design. This is how every counter joins the
    /// observability layer: the report can compare how often each
    /// design pays for shared state.
    fn sample(&self) -> pk_obs::Sample {
        let (central, local) = self.op_counts();
        pk_obs::Sample::op_mix(self.name(), central, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxCounter, AtomicCounter, DistributedCounter, SloppyCounter, SnziCounter};

    fn all_counters(cores: usize) -> Vec<Box<dyn Counter>> {
        vec![
            Box::new(AtomicCounter::new()),
            Box::new(DistributedCounter::new(cores)),
            Box::new(ApproxCounter::new(cores, 16)),
            Box::new(SloppyCounter::new(cores)),
            Box::new(SnziCounter::new(cores)),
        ]
    }

    #[test]
    fn every_design_counts_correctly() {
        for c in all_counters(4) {
            for core in 0..4 {
                c.add(CoreId(core), 5);
                c.add(CoreId(core), -2);
            }
            assert_eq!(c.value(), 12, "{} wrong", c.name());
            assert!(c.is_nonzero(), "{} nonzero wrong", c.name());
        }
    }

    #[test]
    fn every_design_returns_to_zero() {
        for c in all_counters(3) {
            for core in 0..3 {
                c.add(CoreId(core), 7);
            }
            for core in 0..3 {
                c.add(CoreId(core), -7);
            }
            assert_eq!(c.value(), 0, "{} wrong", c.name());
            assert!(!c.is_nonzero(), "{} nonzero wrong", c.name());
        }
    }
}
