//! The interface shared by the counters a refcount or an accounting
//! site can sit on.

use pk_percpu::CoreId;

/// A concurrent counter that can be incremented/decremented from a core
/// and read (possibly expensively) as a whole.
///
/// Per-core designs "speed up increment/decrement by use of per-core
/// counters, and require significantly more work to find the true total
/// value" (§4.3): [`Counter::add`] is the fast path, [`Counter::value`]
/// the expensive one.
pub trait Counter: Send + Sync {
    /// Adds `delta` (may be negative) on behalf of `core`.
    fn add(&self, core: CoreId, delta: i64);

    /// Returns the current logical value. May traverse all cores.
    fn value(&self) -> i64;

    /// Returns `(central_ops, local_ops)`: operations that touched a
    /// shared cache line versus ones that stayed core-local. Designs
    /// that do not track the split return `(0, 0)`.
    fn op_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomicCounter, SloppyCounter, Snzi};

    fn all_counters(cores: usize) -> Vec<Box<dyn Counter>> {
        vec![
            Box::new(AtomicCounter::new()),
            Box::new(SloppyCounter::new(cores)),
            Box::new(Snzi::new(cores, 2)),
        ]
    }

    #[test]
    fn every_design_counts_correctly() {
        for (i, c) in all_counters(4).iter().enumerate() {
            for core in 0..4 {
                c.add(CoreId(core), 5);
                c.add(CoreId(core), -2);
            }
            assert_eq!(c.value(), 12, "design {i} wrong");
        }
    }

    #[test]
    fn every_design_returns_to_zero() {
        for (i, c) in all_counters(3).iter().enumerate() {
            for core in 0..3 {
                c.add(CoreId(core), 7);
            }
            for core in 0..3 {
                c.add(CoreId(core), -7);
            }
            assert_eq!(c.value(), 0, "design {i} wrong");
        }
    }
}
