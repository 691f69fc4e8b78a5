//! The per-core reference count: the fast path of Linux's `percpu_ref`.
//!
//! A get or a put is one `fetch_add` on the acting core's own line, and
//! the tally of operations sits beside the count on that line, so an
//! operation — bookkeeping included — writes nothing another core
//! reads. There is no lock, no shared word and no threshold: a core's
//! count is whatever its gets minus its puts come to, negative where
//! references taken elsewhere were dropped, and only the sum over every
//! core means anything.
//!
//! The shares live in a [`PerCoreArena`] owned by whoever creates the
//! counts (the dcache, the mount table, the dst cache), as `percpu_ref`'s
//! live in `alloc_percpu` memory: a count is one 16-byte lane per core,
//! packed 64 objects to a per-core row. Only core `c` writes row `c`, so
//! the eight counts that share a line are all written by the core that
//! owns it, and the dense rows cost a count `cores × 16` bytes where a
//! cache-aligned line per core cost `cores × 128` (see
//! [`pk_percpu::arena`] for the full argument).

use crate::traits::Counter;
use pk_percpu::{owner_add, CoreId, PerCoreArena, PerCoreLane};
use std::sync::atomic::Ordering;

/// One counter split into per-core counts that are never reconciled
/// into a central word: the value is their sum.
///
/// Exact at quiescence for any thread-to-core mapping (every count
/// moves by RMW). A [`Counter::value`] read while references migrate is
/// not a snapshot: a get on a core already summed and a put on one not
/// yet summed can make the sum miss a reference that was held
/// throughout. Linux's `percpu_ref` closes that with a grace period
/// before it sums ("kill"); the [`crate::Lifecycle`] over this counter
/// settles without one, so its `try_dealloc` is exact only while no
/// reference migrates under it (the [`crate::Snzi`] tree's fold has the
/// same window).
///
/// # Examples
///
/// ```
/// use pk_percpu::{CoreId, PerCoreArena};
/// use pk_sloppy::{Counter, PerCoreCount};
///
/// let arena = PerCoreArena::new(4);
/// let c = PerCoreCount::new(&arena);
/// c.add(CoreId(1), 1); // a get on core 1
/// c.add(CoreId(3), -1); // its put, migrated to core 3
/// assert_eq!(c.value(), 0);
/// assert_eq!(c.op_counts(), (0, 2), "both stayed on their own core's line");
/// ```
#[derive(Debug)]
pub struct PerCoreCount {
    /// This count's slot in each core's row. A slot's `ops` is written
    /// with a relaxed load + store by the acting core, so it is exact
    /// under the one-thread-per-core discipline `check_percore_mutation`
    /// enforces; threads sharing a `CoreId` may lose counts there (never
    /// references).
    lane: PerCoreLane,
}

impl PerCoreCount {
    /// Creates a zeroed counter with one slot per `arena` core.
    pub fn new(arena: &PerCoreArena) -> Self {
        Self {
            lane: arena.alloc(),
        }
    }
}

impl Counter for PerCoreCount {
    #[inline]
    fn add(&self, core: CoreId, delta: i64) {
        pk_lockdep::check_percore_mutation("percore.ref.slot", core.index());
        let slot = self.lane.get(core);
        // A put's release pairs with `value`'s acquire loads: what a
        // holder did before its put happens-before a settle that sums
        // the put.
        slot.count.fetch_add(delta, Ordering::AcqRel);
        owner_add(&slot.ops, 1);
    }

    /// Sums every core's count: one read of each core's row.
    fn value(&self) -> i64 {
        self.lane
            .iter()
            .map(|s| s.count.load(Ordering::Acquire))
            .sum()
    }

    /// No operation writes a shared line.
    fn op_counts(&self) -> (u64, u64) {
        (
            0,
            self.lane
                .iter()
                .map(|s| s.ops.load(Ordering::Relaxed))
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrated_operations_sum_exactly_and_stay_local() {
        let c = PerCoreCount::new(&PerCoreArena::new(4));
        for core in 0..4 {
            c.add(CoreId(core), 3);
            c.add(CoreId(3 - core), -1);
        }
        assert_eq!(c.value(), 8);
        assert_eq!(c.op_counts(), (0, 8));
        // A core id past the slot count wraps onto an existing slot.
        c.add(CoreId(6), -8);
        assert_eq!(c.value(), 0);
        assert_eq!(
            c.lane.get(CoreId(2)).count.load(Ordering::Relaxed),
            3 - 1 - 8
        );
    }
}
