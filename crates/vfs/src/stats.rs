//! VFS contention diagnostics.
//!
//! Every counter is a [`pk_percpu::Tally`]: bumped with a load + store on
//! a row only the calling thread writes, so PK's lock-free lookups do
//! not pay a shared-line RMW to be counted, and summed over the rows
//! when read. Exact for any mapping of threads to cores.

use std::sync::atomic::Ordering;

pk_percpu::tally_struct! {
    /// Counters of shared-cache-line events inside the VFS.
    ///
    /// The simulator and the figure harness use these to attribute time the
    /// way the paper does: every counter here is an event that, on real
    /// hardware, pulls a contended line or serializes on a lock.
    pub struct VfsStats {
        /// Per-dentry spin-lock acquisitions during lookup (stock `dlookup`).
        pub dentry_lock_acquisitions,
        /// Lock-free lookups that succeeded without any shared write.
        pub lockfree_lookups,
        /// Lock-free lookups that had to fall back to the locking protocol.
        pub lockfree_fallbacks,
        /// Global mount-table lock acquisitions.
        pub mount_central_lookups,
        /// Mount lookups satisfied from a per-core cache.
        pub mount_percore_hits,
        /// Global open-file-list lock acquisitions.
        pub open_list_global_ops,
        /// Per-core open-file-list operations.
        pub open_list_percore_ops,
        /// Expensive cross-core removals (file closed on a different core).
        pub open_list_cross_core_removals,
        /// `lseek` calls that acquired the per-inode mutex (stock).
        pub lseek_mutex_acquisitions,
        /// `lseek` calls served by atomic reads (PK).
        pub lseek_atomic_reads,
        /// Global inode/dcache list-lock acquisitions (stock bookkeeping).
        pub list_lock_acquisitions,
        /// List-lock acquisitions skipped because they were unnecessary (PK).
        pub list_lock_skips,
        /// Dcache hits.
        pub dcache_hits,
        /// Dcache misses (demand-populated from the backing file system).
        pub dcache_misses,
        /// Dentry allocations that failed with ENOMEM (injected faults).
        pub dentry_alloc_failures,
        /// Lookup misses forced by injected dcache memory pressure.
        pub dcache_pressure_misses,
        /// Whole-path RCU walks that completed without any shared write —
        /// no refcount op, no lock, per component (generation-2 fix).
        pub rcu_walks,
        /// RCU walks that dropped to the reference walk (torn seqcount,
        /// cold dcache entry, or cold mount snapshot).
        pub rcu_walk_fallbacks,
    }
}

impl VfsStats {
    /// Total shared (cross-core) events — the quantity PK minimizes.
    pub fn shared_events(&self) -> u64 {
        self.dentry_lock_acquisitions.load(Ordering::Relaxed)
            + self.lockfree_fallbacks.load(Ordering::Relaxed)
            + self.mount_central_lookups.load(Ordering::Relaxed)
            + self.open_list_global_ops.load(Ordering::Relaxed)
            + self.open_list_cross_core_removals.load(Ordering::Relaxed)
            + self.lseek_mutex_acquisitions.load(Ordering::Relaxed)
            + self.list_lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Total core-local events.
    pub fn local_events(&self) -> u64 {
        self.lockfree_lookups.load(Ordering::Relaxed)
            + self.rcu_walks.load(Ordering::Relaxed)
            + self.mount_percore_hits.load(Ordering::Relaxed)
            + self.open_list_percore_ops.load(Ordering::Relaxed)
            + self.lseek_atomic_reads.load(Ordering::Relaxed)
            + self.list_lock_skips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_and_local_partition() {
        let s = VfsStats::new();
        s.dentry_lock_acquisitions.bump();
        s.lockfree_lookups.bump();
        s.lockfree_lookups.bump();
        assert_eq!(s.shared_events(), 1);
        assert_eq!(s.local_events(), 2);
        s.reset();
        assert_eq!(s.shared_events(), 0);
        assert_eq!(s.local_events(), 0);
    }
}
