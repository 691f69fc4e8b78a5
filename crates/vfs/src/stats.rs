//! VFS contention diagnostics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of shared-cache-line events inside the VFS.
///
/// The simulator and the figure harness use these to attribute time the
/// way the paper does: every counter here is an event that, on real
/// hardware, pulls a contended line or serializes on a lock.
#[derive(Debug, Default)]
pub struct VfsStats {
    /// Per-dentry spin-lock acquisitions during lookup (stock `dlookup`).
    pub dentry_lock_acquisitions: AtomicU64,
    /// Lock-free lookups that succeeded without any shared write.
    pub lockfree_lookups: AtomicU64,
    /// Lock-free lookups that had to fall back to the locking protocol.
    pub lockfree_fallbacks: AtomicU64,
    /// Global mount-table lock acquisitions.
    pub mount_central_lookups: AtomicU64,
    /// Mount lookups satisfied from a per-core cache.
    pub mount_percore_hits: AtomicU64,
    /// Global open-file-list lock acquisitions.
    pub open_list_global_ops: AtomicU64,
    /// Per-core open-file-list operations.
    pub open_list_percore_ops: AtomicU64,
    /// Expensive cross-core removals (file closed on a different core).
    pub open_list_cross_core_removals: AtomicU64,
    /// `lseek` calls that acquired the per-inode mutex (stock).
    pub lseek_mutex_acquisitions: AtomicU64,
    /// `lseek` calls served by atomic reads (PK).
    pub lseek_atomic_reads: AtomicU64,
    /// Global inode/dcache list-lock acquisitions (stock bookkeeping).
    pub list_lock_acquisitions: AtomicU64,
    /// List-lock acquisitions skipped because they were unnecessary (PK).
    pub list_lock_skips: AtomicU64,
    /// Dcache hits.
    pub dcache_hits: AtomicU64,
    /// Dcache misses (demand-populated from the backing file system).
    pub dcache_misses: AtomicU64,
    /// Dentries evicted by the shrinker (each one paid a reconcile).
    pub dcache_evictions: AtomicU64,
    /// Dentry allocations that failed with ENOMEM (injected faults).
    pub dentry_alloc_failures: AtomicU64,
    /// Lookup misses forced by injected dcache memory pressure.
    pub dcache_pressure_misses: AtomicU64,
    /// Whole-path RCU walks that completed without any shared write —
    /// no refcount op, no lock, per component (generation-2 fix).
    pub rcu_walks: AtomicU64,
    /// RCU walks that dropped to the reference walk (torn seqcount,
    /// cold dcache entry, or cold mount snapshot).
    pub rcu_walk_fallbacks: AtomicU64,
}

impl VfsStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps a counter by one (helper for terse call sites).
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

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

    /// Resets every counter.
    pub fn reset(&self) {
        for c in [
            &self.dentry_lock_acquisitions,
            &self.lockfree_lookups,
            &self.lockfree_fallbacks,
            &self.mount_central_lookups,
            &self.mount_percore_hits,
            &self.open_list_global_ops,
            &self.open_list_percore_ops,
            &self.open_list_cross_core_removals,
            &self.lseek_mutex_acquisitions,
            &self.lseek_atomic_reads,
            &self.list_lock_acquisitions,
            &self.list_lock_skips,
            &self.dcache_hits,
            &self.dcache_misses,
            &self.dcache_evictions,
            &self.dentry_alloc_failures,
            &self.dcache_pressure_misses,
            &self.rcu_walks,
            &self.rcu_walk_fallbacks,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_and_local_partition() {
        let s = VfsStats::new();
        VfsStats::bump(&s.dentry_lock_acquisitions);
        VfsStats::bump(&s.lockfree_lookups);
        VfsStats::bump(&s.lockfree_lookups);
        assert_eq!(s.shared_events(), 1);
        assert_eq!(s.local_events(), 2);
        s.reset();
        assert_eq!(s.shared_events(), 0);
        assert_eq!(s.local_events(), 0);
    }
}
