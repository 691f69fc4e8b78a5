//! The per-node physical page allocator.

use crate::config::MmConfig;
use crate::stats::MmStats;
use pk_fault::{FaultPlane, FaultPoint};
use pk_sync::SpinLock;
use std::fmt;
use std::sync::Arc;

/// Error: every node is out of pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("out of physical pages on all nodes")
    }
}

impl std::error::Error for OutOfMemory {}

/// Per-node free-page pools under per-node locks.
///
/// "Linux associates a separate allocator with each socket to allocate
/// memory from that chip's attached DRAM" (§5.3). Allocation prefers the
/// requested node and falls back round-robin, counting remote
/// allocations — the stock DMA-buffer policy forced everything onto node
/// 0 and contended its lock.
#[derive(Debug)]
pub struct NumaAllocator {
    nodes: Vec<SpinLock<u64>>,
    capacity: u64,
    config: MmConfig,
    stats: Arc<MmStats>,
    /// `mm.alloc_enomem`: forces an allocation to fail as if every node
    /// were empty, exercising callers' ENOMEM paths.
    fault_enomem: FaultPoint,
    /// `mm.freelist_exhausted`: forces an allocation off its preferred
    /// node, as if the local free list had run dry.
    fault_freelist: FaultPoint,
}

impl NumaAllocator {
    /// Creates pools holding `config.pages_per_node` pages each.
    pub fn new(config: MmConfig, stats: Arc<MmStats>) -> Self {
        Self::with_faults(config, stats, &FaultPlane::disabled())
    }

    /// Like [`NumaAllocator::new`], with allocation failures injectable
    /// through `faults` (`mm.alloc_enomem`, `mm.freelist_exhausted`).
    pub fn with_faults(config: MmConfig, stats: Arc<MmStats>, faults: &FaultPlane) -> Self {
        let node_class =
            pk_lockdep::register_class("mm.numa.freelist", "pk-mm", pk_lockdep::LockKind::Spin);
        Self {
            nodes: (0..config.numa_nodes)
                .map(|_| {
                    let l = SpinLock::new(config.pages_per_node);
                    l.set_class(node_class);
                    l
                })
                .collect(),
            capacity: config.pages_per_node,
            config,
            stats,
            fault_enomem: faults.point("mm.alloc_enomem"),
            fault_freelist: faults.point("mm.freelist_exhausted"),
        }
    }

    /// Allocates `pages` pages, preferring `node`; returns the node the
    /// pages came from.
    pub fn alloc_on(&self, node: usize, pages: u64) -> Result<usize, OutOfMemory> {
        if self.fault_enomem.should_inject() {
            return Err(OutOfMemory);
        }
        let start = if self.fault_freelist.should_inject() {
            // Preferred node's free list "ran dry": start the fallback
            // scan one node over, forcing a remote allocation.
            (node + 1) % self.nodes.len()
        } else {
            node
        };
        let n = self.nodes.len();
        for i in 0..n {
            let candidate = (start + i) % n;
            let mut free = self.nodes[candidate].lock();
            if *free >= pages {
                *free -= pages;
                if candidate == node {
                    self.stats.local_node_allocs.bump();
                } else {
                    self.stats.remote_node_allocs.bump();
                }
                return Ok(candidate);
            }
        }
        Err(OutOfMemory)
    }

    /// Allocates preferring the node local to `core`.
    pub fn alloc_local(&self, core: usize, pages: u64) -> Result<usize, OutOfMemory> {
        self.alloc_on(self.config.node_of_core(core), pages)
    }

    /// Frees `pages` pages back to `node`.
    pub fn free_on(&self, node: usize, pages: u64) {
        let mut free = self.nodes[node % self.nodes.len()].lock();
        *free = (*free + pages).min(self.capacity);
    }

    /// Free pages remaining on `node`.
    pub fn free_pages(&self, node: usize) -> u64 {
        *self.nodes[node % self.nodes.len()].lock()
    }

    /// Lock-contention stats of `node`'s pool.
    pub fn node_lock_stats(&self, node: usize) -> &pk_sync::LockStats {
        self.nodes[node % self.nodes.len()].stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> (NumaAllocator, Arc<MmStats>) {
        let stats = Arc::new(MmStats::new());
        let mut cfg = MmConfig::pk(8);
        cfg.numa_nodes = 4;
        cfg.pages_per_node = 100;
        (NumaAllocator::new(cfg, Arc::clone(&stats)), stats)
    }

    #[test]
    fn local_allocation_preferred() {
        let (a, stats) = alloc();
        assert_eq!(a.alloc_on(2, 10).unwrap(), 2);
        assert_eq!(a.free_pages(2), 90);
        assert_eq!(
            stats
                .local_node_allocs
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn falls_back_to_remote_nodes() {
        let (a, stats) = alloc();
        assert_eq!(a.alloc_on(1, 100).unwrap(), 1);
        assert_eq!(a.alloc_on(1, 50).unwrap(), 2, "node 1 empty → node 2");
        assert_eq!(
            stats
                .remote_node_allocs
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn exhaustion_is_oom() {
        let (a, _) = alloc();
        for n in 0..4 {
            a.alloc_on(n, 100).unwrap();
        }
        assert_eq!(a.alloc_on(0, 1).unwrap_err(), OutOfMemory);
        a.free_on(3, 1);
        assert_eq!(a.alloc_on(0, 1).unwrap(), 3);
    }

    #[test]
    fn free_caps_at_capacity() {
        let (a, _) = alloc();
        a.free_on(0, 1_000);
        assert_eq!(a.free_pages(0), 100);
    }

    #[test]
    fn injected_enomem_fails_without_touching_pools() {
        let stats = Arc::new(MmStats::new());
        let mut cfg = MmConfig::pk(8);
        cfg.numa_nodes = 4;
        cfg.pages_per_node = 100;
        let faults = FaultPlane::with_seed(42);
        faults.set("mm.alloc_enomem", pk_fault::FaultSchedule::EveryNth(2));
        faults.enable();
        let a = NumaAllocator::with_faults(cfg, stats, &faults);
        assert_eq!(a.alloc_on(0, 1).unwrap(), 0, "arrival 0 passes");
        assert_eq!(
            a.alloc_on(0, 1).unwrap_err(),
            OutOfMemory,
            "arrival 1 injected"
        );
        assert_eq!(a.free_pages(0), 99, "failed alloc consumed no pages");
        assert_eq!(faults.injected_total(), 1);
    }

    #[test]
    fn injected_freelist_exhaustion_forces_remote_node() {
        let stats = Arc::new(MmStats::new());
        let mut cfg = MmConfig::pk(8);
        cfg.numa_nodes = 4;
        cfg.pages_per_node = 100;
        let faults = FaultPlane::with_seed(42);
        faults.set(
            "mm.freelist_exhausted",
            pk_fault::FaultSchedule::EveryNth(1),
        );
        faults.enable();
        let a = NumaAllocator::with_faults(cfg, stats.clone(), &faults);
        assert_eq!(a.alloc_on(0, 1).unwrap(), 1, "preferred node skipped");
        assert_eq!(
            stats
                .remote_node_allocs
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "the forced spill is reported as remote, not hidden"
        );
    }

    #[test]
    fn core_to_node_mapping() {
        let stats = Arc::new(MmStats::new());
        let mut cfg = MmConfig::pk(8);
        cfg.numa_nodes = 4;
        cfg.pages_per_node = 10;
        let a = NumaAllocator::new(cfg, stats);
        // 8 cores / 4 nodes → 2 cores per node.
        assert_eq!(a.alloc_local(5, 1).unwrap(), 2);
    }
}
