//! Address spaces: mmap regions, the region-list lock, and soft faults.

use crate::config::{MmConfig, PageSize};
use crate::numa::{NumaAllocator, OutOfMemory};
use crate::stats::MmStats;
use pk_sync::rcu::{self, RcuCell};
use pk_sync::AdaptiveMutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lock classes of the address-space-wide super-page mutex and of each
/// region's mapping mutex, registered at first construction.
static SUPERPAGE_CLASS: pk_lockdep::LazyClass = pk_lockdep::LazyClass::new(
    "mm.mmap.superpage_global",
    "pk-mm",
    pk_lockdep::LockKind::Blocking,
);
static MAPPING_MUTEX_CLASS: pk_lockdep::LazyClass = pk_lockdep::LazyClass::new(
    "mm.mmap.mapping_mutex",
    "pk-mm",
    pk_lockdep::LockKind::Blocking,
);

/// Identifies a mapping within an address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u64);

/// Errors from `mmap`/`munmap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmapError {
    /// Zero-length mapping requested.
    EmptyMapping,
    /// Unknown region.
    NoSuchRegion,
}

impl fmt::Display for MmapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyMapping => f.write_str("zero-length mapping"),
            Self::NoSuchRegion => f.write_str("no such region"),
        }
    }
}

impl std::error::Error for MmapError {}

/// Errors from page faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The faulting address is not inside any mapping (SIGSEGV).
    Segfault,
    /// Physical memory exhausted.
    Oom(OutOfMemory),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Segfault => f.write_str("segmentation fault"),
            Self::Oom(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// One mmap'd region.
#[derive(Debug)]
struct Region {
    id: RegionId,
    pages: u64,
    page_size: PageSize,
    /// Which pages have been faulted in.
    present: Mutex<HashSet<u64>>,
    /// 4 KB pages allocated per NUMA node (so munmap can return each
    /// page to the node it came from).
    node_pages: Mutex<Vec<(usize, u64)>>,
    /// PK's per-mapping super-page mutex.
    mapping_mutex: AdaptiveMutex<()>,
}

/// A process address space (`mm_struct`).
///
/// Reproduces both mm-side bottlenecks from the paper:
///
/// * `mmap`/`munmap` take the region-list **write** lock — the
///   "per-process kernel mutex \[that\] serializes calls to mmap and
///   munmap," which is why threaded pedsort collapses (§5.7);
/// * every soft fault takes the region-list **read** lock, and "acquiring
///   it even in read mode involves modifying shared lock state," the
///   Metis bottleneck (§5.8). Super-page faults additionally serialize on
///   a mutex: one global per address space (stock) or one per mapping
///   (PK).
#[derive(Debug)]
pub struct AddressSpace {
    /// RCU-published region list: faults read a snapshot without writing
    /// shared lock state; `mmap`/`munmap` copy, update, publish, and
    /// retire the old snapshot (and with it any removed [`Region`])
    /// through the per-core deferred-free queues — or a blocking
    /// `synchronize()` when `deferred_reclamation` is off.
    regions: RcuCell<Vec<Arc<Region>>>,
    next_id: AtomicU64,
    /// Stock's single super-page mutex for the whole address space.
    superpage_mutex: AdaptiveMutex<()>,
    allocator: Arc<NumaAllocator>,
    config: MmConfig,
    stats: Arc<MmStats>,
}

impl AddressSpace {
    /// Creates an empty address space drawing pages from `allocator`.
    pub fn new(config: MmConfig, allocator: Arc<NumaAllocator>, stats: Arc<MmStats>) -> Self {
        let asp = Self {
            regions: RcuCell::new(Vec::new()),
            next_id: AtomicU64::new(1),
            superpage_mutex: AdaptiveMutex::new(()),
            allocator,
            config,
            stats,
        };
        asp.superpage_mutex.set_class(SUPERPAGE_CLASS.id());
        asp
    }

    /// Maps `bytes` of anonymous memory with the given page size. Page
    /// tables are not populated — faults do that on first touch, exactly
    /// like Metis' allocation pattern ("Metis allocates memory with mmap,
    /// which adds the new memory to a region list but defers modifying
    /// page tables").
    pub fn mmap(&self, bytes: u64, page_size: PageSize) -> Result<RegionId, MmapError> {
        if bytes == 0 {
            return Err(MmapError::EmptyMapping);
        }
        let pages = bytes.div_ceil(page_size.bytes());
        let id = RegionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let region = Arc::new(Region {
            id,
            pages,
            page_size,
            present: Mutex::new(HashSet::new()),
            node_pages: Mutex::new(Vec::new()),
            mapping_mutex: AdaptiveMutex::new(()),
        });
        region.mapping_mutex.set_class(MAPPING_MUTEX_CLASS.id());
        self.stats.region_write_locks.bump();
        self.regions.publish(self.config.deferred_reclamation, |v| {
            let mut v = v.clone();
            v.push(Arc::clone(&region));
            v
        });
        Ok(id)
    }

    /// Unmaps a region, returning its faulted pages to the allocator.
    pub fn munmap(&self, id: RegionId, core: usize) -> Result<(), MmapError> {
        self.stats.region_write_locks.bump();
        let region = {
            let g = rcu::read_lock();
            self.regions
                .read(&g)
                .iter()
                .find(|r| r.id == id)
                .cloned()
                .ok_or(MmapError::NoSuchRegion)?
        };
        // Unpublish the region; the replaced list snapshot (holding the
        // retired `Arc<Region>`) is freed past a grace period. The pages
        // themselves are returned to the allocator *now* — munmap's
        // observable effect is synchronous either way.
        self.regions.publish(self.config.deferred_reclamation, |v| {
            v.iter().filter(|r| r.id != id).cloned().collect()
        });
        let _ = core;
        // Return every faulted page to the node it was allocated from.
        for (node, pages) in region
            .node_pages
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            self.allocator.free_on(node, pages);
        }
        Ok(())
    }

    /// Handles a soft page fault: `core` touched page `page_idx` of
    /// region `id` for the first time.
    ///
    /// Returns `true` if the fault populated the page, `false` if it was
    /// already present (a racing fault won).
    pub fn page_fault(&self, id: RegionId, page_idx: u64, core: usize) -> Result<bool, FaultError> {
        // Every fault takes the region-list read lock (shared-lock-state
        // modification is the §5.8 bottleneck).
        self.stats.region_read_locks.bump();
        let region = {
            let g = rcu::read_lock();
            self.regions
                .read(&g)
                .iter()
                .find(|r| r.id == id)
                .cloned()
                .ok_or(FaultError::Segfault)?
        };
        if page_idx >= region.pages {
            return Err(FaultError::Segfault);
        }
        match region.page_size {
            PageSize::Base4K => {
                self.stats.faults_4k.bump();
                self.populate(&region, page_idx, core)
            }
            PageSize::Super2M => {
                self.stats.faults_2m.bump();
                // Serialize super-page instantiation on the configured
                // mutex.
                if self.config.per_mapping_superpage_mutex {
                    self.stats.superpage_local_mutex.bump();
                    let _g = region.mapping_mutex.lock();
                    self.populate(&region, page_idx, core)
                } else {
                    self.stats.superpage_global_mutex.bump();
                    let _g = self.superpage_mutex.lock();
                    self.populate(&region, page_idx, core)
                }
            }
        }
    }

    fn populate(&self, region: &Region, page_idx: u64, core: usize) -> Result<bool, FaultError> {
        {
            let mut present = region.present.lock().unwrap_or_else(|e| e.into_inner());
            if !present.insert(page_idx) {
                return Ok(false);
            }
        }
        let pages_4k = region.page_size.bytes() / PageSize::Base4K.bytes();
        let node = match self.allocator.alloc_local(core, pages_4k) {
            Ok(node) => node,
            Err(e) => {
                // Roll back the presence bit so a later fault can retry
                // once memory frees up.
                region
                    .present
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&page_idx);
                return Err(FaultError::Oom(e));
            }
        };
        {
            let mut np = region.node_pages.lock().unwrap_or_else(|e| e.into_inner());
            match np.iter_mut().find(|(n, _)| *n == node) {
                Some((_, p)) => *p += pages_4k,
                None => np.push((node, pages_4k)),
            }
        }
        // Zeroing: super-pages flush the caches unless PK's non-caching
        // stores are enabled (Figure 1).
        let bytes = region.page_size.bytes();
        if region.page_size == PageSize::Super2M && !self.config.nocache_superpage_zeroing {
            self.stats.cached_zero_bytes.add(bytes);
        } else if region.page_size == PageSize::Super2M {
            self.stats.nocache_zero_bytes.add(bytes);
        } else {
            self.stats.cached_zero_bytes.add(bytes);
        }
        Ok(true)
    }

    /// Touches every page of `region` in order (a streaming write pass).
    pub fn touch_all(&self, id: RegionId, core: usize) -> Result<u64, FaultError> {
        let pages = {
            let g = rcu::read_lock();
            self.regions
                .read(&g)
                .iter()
                .find(|r| r.id == id)
                .ok_or(FaultError::Segfault)?
                .pages
        };
        let mut populated = 0;
        for p in 0..pages {
            if self.page_fault(id, p, core)? {
                populated += 1;
            }
        }
        Ok(populated)
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        let g = rcu::read_lock();
        self.regions.read(&g).len()
    }

    /// The stock global super-page mutex (for starvation diagnostics).
    pub fn superpage_mutex(&self) -> &AdaptiveMutex<()> {
        &self.superpage_mutex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asp(cfg: MmConfig) -> (AddressSpace, Arc<MmStats>) {
        let stats = Arc::new(MmStats::new());
        let mut cfg = cfg;
        cfg.numa_nodes = 2;
        cfg.pages_per_node = 100_000;
        let alloc = Arc::new(NumaAllocator::new(cfg, Arc::clone(&stats)));
        (AddressSpace::new(cfg, alloc, Arc::clone(&stats)), stats)
    }

    #[test]
    fn mmap_then_fault_populates_once() {
        let (a, stats) = asp(MmConfig::pk(4));
        let r = a.mmap(16 << 10, PageSize::Base4K).unwrap();
        assert!(a.page_fault(r, 0, 0).unwrap());
        assert!(!a.page_fault(r, 0, 1).unwrap(), "second fault is a no-op");
        assert_eq!(stats.faults_4k.load(Ordering::Relaxed), 2);
        assert_eq!(stats.region_read_locks.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fault_outside_region_segfaults() {
        let (a, _) = asp(MmConfig::pk(4));
        let r = a.mmap(4 << 10, PageSize::Base4K).unwrap();
        assert_eq!(a.page_fault(r, 1, 0).unwrap_err(), FaultError::Segfault);
        assert_eq!(
            a.page_fault(RegionId(999), 0, 0).unwrap_err(),
            FaultError::Segfault
        );
    }

    #[test]
    fn superpage_mutex_selection() {
        let (a, stats) = asp(MmConfig::stock(4));
        let r = a.mmap(4 << 20, PageSize::Super2M).unwrap();
        a.touch_all(r, 0).unwrap();
        assert_eq!(stats.superpage_global_mutex.load(Ordering::Relaxed), 2);
        assert_eq!(stats.superpage_local_mutex.load(Ordering::Relaxed), 0);

        let (b, stats2) = asp(MmConfig::pk(4));
        let r2 = b.mmap(4 << 20, PageSize::Super2M).unwrap();
        b.touch_all(r2, 0).unwrap();
        assert_eq!(stats2.superpage_local_mutex.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn superpages_cut_fault_count() {
        let bytes = 64 << 20; // 64 MB
        let (a, stats_small) = asp(MmConfig::stock(4));
        let r = a.mmap(bytes, PageSize::Base4K).unwrap();
        a.touch_all(r, 0).unwrap();
        let (b, stats_big) = asp(MmConfig::pk(4));
        let r2 = b.mmap(bytes, PageSize::Super2M).unwrap();
        b.touch_all(r2, 0).unwrap();
        let small = stats_small.faults_4k.load(Ordering::Relaxed);
        let big = stats_big.faults_2m.load(Ordering::Relaxed);
        assert_eq!(small, 16_384);
        assert_eq!(big, 32);
        assert_eq!(small / big, 512, "512 fewer faults with 2 MB pages");
    }

    #[test]
    fn zeroing_policy_is_recorded() {
        let (a, stats) = asp(MmConfig::stock(4));
        let r = a.mmap(2 << 20, PageSize::Super2M).unwrap();
        a.touch_all(r, 0).unwrap();
        assert_eq!(stats.cached_zero_bytes.load(Ordering::Relaxed), 2 << 20);

        let (b, stats2) = asp(MmConfig::pk(4));
        let r2 = b.mmap(2 << 20, PageSize::Super2M).unwrap();
        b.touch_all(r2, 0).unwrap();
        assert_eq!(stats2.nocache_zero_bytes.load(Ordering::Relaxed), 2 << 20);
    }

    #[test]
    fn munmap_returns_pages() {
        let (a, _) = asp(MmConfig::pk(4));
        let before = a.allocator.free_pages(0);
        let r = a.mmap(40 << 10, PageSize::Base4K).unwrap();
        a.touch_all(r, 0).unwrap();
        assert_eq!(a.allocator.free_pages(0), before - 10);
        a.munmap(r, 0).unwrap();
        assert_eq!(a.allocator.free_pages(0), before);
        assert_eq!(a.munmap(r, 0).unwrap_err(), MmapError::NoSuchRegion);
        assert_eq!(a.region_count(), 0);
    }

    #[test]
    fn concurrent_faults_populate_each_page_once() {
        let (a, _) = asp(MmConfig::pk(8));
        let a = Arc::new(a);
        let r = a.mmap(1 << 20, PageSize::Base4K).unwrap(); // 256 pages
        let handles: Vec<_> = (0..4)
            .map(|core| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut populated = 0u64;
                    for p in 0..256 {
                        if a.page_fault(r, p, core).unwrap() {
                            populated += 1;
                        }
                    }
                    populated
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 256, "each page populated exactly once");
    }
}
