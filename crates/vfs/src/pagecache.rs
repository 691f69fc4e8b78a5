//! The page (buffer) cache with lock-free lookup.
//!
//! The paper's lock-free dentry comparison is modelled on "Linux'
//! lock-free page cache lookup protocol" (\[18\], Corbet, *The lockless
//! page cache*): readers find pages without taking any lock, taking a
//! speculative reference and re-validating afterwards. As in Linux the
//! index is per inode (the `address_space`): each [`Inode`] owns a
//! mapping from page index to page, published under RCU, and
//! [`PageCache`] is the `Vfs`-level face over those mappings that keeps
//! the totals. It backs `Vfs::read_cached` — the path Apache's 300-byte
//! file is served from ("the file resides in the kernel buffer cache",
//! §5.4).
//!
//! Coherence is the inode's job, not the caller's: every [`Inode`] write
//! drops the pages it changed while it holds the data write lock, and
//! `read_cached` fills under the data read lock, so a published page is
//! never older than a completed write. An inode that was never read
//! through the cache has no mapping, and dropping its pages is one load.

use crate::inode::{Inode, InodeId};
use pk_sync::rcu::{self, RcuCell};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache page size (4 KB, like the kernel's).
pub const PAGE_BYTES: usize = 4096;

/// One cached page of file data.
#[derive(Debug)]
pub struct CachedPage {
    /// Owning inode.
    pub ino: InodeId,
    /// Page index within the file.
    pub index: u64,
    /// Page contents (up to [`PAGE_BYTES`]).
    pub data: Vec<u8>,
    /// Speculative reference count, as in the lockless protocol: a
    /// reader elevates it before re-checking that the page still belongs
    /// to `(ino, index)`.
    refs: AtomicU64,
}

impl CachedPage {
    /// Current reference count (cache's own reference included).
    pub fn references(&self) -> u64 {
        self.refs.load(Ordering::Acquire)
    }
}

/// Page-cache statistics.
#[derive(Debug, Default)]
pub struct PageCacheStats {
    /// Lookups served from the cache.
    pub hits: AtomicU64,
    /// Lookups that had to fill from the backing store.
    pub misses: AtomicU64,
    /// Pages dropped by invalidation.
    pub invalidated: AtomicU64,
}

/// What the mappings of one cache share: the totals and the reclamation
/// discipline.
#[derive(Debug)]
struct Shared {
    stats: PageCacheStats,
    /// Pages reachable through some inode's mapping.
    pages: AtomicUsize,
    /// `VfsConfig::deferred_reclamation`.
    deferred: bool,
}

type PageMap = BTreeMap<u64, Arc<CachedPage>>;

/// One inode's `page index → page` map, swapped wholesale under RCU so
/// readers never lock. Created by the inode's first fill. Writers
/// publish per the cache's reclamation discipline while holding at most
/// the inode's data lock, which no read-side section takes, so a
/// blocking grace period cannot wait on a reader that waits on them.
#[derive(Debug)]
pub(crate) struct Mapping {
    pages: RcuCell<PageMap>,
    cache: Arc<Shared>,
}

impl Mapping {
    fn insert(&self, page: Arc<CachedPage>) {
        let mut fresh = false;
        self.pages.publish(self.cache.deferred, |m| {
            let mut m = m.clone();
            fresh = m.insert(page.index, page).is_none();
            m
        });
        if fresh {
            self.cache.pages.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops the pages whose index is in `range`. Reads first: when none
    /// is cached, nothing is allocated, published or waited for.
    pub(crate) fn drop_range(&self, range: RangeInclusive<u64>) {
        let guard = rcu::read_lock();
        let cached = self
            .pages
            .read(&guard)
            .range(range.clone())
            .next()
            .is_some();
        drop(guard); // before `replace`, which may wait out a grace period
        if !cached {
            return;
        }
        let mut dropped = 0;
        self.pages.publish(self.cache.deferred, |m| {
            let mut kept = m.clone();
            kept.retain(|index, _| !range.contains(index));
            dropped = m.len() - kept.len();
            kept
        });
        self.cache.pages.fetch_sub(dropped, Ordering::Relaxed);
        self.cache
            .stats
            .invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
    }
}

impl Drop for Mapping {
    /// An inode freed with pages still cached (a fill that raced its
    /// last unlink) takes them out of the total.
    fn drop(&mut self) {
        let guard = rcu::read_lock();
        let left = self.pages.read(&guard).len();
        self.cache.pages.fetch_sub(left, Ordering::Relaxed);
    }
}

/// The buffer cache: lock-free reads of each inode's page mapping, and
/// the page total and statistics across all of them.
#[derive(Debug)]
pub struct PageCache {
    shared: Arc<Shared>,
}

impl PageCache {
    /// Creates an empty cache whose mappings retire replaced snapshots
    /// through `call_rcu` (`deferred_reclamation`) or a blocking grace
    /// period.
    pub fn new(deferred_reclamation: bool) -> Self {
        Self {
            shared: Arc::new(Shared {
                stats: PageCacheStats::default(),
                pages: AtomicUsize::new(0),
                deferred: deferred_reclamation,
            }),
        }
    }

    /// Lock-free lookup: finds page `index` of `inode` without taking
    /// any lock, elevating its speculative refcount and re-validating
    /// identity afterwards (the \[18\] protocol).
    pub fn lookup(&self, inode: &Inode, index: u64) -> Option<Arc<CachedPage>> {
        let mapping = inode.mapping.get()?;
        let guard = rcu::read_lock();
        let page = mapping.pages.read(&guard).get(&index)?;
        // Speculative get: elevate, then confirm the page is still the
        // one we asked for (it cannot be reused for another (ino, index)
        // while we hold the RCU guard, but the protocol re-checks anyway,
        // as the kernel must once the page can be recycled).
        page.refs.fetch_add(1, Ordering::AcqRel);
        if page.ino == inode.id && page.index == index {
            self.shared.stats.hits.fetch_add(1, Ordering::Relaxed);
            Some(Arc::clone(page))
        } else {
            page.refs.fetch_sub(1, Ordering::AcqRel);
            None
        }
    }

    /// Drops a reference taken by [`PageCache::lookup`].
    pub fn put(&self, page: &CachedPage) {
        page.refs.fetch_sub(1, Ordering::AcqRel);
    }

    /// Inserts (or replaces) page `index` of `inode`. `data` is taken on
    /// trust: `Vfs::read_cached` fills through the inode, which reads
    /// the bytes and calls this under its data lock.
    pub fn fill(&self, inode: &Inode, index: u64, data: Vec<u8>) -> Arc<CachedPage> {
        assert!(data.len() <= PAGE_BYTES, "page data too large");
        self.shared.stats.misses.fetch_add(1, Ordering::Relaxed);
        let page = Arc::new(CachedPage {
            ino: inode.id,
            index,
            data,
            refs: AtomicU64::new(1), // the cache's reference
        });
        let mapping = inode.mapping.get_or_init(|| Mapping {
            pages: RcuCell::new(PageMap::new()),
            cache: Arc::clone(&self.shared),
        });
        debug_assert!(
            Arc::ptr_eq(&mapping.cache, &self.shared),
            "an inode is cached by one PageCache"
        );
        mapping.insert(Arc::clone(&page));
        page
    }

    /// Invalidates every page of `inode` (last unlink).
    pub fn invalidate(&self, inode: &Inode) {
        inode.invalidate_pages();
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.shared.pages.load(Ordering::Relaxed)
    }

    /// Returns whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the statistics.
    pub fn stats(&self) -> &PageCacheStats {
        &self.shared.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::InodeKind;

    fn file(id: u64) -> Inode {
        Inode::new(InodeId(id), InodeKind::File)
    }

    #[test]
    fn fill_then_lookup_hits() {
        let pc = PageCache::new(true);
        let f = file(1);
        assert!(pc.lookup(&f, 0).is_none());
        pc.fill(&f, 0, b"hello".to_vec());
        let page = pc.lookup(&f, 0).expect("hit");
        assert_eq!(page.data, b"hello");
        assert_eq!(page.references(), 2); // cache + us
        pc.put(&page);
        assert_eq!(page.references(), 1);
        assert_eq!(pc.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(pc.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pages_are_per_inode_and_index() {
        let pc = PageCache::new(true);
        let (a, b) = (file(1), file(2));
        pc.fill(&a, 0, b"a".to_vec());
        pc.fill(&a, 1, b"b".to_vec());
        pc.fill(&b, 0, b"c".to_vec());
        assert_eq!(pc.len(), 3);
        assert_eq!(pc.lookup(&a, 1).unwrap().data, b"b");
        assert_eq!(pc.lookup(&b, 0).unwrap().data, b"c");
        assert!(pc.lookup(&b, 1).is_none());
    }

    #[test]
    fn invalidate_drops_only_that_inode() {
        for deferred in [true, false] {
            let pc = PageCache::new(deferred);
            let (a, b) = (file(7), file(8));
            for idx in 0..4 {
                pc.fill(&a, idx, vec![7]);
                pc.fill(&b, idx, vec![8]);
            }
            pc.invalidate(&a);
            assert_eq!(pc.len(), 4);
            assert!(pc.lookup(&a, 0).is_none());
            assert!(pc.lookup(&b, 3).is_some());
            assert_eq!(pc.stats().invalidated.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn refill_replaces_content() {
        let pc = PageCache::new(true);
        let f = file(1);
        pc.fill(&f, 0, b"old".to_vec());
        pc.fill(&f, 0, b"new".to_vec());
        assert_eq!(pc.len(), 1);
        assert_eq!(pc.lookup(&f, 0).unwrap().data, b"new");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_page_rejected() {
        PageCache::new(true).fill(&file(1), 0, vec![0; PAGE_BYTES + 1]);
    }

    #[test]
    fn concurrent_readers_during_invalidation() {
        let pc = PageCache::new(true);
        let f = file(1);
        for idx in 0..32 {
            pc.fill(&f, idx, vec![idx as u8]);
        }
        std::thread::scope(|s| {
            for t in 0..3 {
                let (pc, f) = (&pc, &f);
                s.spawn(move || {
                    for round in 0..200 {
                        let idx = (t * 13 + round) % 32;
                        if let Some(p) = pc.lookup(f, idx as u64) {
                            assert_eq!(p.data, vec![idx as u8]);
                            pc.put(&p);
                        }
                    }
                });
            }
            s.spawn(|| pc.invalidate(&f));
        });
        assert!(pc.is_empty());
    }

    #[test]
    fn freed_inode_takes_its_pages_out_of_the_total() {
        let pc = PageCache::new(true);
        let f = file(1);
        pc.fill(&f, 0, vec![1]);
        pc.fill(&f, 1, vec![2]);
        drop(f);
        assert!(pc.is_empty());
        assert_eq!(pc.stats().invalidated.load(Ordering::Relaxed), 0);
    }
}
