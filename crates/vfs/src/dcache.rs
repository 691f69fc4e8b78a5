//! The directory entry cache (`dcache`).

use crate::config::VfsConfig;
use crate::dentry::{Dentry, DentryKey, DentryProbe};
use crate::error::VfsError;
use crate::inode::InodeId;
use crate::stats::VfsStats;
use pk_fault::{FaultPlane, FaultPoint};
use pk_percpu::CoreId;
use pk_sync::rcu::{self, RcuCell};
use std::sync::Arc;

/// A hash table of dentries with RCU buckets.
///
/// Readers traverse bucket snapshots without writing shared memory (the
/// dcache "has been optimized using RCU for scalability" \[40\]); what the
/// paper found still serialized lookups was the **per-dentry spin lock**
/// taken to compare fields. [`Dcache::lookup`] therefore implements both
/// protocols, selected by [`VfsConfig::lockfree_dlookup`]:
///
/// * stock — lock each candidate dentry to compare (`d_lock`);
/// * PK — the §4.4 generation-counter protocol, falling back to the lock
///   on a concurrent modification or a zero refcount.
///
/// A successful lookup returns the dentry with one new reference already
/// taken on the caller's behalf.
///
/// Lookups take anything that converts to a [`DentryProbe`] — the path
/// walker's borrowed probe, or `&DentryKey` — and select the bucket from
/// the hash the probe already carries; nothing is hashed here. A bucket
/// holds at most one live dentry per key: [`Dcache::insert`] returns the
/// existing one instead of pushing a duplicate.
#[derive(Debug)]
pub struct Dcache {
    /// One RCU-published snapshot per hash bucket; the bucket count is
    /// fixed at construction.
    buckets: Box<[RcuCell<Vec<Arc<Dentry>>>]>,
    mask: usize,
    config: VfsConfig,
    stats: Arc<VfsStats>,
    /// `vfs.dentry_alloc`: a dentry allocation fails with ENOMEM.
    fault_alloc: FaultPoint,
    /// `vfs.dcache_pressure`: a lookup misses as if the entry had been
    /// evicted under memory pressure.
    fault_pressure: FaultPoint,
}

impl Dcache {
    /// Creates a cache with `buckets` hash buckets (rounded up to a power
    /// of two).
    pub fn new(buckets: usize, config: VfsConfig, stats: Arc<VfsStats>) -> Self {
        Self::with_faults(buckets, config, stats, &FaultPlane::disabled())
    }

    /// Like [`Dcache::new`], with allocation failure and cache pressure
    /// injectable through `faults` (`vfs.dentry_alloc`,
    /// `vfs.dcache_pressure`).
    pub fn with_faults(
        buckets: usize,
        config: VfsConfig,
        stats: Arc<VfsStats>,
        faults: &FaultPlane,
    ) -> Self {
        let n = buckets.next_power_of_two().max(1);
        Self {
            buckets: (0..n).map(|_| RcuCell::new(Vec::new())).collect(),
            mask: n - 1,
            config,
            stats,
            fault_alloc: faults.point("vfs.dentry_alloc"),
            fault_pressure: faults.point("vfs.dcache_pressure"),
        }
    }

    fn bucket(&self, probe: &DentryProbe<'_>) -> &RcuCell<Vec<Arc<Dentry>>> {
        &self.buckets[(probe.hash() as usize) & self.mask]
    }

    /// Looks up `(parent, name)`, taking a reference on the hit.
    ///
    /// `core` is the acting core (for sloppy refcounts and stats).
    pub fn lookup<'a>(&self, key: impl Into<DentryProbe<'a>>, core: CoreId) -> Option<Arc<Dentry>> {
        let key = &key.into();
        if self.fault_pressure.should_inject() {
            // The entry was "evicted" under memory pressure: the caller
            // falls back to the filesystem, exactly as on a cold miss.
            self.stats.dcache_pressure_misses.bump();
            self.stats.dcache_misses.bump();
            return None;
        }
        let guard = rcu::read_lock();
        let bucket = self.bucket(key).read(&guard);
        for d in bucket.iter() {
            if self.config.lockfree_dlookup {
                match d.compare_lockfree(key, core) {
                    Some(true) => {
                        self.stats.lockfree_lookups.bump();
                        self.stats.dcache_hits.bump();
                        return Some(Arc::clone(d));
                    }
                    Some(false) => continue,
                    None => {
                        // Fall back to the locking protocol (§4.4).
                        self.stats.lockfree_fallbacks.bump();
                        if d.compare_locked(key, core) {
                            self.stats.dentry_lock_acquisitions.bump();
                            self.stats.dcache_hits.bump();
                            return Some(Arc::clone(d));
                        }
                        continue;
                    }
                }
            } else {
                self.stats.dentry_lock_acquisitions.bump();
                if d.compare_locked(key, core) {
                    self.stats.dcache_hits.bump();
                    return Some(Arc::clone(d));
                }
            }
        }
        self.stats.dcache_misses.bump();
        None
    }

    /// The RCU-walk bucket probe: finds `key` without taking any lock or
    /// reference. Returns `Some(Some(inode))` on a hit, `Some(None)` on
    /// a definitive miss, or `None` when a candidate's seqcount tore
    /// mid-read (modification in flight) — the walker must then fall
    /// back to the reference walk.
    ///
    /// A miss is also grounds for fallback at the walk level (the entry
    /// may simply not be cached yet), but the two are distinguished so
    /// the stats can attribute fallbacks to churn vs. cold cache.
    pub fn peek<'a>(&self, key: impl Into<DentryProbe<'a>>) -> Option<Option<InodeId>> {
        let key = &key.into();
        if self.fault_pressure.should_inject() {
            // Same degradation as `lookup`: the entry was "evicted"
            // under memory pressure, so the RCU walk sees a miss and
            // drops to the reference walk.
            self.stats.dcache_pressure_misses.bump();
            self.stats.dcache_misses.bump();
            return Some(None);
        }
        let guard = rcu::read_lock();
        let bucket = self.bucket(key).read(&guard);
        for d in bucket.iter() {
            match d.peek(key) {
                Some(Some(ino)) => {
                    self.stats.dcache_hits.bump();
                    return Some(Some(ino));
                }
                Some(None) => continue,
                None => return None,
            }
        }
        Some(None)
    }

    /// Whether the generation-2 whole-path RCU walk is enabled
    /// ([`VfsConfig::rcu_path_walk`]).
    pub fn rcu_walk_enabled(&self) -> bool {
        self.config.rcu_path_walk
    }

    /// The stats sink shared with the rest of the VFS (for the path
    /// walker's walk-level counters).
    pub(crate) fn stats(&self) -> &VfsStats {
        &self.stats
    }

    /// Caches `key → inode` and returns the dentry with one caller
    /// reference (plus the cache's own).
    ///
    /// If a live dentry for `key` is already hashed — another walker
    /// missed the same cold component and got here first — that dentry
    /// is returned (with the caller's reference) and nothing is pushed:
    /// a second entry would survive the first `remove` and answer every
    /// later lookup of the name with a stale inode.
    ///
    /// Fails with [`VfsError::OutOfMemory`] when the dentry allocation
    /// does (only under an injected `vfs.dentry_alloc` fault); nothing is
    /// cached in that case and the caller degrades to uncached operation.
    pub fn insert(
        &self,
        key: DentryKey,
        inode: InodeId,
        core: CoreId,
    ) -> Result<Arc<Dentry>, VfsError> {
        if self.fault_alloc.should_inject() {
            self.stats.dentry_alloc_failures.bump();
            return Err(VfsError::OutOfMemory);
        }
        let bucket = self.bucket(&key.probe());
        let mut dentry = Dentry::with_refcount(
            key,
            inode,
            pk_sloppy::RefCount::new_scaled(
                self.config.sloppy_dentry_refs,
                self.config.snzi_refs,
                self.config.cores,
                self.config.sockets,
            ),
        );
        // The cache holds the creation reference; take one for the caller.
        // A freshly created dentry can only be dead if something tore it
        // down concurrently — surface that as ESTALE on the syscall path
        // rather than panicking in the kernel.
        dentry.get(core).map_err(|_| VfsError::Stale)?;
        bucket.publish(self.config.deferred_reclamation, |v| {
            let mut v = v.clone();
            // Bucket rewrites are serialized, so a live match found here
            // has not been removed: its reference is taken before any
            // remove or shrink can drop the cache's.
            let live =
                |d: &&Arc<Dentry>| d.is_live_match(&dentry.key.probe()) && d.get(core).is_ok();
            match v.iter().find(live) {
                Some(existing) => dentry = Arc::clone(existing),
                None => v.push(Arc::clone(&dentry)),
            }
            v
        });
        Ok(dentry)
    }

    /// Removes `key` from the cache (unlink/rename): every live dentry
    /// for it leaves the bucket, is unhashed under its modification
    /// guard and loses the cache's reference.
    ///
    /// Returns `true` if an entry was removed.
    pub fn remove<'a>(&self, key: impl Into<DentryProbe<'a>>, core: CoreId) -> bool {
        let key = &key.into();
        let mut removed = false;
        self.bucket(key)
            .publish(self.config.deferred_reclamation, |v| {
                let mut kept = Vec::with_capacity(v.len());
                for d in v.iter() {
                    if d.is_live_match(key) {
                        d.begin_modify().unhash();
                        // Drop the cache's reference; the object is freed when
                        // the last user reference goes away.
                        d.put(core);
                        removed = true;
                    } else {
                        kept.push(Arc::clone(d));
                    }
                }
                kept
            });
        removed
    }

    /// Shrinks the cache: evicts up to `target` dentries that only the
    /// cache itself still references, scanning buckets in order.
    ///
    /// Eviction is the expensive sloppy-counter moment: each candidate's
    /// refcount must be *reconciled* across all cores before the object
    /// can be freed (§4.3: "this operation is expensive, so sloppy
    /// counters should only be used for objects that are relatively
    /// infrequently de-allocated"). Returns the number evicted.
    pub fn shrink(&self, target: usize, core: CoreId) -> usize {
        let mut evicted = 0;
        for bucket in self.buckets.iter() {
            if evicted >= target {
                break;
            }
            let mut victims = Vec::new();
            bucket.publish(self.config.deferred_reclamation, |v| {
                let mut kept = Vec::with_capacity(v.len());
                for d in v.iter() {
                    // Only the cache's reference remains → evictable.
                    if evicted + victims.len() < target && d.references() == 1 {
                        victims.push(Arc::clone(d));
                    } else {
                        kept.push(Arc::clone(d));
                    }
                }
                kept
            });
            for d in victims {
                d.begin_modify().unhash();
                d.put(core);
                // `Err` means a lookup raced us and took a reference
                // between the scan and the dealloc; the object stays
                // alive (but unhashed) until that user drops it. Either
                // way the entry left the cache.
                let _ = d.try_dealloc();
                evicted += 1;
                self.stats.dcache_evictions.bump();
            }
        }
        evicted
    }

    /// Returns the total number of hashed dentries (diagnostic; walks all
    /// buckets).
    pub fn len(&self) -> usize {
        let guard = rcu::read_lock();
        self.buckets.iter().map(|b| b.read(&guard).len()).sum()
    }

    /// Returns whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn cache(lockfree: bool) -> Dcache {
        let mut cfg = VfsConfig::pk(4);
        cfg.lockfree_dlookup = lockfree;
        Dcache::new(64, cfg, Arc::new(VfsStats::new()))
    }

    #[test]
    fn insert_then_lookup_hits() {
        for lockfree in [false, true] {
            let c = cache(lockfree);
            let key = DentryKey::new(InodeId(1), "etc");
            let d = c.insert(key.clone(), InodeId(5), CoreId(0)).unwrap();
            assert_eq!(d.references(), 2);
            let hit = c.lookup(&key, CoreId(1)).expect("hit");
            assert_eq!(hit.inode(), InodeId(5));
            assert_eq!(hit.references(), 3);
        }
    }

    #[test]
    fn lookup_miss_returns_none() {
        let c = cache(true);
        assert!(c
            .lookup(&DentryKey::new(InodeId(1), "nope"), CoreId(0))
            .is_none());
    }

    #[test]
    fn same_name_different_parent_is_distinct() {
        let c = cache(true);
        c.insert(DentryKey::new(InodeId(1), "x"), InodeId(10), CoreId(0))
            .unwrap();
        c.insert(DentryKey::new(InodeId(2), "x"), InodeId(20), CoreId(0))
            .unwrap();
        assert_eq!(
            c.lookup(&DentryKey::new(InodeId(1), "x"), CoreId(0))
                .unwrap()
                .inode(),
            InodeId(10)
        );
        assert_eq!(
            c.lookup(&DentryKey::new(InodeId(2), "x"), CoreId(0))
                .unwrap()
                .inode(),
            InodeId(20)
        );
    }

    #[test]
    fn remove_makes_lookup_miss() {
        let c = cache(true);
        let key = DentryKey::new(InodeId(1), "tmp");
        c.insert(key.clone(), InodeId(3), CoreId(0)).unwrap();
        assert!(c.remove(&key, CoreId(0)));
        assert!(c.lookup(&key, CoreId(0)).is_none());
        assert!(!c.remove(&key, CoreId(0)), "second remove is a no-op");
        assert!(c.is_empty());
    }

    #[test]
    fn keys_land_in_the_bucket_the_derived_hash_selects() {
        // What `Dcache::hash_key` computed per probe before keys carried
        // their hash: the derived `Hash` of the pair through
        // `DefaultHasher::new()`. Placement decides which dentries share
        // a bucket, and with it the `d_lock` counts the goldens pin.
        #[derive(Hash)]
        struct Derived {
            parent: InodeId,
            name: String,
        }
        let c = cache(false);
        let core = CoreId(0);
        for (parent, name) in [
            (1, "etc"),
            (1, "var"),
            (2, "var"),
            (7, ""),
            (u64::MAX, "spool"),
            (42, "a-much-longer-component-name.with.dots"),
            (3, "ünïcödé"),
        ] {
            let key = DentryKey::new(InodeId(parent), name);
            let probe = DentryProbe::new(InodeId(parent), name);
            assert_eq!(key.probe().hash(), probe.hash(), "owned and borrowed agree");
            let mut h = DefaultHasher::new();
            Derived {
                parent: InodeId(parent),
                name: name.to_string(),
            }
            .hash(&mut h);
            assert_eq!(probe.hash(), h.finish(), "({parent}, {name:?})");
            let d = c.insert(key, InodeId(9), core).unwrap();
            let guard = rcu::read_lock();
            let bucket = c.buckets[h.finish() as usize & c.mask].read(&guard);
            assert!(bucket.iter().any(|b| Arc::ptr_eq(b, &d)));
        }
    }

    #[test]
    fn a_second_insert_of_a_live_key_returns_the_first_dentry() {
        // What two walkers that miss the same cold component together do.
        for lockfree in [false, true] {
            let c = cache(lockfree);
            let key = DentryKey::new(InodeId(1), "f");
            let first = c.insert(key.clone(), InodeId(5), CoreId(0)).unwrap();
            let second = c.insert(key.clone(), InodeId(5), CoreId(1)).unwrap();
            assert!(Arc::ptr_eq(&first, &second));
            assert_eq!(c.len(), 1);
            assert_eq!(first.references(), 3, "cache + one per caller");
            assert!(c.remove(&key, CoreId(0)));
            assert!(c.is_empty());
            assert!(c.lookup(&key, CoreId(0)).is_none());
            assert_eq!(c.peek(&key), Some(None));
            // The name is reusable: the next insert is found, not shadowed.
            c.insert(key.clone(), InodeId(6), CoreId(0)).unwrap();
            assert_eq!(c.lookup(&key, CoreId(0)).unwrap().inode(), InodeId(6));
        }
    }

    #[test]
    fn remove_unhashes_every_live_match() {
        // A bucket cannot get two live dentries for one key through
        // `insert` any more; plant them to check `remove` alone.
        let c = cache(true);
        let key = DentryKey::new(InodeId(1), "f");
        let planted: Vec<_> = (0..2)
            .map(|_| Dentry::new(key.clone(), InodeId(5), true, 4))
            .collect();
        c.bucket(&key.probe())
            .publish(c.config.deferred_reclamation, |_| planted.clone());
        assert!(c.remove(&key, CoreId(0)));
        assert!(c.is_empty());
        assert!(planted.iter().all(|d| d.is_unhashed()));
    }

    #[test]
    fn stats_distinguish_protocols() {
        let stats = Arc::new(VfsStats::new());
        let mut cfg = VfsConfig::pk(4);
        cfg.lockfree_dlookup = false;
        let c = Dcache::new(16, cfg, Arc::clone(&stats));
        let key = DentryKey::new(InodeId(1), "a");
        c.insert(key.clone(), InodeId(2), CoreId(0)).unwrap();
        c.lookup(&key, CoreId(0));
        assert!(
            stats
                .dentry_lock_acquisitions
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        assert_eq!(
            stats
                .lockfree_lookups
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn shrink_evicts_only_unreferenced() {
        let c = cache(true);
        let core = CoreId(0);
        for i in 0..8u64 {
            let d = c
                .insert(
                    DentryKey::new(InodeId(1), format!("e{i}")),
                    InodeId(i),
                    core,
                )
                .unwrap();
            d.put(core); // drop the caller reference; cache-only now
        }
        // Hold a reference to one entry.
        let held = c.lookup(&DentryKey::new(InodeId(1), "e3"), core).unwrap();
        let evicted = c.shrink(100, core);
        assert_eq!(evicted, 7, "everything except the held entry");
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&DentryKey::new(InodeId(1), "e0"), core).is_none());
        assert!(c.lookup(&DentryKey::new(InodeId(1), "e3"), core).is_some());
        held.put(core);
    }

    #[test]
    fn shrink_respects_target() {
        let c = cache(false);
        let core = CoreId(0);
        for i in 0..10u64 {
            let d = c
                .insert(
                    DentryKey::new(InodeId(1), format!("t{i}")),
                    InodeId(i),
                    core,
                )
                .unwrap();
            d.put(core);
        }
        assert_eq!(c.shrink(4, core), 4);
        assert_eq!(c.len(), 6);
        assert_eq!(c.shrink(100, core), 6);
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_writers_lose_no_bucket_updates() {
        // Four writers share four buckets: every insert must survive its
        // neighbours' bucket rewrites, and every remove must take out
        // exactly its own victim.
        for deferred in [true, false] {
            let mut cfg = VfsConfig::pk(8);
            cfg.deferred_reclamation = deferred;
            let c = Arc::new(Dcache::new(4, cfg, Arc::new(VfsStats::new())));
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        for i in 0..100u64 {
                            let key = DentryKey::new(InodeId(t), format!("w{i}"));
                            let d = c
                                .insert(key.clone(), InodeId(i), CoreId(t as usize))
                                .unwrap();
                            d.put(CoreId(t as usize));
                            if i % 3 == 0 {
                                assert!(c.remove(&key, CoreId(t as usize)));
                            }
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            // Per writer: 100 inserts, 34 removes → 66 survivors.
            assert_eq!(c.len(), 4 * 66);
            for t in 0..4u64 {
                assert!(c
                    .lookup(&DentryKey::new(InodeId(t), "w1"), CoreId(0))
                    .is_some());
                assert!(c
                    .lookup(&DentryKey::new(InodeId(t), "w0"), CoreId(0))
                    .is_none());
            }
        }
    }

    #[test]
    fn concurrent_lookups_and_removes() {
        let c = Arc::new(cache(true));
        for i in 0..32u64 {
            c.insert(
                DentryKey::new(InodeId(1), format!("f{i}")),
                InodeId(100 + i),
                CoreId(0),
            )
            .unwrap();
        }
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..200 {
                        let i = (t * 7 + round) % 32;
                        let key = DentryKey::new(InodeId(1), format!("f{i}"));
                        if let Some(d) = c.lookup(&key, CoreId(t)) {
                            assert_eq!(d.inode(), InodeId(100 + i as u64));
                            d.put(CoreId(t));
                        }
                    }
                })
            })
            .collect();
        for i in (0..32).step_by(2) {
            c.remove(&DentryKey::new(InodeId(1), format!("f{i}")), CoreId(3));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(c.len(), 16);
    }
}
