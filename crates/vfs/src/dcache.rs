//! The directory entry cache (`dcache`).

use crate::config::VfsConfig;
use crate::dentry::{Dentry, DentryKey, DentryProbe};
use crate::error::VfsError;
use crate::inode::InodeId;
use crate::stats::VfsStats;
use pk_fault::{FaultPlane, FaultPoint};
use pk_percpu::{CoreId, PerCoreArena};
use pk_sync::rcu::{self, RcuCell};
use std::sync::Arc;

/// One bucket entry: a dentry and its key's hash, the tag PK's lookups
/// compare before they touch the dentry.
#[derive(Debug, Clone)]
struct Tagged {
    hash: u64,
    dentry: Arc<Dentry>,
}

/// The dentries in `bucket` whose tag is `probe`'s hash: the only ones
/// PK's lookups visit.
#[inline]
fn tagged<'b>(
    bucket: &'b [Tagged],
    probe: &DentryProbe<'_>,
) -> impl Iterator<Item = &'b Arc<Dentry>> {
    let hash = probe.hash();
    bucket
        .iter()
        .filter(move |t| t.hash == hash)
        .map(|t| &t.dentry)
}

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
/// taken on the caller's behalf; [`Dcache::lookup_inode`], the reference
/// walk's step, runs the same protocol and returns only the inode number.
///
/// Lookups take anything that converts to a [`DentryProbe`] — the path
/// walker's borrowed probe, or `&DentryKey` — and select the bucket from
/// the hash the probe already carries; nothing is hashed here. A bucket
/// holds at most one live dentry per key: [`Dcache::insert`] returns the
/// existing one instead of pushing a duplicate.
///
/// Each bucket entry carries its dentry's key hash beside the pointer.
/// PK's lookups ([`Dcache::lookup`] under `lockfree_dlookup`, and the RCU
/// walk's [`Dcache::peek`]) skip a neighbour whose tag differs from the
/// probe's hash without touching the dentry, as Linux's
/// `__d_lookup_rcu` rejects on `hash_len`; stock still takes `d_lock` on
/// every candidate, so its counts do not depend on the tags.
#[derive(Debug)]
pub struct Dcache {
    /// One RCU-published snapshot per hash bucket; the bucket count is
    /// fixed at construction.
    buckets: Box<[RcuCell<Vec<Tagged>>]>,
    mask: usize,
    config: VfsConfig,
    /// The per-core shares of the dentries' reference counts under
    /// `percore_refs`.
    arena: PerCoreArena,
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
            arena: PerCoreArena::new(config.cores),
            config,
            stats,
            fault_alloc: faults.point("vfs.dentry_alloc"),
            fault_pressure: faults.point("vfs.dcache_pressure"),
        }
    }

    fn bucket(&self, probe: &DentryProbe<'_>) -> &RcuCell<Vec<Tagged>> {
        &self.buckets[(probe.hash() as usize) & self.mask]
    }

    /// Looks up `(parent, name)`, taking a reference on the hit.
    ///
    /// `core` is the acting core (for sloppy refcounts and stats).
    pub fn lookup<'a>(&self, key: impl Into<DentryProbe<'a>>, core: CoreId) -> Option<Arc<Dentry>> {
        self.find(&key.into(), core, Arc::clone)
    }

    /// The reference walk's step: [`Dcache::lookup`]'s protocol and
    /// counters, returning the target inode number. The counted reference
    /// is taken and dropped inside the read section, as `path_put` would
    /// after reading the target; no `Arc<Dentry>` leaves the bucket.
    pub fn lookup_inode(&self, probe: &DentryProbe<'_>, core: CoreId) -> Option<InodeId> {
        self.find(probe, core, |d| {
            let ino = d.inode();
            d.put(core);
            ino
        })
    }

    /// The one lookup protocol: on a referenced hit, `hit` runs on the
    /// dentry before the read section ends.
    #[inline]
    fn find<R>(
        &self,
        key: &DentryProbe<'_>,
        core: CoreId,
        hit: impl FnOnce(&Arc<Dentry>) -> R,
    ) -> Option<R> {
        if self.fault_pressure.should_inject() {
            // The entry was "evicted" under memory pressure: the caller
            // falls back to the filesystem, exactly as on a cold miss.
            self.stats.dcache_pressure_misses.bump();
            self.stats.dcache_misses.bump();
            return None;
        }
        let guard = rcu::read_lock();
        let bucket = self.bucket(key).read(&guard);
        if self.config.lockfree_dlookup {
            for d in tagged(bucket, key) {
                match d.compare_lockfree(key, core) {
                    Some(true) => {
                        self.stats.lockfree_lookups.bump();
                        self.stats.dcache_hits.bump();
                        return Some(hit(d));
                    }
                    Some(false) => continue,
                    None => {
                        // Fall back to the locking protocol (§4.4).
                        self.stats.lockfree_fallbacks.bump();
                        if d.compare_locked(key, core) {
                            self.stats.dentry_lock_acquisitions.bump();
                            self.stats.dcache_hits.bump();
                            return Some(hit(d));
                        }
                        continue;
                    }
                }
            }
        } else {
            for Tagged { dentry: d, .. } in bucket.iter() {
                self.stats.dentry_lock_acquisitions.bump();
                if d.compare_locked(key, core) {
                    self.stats.dcache_hits.bump();
                    return Some(hit(d));
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
        for d in tagged(bucket, key) {
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
        self.hash_in(key, inode, core, true)
    }

    /// Caches `key → inode` with the cache's reference only — what a
    /// fill that has no use for the dentry calls instead of
    /// [`Dcache::insert`] followed by an immediate `put`. Same
    /// duplicate-key rule, same faults, same counters.
    pub fn cache(&self, key: DentryKey, inode: InodeId, core: CoreId) -> Result<(), VfsError> {
        self.hash_in(key, inode, core, false).map(drop)
    }

    /// The one insertion: publishes a dentry for `key` unless a live one
    /// is hashed, and returns whichever is in the bucket — with one
    /// reference for the caller if `caller_ref`.
    fn hash_in(
        &self,
        key: DentryKey,
        inode: InodeId,
        core: CoreId,
        caller_ref: bool,
    ) -> Result<Arc<Dentry>, VfsError> {
        if self.fault_alloc.should_inject() {
            self.stats.dentry_alloc_failures.bump();
            return Err(VfsError::OutOfMemory);
        }
        let hash = key.probe().hash();
        let bucket = self.bucket(&key.probe());
        let mut dentry = Dentry::with_refcount(
            key,
            inode,
            pk_sloppy::RefCount::new_scaled(
                self.config.sloppy_dentry_refs,
                self.config.percore_refs,
                &self.arena,
            ),
        );
        // The cache holds the creation reference; take one for the caller.
        // A freshly created dentry can only be dead if something tore it
        // down concurrently — surface that as ESTALE on the syscall path
        // rather than panicking in the kernel.
        if caller_ref {
            dentry.get(core).map_err(|_| VfsError::Stale)?;
        }
        bucket.publish(|v| {
            let mut v = v.clone();
            // Bucket rewrites are serialized, so a live match found here
            // has not been removed: its reference is taken before any
            // remove or shrink can drop the cache's.
            let live =
                |d: &&Arc<Dentry>| d.is_live_match(&dentry.key.probe()) && d.get(core).is_ok();
            match v.iter().map(|t| &t.dentry).find(live) {
                Some(existing) => {
                    if !caller_ref {
                        existing.put(core);
                    }
                    dentry = Arc::clone(existing);
                }
                None => v.push(Tagged {
                    hash,
                    dentry: Arc::clone(&dentry),
                }),
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
        self.bucket(key).publish(|v| {
            let mut kept = Vec::with_capacity(v.len());
            for t in v.iter() {
                if t.dentry.is_live_match(key) {
                    t.dentry.begin_modify().unhash();
                    // Drop the cache's reference; the object is freed when
                    // the last user reference goes away.
                    t.dentry.put(core);
                    removed = true;
                } else {
                    kept.push(t.clone());
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
            bucket.publish(|v| {
                let mut kept = Vec::with_capacity(v.len());
                for t in v.iter() {
                    // Only the cache's reference remains → evictable.
                    if evicted + victims.len() < target && t.dentry.references() == 1 {
                        victims.push(Arc::clone(&t.dentry));
                    } else {
                        kept.push(t.clone());
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
            assert!(bucket.iter().any(|b| Arc::ptr_eq(&b.dentry, &d)));
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
            .map(|_| Tagged {
                hash: key.probe().hash(),
                dentry: Dentry::new(key.clone(), InodeId(5), true, 4),
            })
            .collect();
        c.bucket(&key.probe()).publish(|_| planted.clone());
        assert!(c.remove(&key, CoreId(0)));
        assert!(c.is_empty());
        assert!(planted.iter().all(|t| t.dentry.is_unhashed()));
    }

    /// Every bucket entry's tag is its dentry's key hash, and it sits in
    /// the bucket that hash selects.
    fn assert_tags_match(c: &Dcache) {
        let guard = rcu::read_lock();
        for (i, bucket) in c.buckets.iter().enumerate() {
            for t in bucket.read(&guard).iter() {
                assert_eq!(t.hash, t.dentry.key.probe().hash(), "{:?}", t.dentry.key);
                assert_eq!(t.hash as usize & c.mask, i, "{:?}", t.dentry.key);
            }
        }
    }

    #[test]
    fn bucket_tags_follow_insert_cache_remove_and_shrink() {
        for lockfree in [false, true] {
            // Eight buckets for forty names: most buckets chain.
            let mut cfg = VfsConfig::pk(4);
            cfg.lockfree_dlookup = lockfree;
            let c = Dcache::new(8, cfg, Arc::new(VfsStats::new()));
            let key = |i: u64| DentryKey::new(InodeId(i % 3), format!("n{i}"));
            let core = CoreId(1);
            for i in 0..20 {
                c.insert(key(i), InodeId(i), core).unwrap().put(core);
            }
            for i in 20..40 {
                c.cache(key(i), InodeId(i), core).unwrap();
            }
            // A repeat insert finds the live dentry and pushes nothing.
            c.insert(key(3), InodeId(3), core).unwrap().put(core);
            assert_eq!(c.len(), 40);
            assert_tags_match(&c);
            for i in (0..40).step_by(3) {
                assert!(c.remove(&key(i), core));
            }
            assert_tags_match(&c);
            let held = c.lookup(&key(1), core).unwrap();
            assert_eq!(c.shrink(10, core), 10);
            assert_tags_match(&c);
            for i in (0..40).filter(|i| i % 3 != 0) {
                if let Some(d) = c.lookup(&key(i), core) {
                    assert_eq!(d.inode(), InodeId(i), "a tag led to the wrong dentry");
                    d.put(core);
                }
            }
            assert!(
                c.lookup(&key(1), core).is_some(),
                "a held entry is not shrunk"
            );
            held.put(core);
        }
    }

    #[test]
    fn pk_skips_a_neighbour_under_modification_by_its_tag() {
        // One bucket, so the neighbour is the first candidate every
        // lookup meets.
        let neighbour = DentryKey::new(InodeId(1), "neighbour");
        let target = DentryKey::new(InodeId(1), "target");
        let fill = |c: &Dcache| {
            let n = c.insert(neighbour.clone(), InodeId(2), CoreId(0)).unwrap();
            c.cache(target.clone(), InodeId(3), CoreId(0)).unwrap();
            n
        };
        let stats = Arc::new(VfsStats::new());
        let pk = Arc::new(Dcache::new(1, VfsConfig::pk(4), Arc::clone(&stats)));
        let held = fill(&pk);
        {
            // A rename or unlink of the neighbour in flight: its `d_lock`
            // held, its generation parked at 0.
            let _modify = held.begin_modify();
            assert_eq!(pk.peek(&target), Some(Some(InodeId(3))));
            // Without the tag the lookup falls back to the neighbour's
            // `d_lock` and spins on it: run it where a bounded wait can
            // say so.
            let (done, hit) = std::sync::mpsc::channel();
            let (pk, target) = (Arc::clone(&pk), target.clone());
            let walker = std::thread::spawn(move || {
                let hit = pk.lookup(&target, CoreId(1)).map(|d| {
                    d.put(CoreId(1));
                    d.inode()
                });
                done.send(hit).expect("the test waits for the lookup");
            });
            let hit = hit
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("the lookup stopped at the neighbour's d_lock");
            assert_eq!(hit, Some(InodeId(3)));
            walker.join().expect("the lookup thread");
        }
        let load = |c: &pk_percpu::Tally| c.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(load(&stats.lockfree_fallbacks), 0);
        assert_eq!(load(&stats.dentry_lock_acquisitions), 0);
        assert_eq!(load(&stats.lockfree_lookups), 1);
        // Stock locks every candidate it compares, tag or no tag: the
        // neighbour, then the target.
        let stock_stats = Arc::new(VfsStats::new());
        let stock = Dcache::new(1, VfsConfig::stock(4), Arc::clone(&stock_stats));
        fill(&stock).put(CoreId(0));
        stock.lookup(&target, CoreId(1)).unwrap().put(CoreId(1));
        assert_eq!(load(&stock_stats.dentry_lock_acquisitions), 2);
        assert!(stock
            .lookup(&DentryKey::new(InodeId(1), "absent"), CoreId(1))
            .is_none());
        assert_eq!(load(&stock_stats.dentry_lock_acquisitions), 4);
        held.put(CoreId(0));
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
    fn pk_dentries_take_sixteen_bytes_per_core_of_arena() {
        const N: usize = 5_000;
        const CORES: usize = 4;
        let c = Dcache::new(1_024, VfsConfig::pk(CORES), Arc::new(VfsStats::new()));
        let before = c.arena.bytes();
        for i in 0..N {
            let key = DentryKey::new(InodeId(1), format!("f{i}"));
            c.cache(key, InodeId(i as u64 + 2), CoreId(i % CORES))
                .unwrap();
        }
        let grown = c.arena.bytes() - before;
        let group = CORES * pk_percpu::ARENA_LANES * 16;
        assert!(
            grown <= N * CORES * 16 + group,
            "{grown} bytes of arena for {N} dentries"
        );
        // Stock dentries count on one shared word: no arena at all.
        let stock = Dcache::new(64, VfsConfig::stock(CORES), Arc::new(VfsStats::new()));
        for i in 0..100 {
            let key = DentryKey::new(InodeId(1), format!("f{i}"));
            stock.cache(key, InodeId(2), CoreId(0)).unwrap();
        }
        assert_eq!(stock.arena.bytes(), 0);
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
        let c = Arc::new(Dcache::new(4, VfsConfig::pk(8), Arc::new(VfsStats::new())));
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
