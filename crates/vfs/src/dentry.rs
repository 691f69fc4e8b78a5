//! Directory entries and the two comparison protocols.
//!
//! A name is hashed **once**: a [`DentryProbe`] — Linux's `struct qstr`,
//! `(parent, &str, hash)` — is built per path component from the
//! borrowed name and is what every comparison and bucket lookup takes;
//! a [`DentryKey`] is the owned form a cached dentry keeps, carrying
//! the same hash so a miss can be inserted without hashing again. The
//! hash is `DefaultHasher::new()` over `(parent, name)`, exactly what
//! the derived `Hash` of a `(InodeId, String)` pair produces, so bucket
//! placement (and with it every collision the goldens pin) is the one
//! the cache has always had.
//!
//! Inside a comparison the stored hash is the first reject, but only
//! *after* `d_lock` is taken (stock) or the generation is read (PK):
//! the protocols touch the same shared state in the same order whether
//! or not the hashes differ, so no `VfsStats` counter depends on it.

use crate::inode::InodeId;
use pk_percpu::CoreId;
use pk_sloppy::{DeallocError, RefCount};
use pk_sync::{GenCounter, SpinLock};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Lock class of every dentry's `d_lock`, registered by the first
/// dentry constructed.
static D_LOCK_CLASS: pk_lockdep::LazyClass =
    pk_lockdep::LazyClass::new("vfs.dentry.d_lock", "pk-vfs", pk_lockdep::LockKind::Spin);

/// A borrowed lookup key: parent directory inode, component name and
/// their hash, computed once at construction.
#[derive(Debug, Clone, Copy)]
pub struct DentryProbe<'a> {
    parent: InodeId,
    name: &'a str,
    hash: u64,
}

impl<'a> DentryProbe<'a> {
    /// Hashes `(parent, name)` and borrows the name.
    pub fn new(parent: InodeId, name: &'a str) -> Self {
        let mut h = DefaultHasher::new();
        parent.hash(&mut h);
        name.hash(&mut h);
        Self {
            parent,
            name,
            hash: h.finish(),
        }
    }

    /// The hash that selects the dcache bucket.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The owned key for inserting what this probe missed; the name is
    /// copied, the hash is not recomputed.
    pub fn to_key(&self) -> DentryKey {
        DentryKey {
            parent: self.parent,
            name: self.name.into(),
            hash: self.hash,
        }
    }
}

/// Hash key of a dentry: parent directory inode + component name, plus
/// their hash. The name is a `Box<str>` so the key stays 32 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DentryKey {
    parent: InodeId,
    name: Box<str>,
    hash: u64,
}

impl DentryKey {
    /// Creates a key, hashing it once.
    pub fn new(parent: InodeId, name: impl AsRef<str>) -> Self {
        DentryProbe::new(parent, name.as_ref()).to_key()
    }

    /// The borrowed form of this key (no hashing, no copy).
    pub fn probe(&self) -> DentryProbe<'_> {
        DentryProbe {
            parent: self.parent,
            name: &self.name,
            hash: self.hash,
        }
    }
}

impl<'a> From<&'a DentryKey> for DentryProbe<'a> {
    fn from(key: &'a DentryKey) -> Self {
        key.probe()
    }
}

/// A cached directory entry mapping `(parent, name)` to an inode.
///
/// Carries the paper's full §4.4 machinery:
///
/// * a reference count that is atomic (stock) or sloppy (PK),
/// * the per-dentry spin lock the stock `dlookup` takes to compare
///   fields,
/// * the generation counter PK uses for lock-free comparison (0 while a
///   modification is in flight).
#[derive(Debug)]
pub struct Dentry {
    /// The lookup key.
    pub key: DentryKey,
    /// Target inode, stored atomically so the lock-free protocol can copy
    /// it without holding the spin lock.
    inode: AtomicU64,
    /// Unhashed flag: set when the entry is removed from the cache
    /// (unlink/rename); lookups must then miss.
    unhashed: AtomicBool,
    /// Reference count (atomic in stock, sloppy in PK).
    refcount: RefCount,
    /// The per-dentry spin lock (`d_lock`).
    lock: SpinLock<()>,
    /// Generation counter for the PK lock-free comparison.
    generation: GenCounter,
}

impl Dentry {
    /// Creates a live, hashed dentry with one reference (the cache's).
    pub fn new(key: DentryKey, inode: InodeId, sloppy_refs: bool, cores: usize) -> Arc<Self> {
        Self::with_refcount(key, inode, RefCount::new(sloppy_refs, cores))
    }

    /// [`Dentry::new`] with an explicit refcount backing — how the
    /// dcache selects the generation-2 SNZI tree when
    /// `VfsConfig::snzi_refs` is set.
    pub fn with_refcount(key: DentryKey, inode: InodeId, refcount: RefCount) -> Arc<Self> {
        let d = Arc::new(Self {
            key,
            inode: AtomicU64::new(inode.0),
            unhashed: AtomicBool::new(false),
            refcount,
            lock: SpinLock::new(()),
            generation: GenCounter::new(),
        });
        d.lock.set_class(D_LOCK_CLASS.id());
        d
    }

    /// Returns the target inode id.
    pub fn inode(&self) -> InodeId {
        InodeId(self.inode.load(Ordering::Acquire))
    }

    /// Returns whether the dentry has been unhashed.
    pub fn is_unhashed(&self) -> bool {
        self.unhashed.load(Ordering::Acquire)
    }

    /// Whether this dentry's key equals `probe`: the stored hashes
    /// first (one word rejects a bucket neighbour), then parent and
    /// name.
    fn matches(&self, probe: &DentryProbe<'_>) -> bool {
        self.key.hash == probe.hash
            && self.key.parent == probe.parent
            && *self.key.name == *probe.name
    }

    /// Whether this is the live (hashed) dentry for `probe` — the
    /// cache's own test when it rewrites a bucket.
    pub(crate) fn is_live_match(&self, probe: &DentryProbe<'_>) -> bool {
        !self.is_unhashed() && self.matches(probe)
    }

    /// The stock comparison protocol: take the per-dentry spin lock,
    /// compare fields, and take a reference on a match.
    ///
    /// Returns `true` on a successful match-and-reference.
    pub fn compare_locked(&self, probe: &DentryProbe<'_>, core: CoreId) -> bool {
        let _g = self.lock.lock();
        if self.is_unhashed() || !self.matches(probe) {
            return false;
        }
        self.refcount.get(core).is_ok()
    }

    /// The PK lock-free comparison protocol (§4.4):
    ///
    /// 1. If the generation counter is 0, fall back to locking; otherwise
    ///    remember it.
    /// 2. Copy the fields to locals.
    /// 3. If the generation changed, fall back to locking.
    /// 4. Compare; on a match take a reference unless the count is 0 (then
    ///    fall back to locking).
    ///
    /// Returns `Some(matched)` if the protocol completed lock-free, or
    /// `None` if the caller must fall back to [`Dentry::compare_locked`].
    pub fn compare_lockfree(&self, probe: &DentryProbe<'_>, core: CoreId) -> Option<bool> {
        let snapshot = self.generation.begin_read()?;
        // Copy the mutable fields to locals.
        let inode = self.inode.load(Ordering::Acquire);
        let unhashed = self.unhashed.load(Ordering::Acquire);
        if !self.generation.validate(snapshot) {
            return None;
        }
        let _ = inode; // the caller reads it again via `inode()` on a hit
        if unhashed || !self.matches(probe) {
            return Some(false);
        }
        match self.refcount.get(core) {
            Ok(()) => {
                // The reference was taken optimistically; make sure no
                // modification raced it (rename/unlink would have parked
                // the generation at 0 or advanced it).
                if self.generation.validate(snapshot) {
                    Some(true)
                } else {
                    self.refcount.put(core);
                    None
                }
            }
            // Refcount hit zero → the object is being torn down; the
            // paper's rule is to fall back to the locking protocol.
            Err(DeallocError::AlreadyDead | DeallocError::InUse { .. }) => None,
        }
    }

    /// The RCU-walk probe: reads the fields under the generation
    /// seqcount **without touching the refcount** — the step the
    /// generation-2 path walk repeats per component so a warm walk
    /// writes no shared memory at all.
    ///
    /// Returns `Some(Some(inode))` on a stable match, `Some(None)` on a
    /// stable non-match, or `None` when the seqcount tore (a
    /// rename/unlink is in flight) and the caller must fall back to the
    /// reference walk.
    pub fn peek(&self, probe: &DentryProbe<'_>) -> Option<Option<InodeId>> {
        let snapshot = self.generation.begin_read()?;
        let inode = self.inode.load(Ordering::Acquire);
        let unhashed = self.unhashed.load(Ordering::Acquire);
        if !self.generation.validate(snapshot) {
            return None;
        }
        if unhashed || !self.matches(probe) {
            return Some(None);
        }
        Some(Some(InodeId(inode)))
    }

    /// Takes an additional reference (e.g. for the cache's own pointer).
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        self.refcount.get(core)
    }

    /// Releases one reference.
    pub fn put(&self, core: CoreId) {
        self.refcount.put(core);
    }

    /// Exact reference count (expensive when sloppy).
    pub fn references(&self) -> i64 {
        self.refcount.references()
    }

    /// Returns `(shared_ops, local_ops)` of the refcount.
    pub fn refcount_ops(&self) -> (u64, u64) {
        self.refcount.op_counts()
    }

    /// Begins a modification: locks the dentry and parks the generation
    /// counter at 0 so lock-free readers fall back.
    ///
    /// The caller mutates via the returned guard, then the modification is
    /// published when the guard drops.
    pub fn begin_modify(&self) -> DentryModifyGuard<'_> {
        let _lock = self.lock.lock();
        self.generation.begin_write();
        DentryModifyGuard {
            dentry: self,
            _lock,
        }
    }

    /// Attempts to free the dentry (reconciles a sloppy refcount).
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        self.refcount.try_dealloc()
    }
}

/// Guard over an in-flight dentry modification (rename, unlink).
pub struct DentryModifyGuard<'a> {
    dentry: &'a Dentry,
    _lock: pk_sync::SpinGuard<'a, ()>,
}

impl DentryModifyGuard<'_> {
    /// Points the dentry at a different inode (rename target reuse).
    pub fn set_inode(&self, inode: InodeId) {
        self.dentry.inode.store(inode.0, Ordering::Release);
    }

    /// Unhashes the dentry so future lookups miss.
    pub fn unhash(&self) {
        self.dentry.unhashed.store(true, Ordering::Release);
    }
}

impl Drop for DentryModifyGuard<'_> {
    fn drop(&mut self) {
        self.dentry.generation.end_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dentry(sloppy: bool) -> Arc<Dentry> {
        Dentry::new(DentryKey::new(InodeId(1), "usr"), InodeId(2), sloppy, 4)
    }

    #[test]
    fn locked_compare_matches() {
        let d = dentry(false);
        assert!(d.compare_locked(&DentryProbe::new(InodeId(1), "usr"), CoreId(0)));
        assert_eq!(d.references(), 2);
        assert!(!d.compare_locked(&DentryProbe::new(InodeId(1), "var"), CoreId(0)));
        assert!(!d.compare_locked(&DentryProbe::new(InodeId(9), "usr"), CoreId(0)));
    }

    #[test]
    fn lockfree_compare_matches() {
        for sloppy in [false, true] {
            let d = dentry(sloppy);
            assert_eq!(
                d.compare_lockfree(&DentryProbe::new(InodeId(1), "usr"), CoreId(1)),
                Some(true)
            );
            assert_eq!(d.references(), 2);
            assert_eq!(
                d.compare_lockfree(&DentryProbe::new(InodeId(1), "var"), CoreId(1)),
                Some(false)
            );
        }
    }

    #[test]
    fn lockfree_falls_back_during_modification() {
        let d = dentry(true);
        let guard = d.begin_modify();
        assert_eq!(
            d.compare_lockfree(&DentryProbe::new(InodeId(1), "usr"), CoreId(0)),
            None,
            "generation parked at 0 → fallback"
        );
        drop(guard);
        assert_eq!(
            d.compare_lockfree(&DentryProbe::new(InodeId(1), "usr"), CoreId(0)),
            Some(true)
        );
    }

    #[test]
    fn peek_never_touches_the_refcount() {
        let d = dentry(true);
        let (shared0, local0) = d.refcount_ops();
        assert_eq!(
            d.peek(&DentryProbe::new(InodeId(1), "usr")),
            Some(Some(InodeId(2)))
        );
        assert_eq!(d.peek(&DentryProbe::new(InodeId(1), "var")), Some(None));
        assert_eq!(d.refcount_ops(), (shared0, local0));
        assert_eq!(d.references(), 1, "no reference taken");
    }

    #[test]
    fn peek_tears_during_modification_then_recovers() {
        let d = dentry(false);
        let key = DentryProbe::new(InodeId(1), "usr");
        let guard = d.begin_modify();
        assert_eq!(d.peek(&key), None, "seqcount parked → documented fallback");
        guard.set_inode(InodeId(7));
        drop(guard);
        assert_eq!(d.peek(&key), Some(Some(InodeId(7))));
    }

    #[test]
    fn unhash_makes_lookups_miss() {
        let d = dentry(false);
        d.begin_modify().unhash();
        assert!(d.is_unhashed());
        assert_eq!(
            d.compare_lockfree(&DentryProbe::new(InodeId(1), "usr"), CoreId(0)),
            Some(false)
        );
        assert!(!d.compare_locked(&DentryProbe::new(InodeId(1), "usr"), CoreId(0)));
    }

    #[test]
    fn modify_guard_retargets_inode() {
        let d = dentry(false);
        d.begin_modify().set_inode(InodeId(7));
        assert_eq!(d.inode(), InodeId(7));
    }

    #[test]
    fn dealloc_after_releasing_all_refs() {
        let d = dentry(true);
        assert!(d.try_dealloc().is_err(), "cache still holds a reference");
        d.put(CoreId(0));
        assert_eq!(d.try_dealloc(), Ok(()));
        assert_eq!(
            d.compare_lockfree(&DentryProbe::new(InodeId(1), "usr"), CoreId(2)),
            None,
            "dead dentry forces fallback"
        );
    }
}
