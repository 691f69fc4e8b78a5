//! Reference counting with a sloppy counter: the dentry lifecycle.

use crate::sloppy::{SloppyConfig, SloppyCounter};
use crate::snzi::Snzi;
use pk_percpu::CoreId;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Error returned when deallocation cannot proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeallocError {
    /// The object still has live references after reconciliation.
    InUse {
        /// How many references remain.
        remaining: i64,
    },
    /// The object was already deallocated.
    AlreadyDead,
}

impl fmt::Display for DeallocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InUse { remaining } => {
                write!(f, "object still has {remaining} live references")
            }
            Self::AlreadyDead => f.write_str("object was already deallocated"),
        }
    }
}

impl std::error::Error for DeallocError {}

/// A sloppy reference count with the paper's deallocation protocol.
///
/// This is the structure PK uses for `dentry`, `vfsmount`, and
/// `dst_entry` reference counts (§4.3): gets and puts are core-local in
/// the common case, and the expensive central/per-core reconciliation
/// happens only "when deciding whether an object can be de-allocated" —
/// which is why "sloppy counters should only be used for objects that are
/// relatively infrequently de-allocated."
///
/// The count starts at 1 (the creator's reference), like kernel objects.
///
/// # Examples
///
/// ```
/// use pk_percpu::CoreId;
/// use pk_sloppy::SloppyRefCount;
///
/// let rc = SloppyRefCount::new(4);
/// rc.get(CoreId(1)).unwrap();
/// rc.put(CoreId(2));
/// rc.put(CoreId(0)); // drops the creator's reference
/// assert_eq!(rc.try_dealloc(), Ok(()));
/// assert!(rc.get(CoreId(1)).is_err()); // no resurrection
/// ```
#[derive(Debug)]
pub struct SloppyRefCount {
    counter: SloppyCounter,
    dead: AtomicBool,
    // Serializes the reconcile-and-check against concurrent gets that
    // would otherwise resurrect a zero count (the paper's lock-free
    // protocol falls back to locking when the refcount is 0; this mutex
    // plays that role).
    dealloc: Mutex<()>,
}

impl SloppyRefCount {
    /// Creates a refcount of 1 (the creator's reference) over `cores`.
    pub fn new(cores: usize) -> Self {
        Self::with_config(cores, SloppyConfig::default())
    }

    /// As [`SloppyRefCount::new`] with explicit sloppy-counter tuning.
    pub fn with_config(cores: usize, config: SloppyConfig) -> Self {
        let counter = SloppyCounter::with_config(cores, config);
        // The creator's reference is charged to core 0 by convention,
        // whichever core actually runs the constructor; the object is
        // not shared yet, so this is not a discipline violation.
        let _migrate = pk_lockdep::MigrationScope::enter();
        counter.acquire(CoreId(0), 1);
        Self {
            counter,
            dead: AtomicBool::new(false),
            dealloc: Mutex::new(()),
        }
    }

    /// Acquires one reference on behalf of `core`.
    ///
    /// Fails if the object has already been deallocated (matching the
    /// §4.4 rule: "increment the reference count unless it is 0").
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        // Fast path: not dead. The dealloc path re-checks under its lock.
        if self.dead.load(Ordering::Acquire) {
            return Err(DeallocError::AlreadyDead);
        }
        self.counter.acquire(core, 1);
        // A dealloc may have completed between the check and the acquire;
        // back out if so.
        if self.dead.load(Ordering::Acquire) {
            self.counter.release(core, 1);
            return Err(DeallocError::AlreadyDead);
        }
        Ok(())
    }

    /// Releases one reference on behalf of `core`.
    pub fn put(&self, core: CoreId) {
        self.counter.release(core, 1);
    }

    /// Attempts to deallocate: reconciles all per-core spares and succeeds
    /// only if no references remain. On success the object is dead and
    /// all future [`SloppyRefCount::get`] calls fail.
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        // A panicked holder must not wedge every future dealloc: the
        // guard protects a reconcile-and-check that is safe to rerun.
        let _g = self.dealloc.lock().unwrap_or_else(|e| e.into_inner());
        if self.dead.load(Ordering::Acquire) {
            return Err(DeallocError::AlreadyDead);
        }
        let remaining = self.counter.reconcile();
        if remaining == 0 {
            self.dead.store(true, Ordering::Release);
            Ok(())
        } else {
            Err(DeallocError::InUse { remaining })
        }
    }

    /// Returns whether the object has been deallocated.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Returns the current exact reference count (expensive: reconciling
    /// read across all cores).
    pub fn references(&self) -> i64 {
        self.counter.in_use()
    }

    /// Returns `(central_ops, local_ops)` from the underlying counter.
    pub fn op_counts(&self) -> (u64, u64) {
        self.counter.op_counts()
    }
}

/// A SNZI-tree reference count: the generation-2 (§7) backing for
/// objects whose sloppy counters saturate past 48 cores.
///
/// Same lifecycle as [`SloppyRefCount`] — count starts at 1, gets fail
/// after death, deallocation reconciles — but gets and puts drive a
/// [`Snzi`] tree shaped like the machine (per-core leaves, per-socket
/// intermediate nodes), so zero-crossing traffic aggregates per socket
/// instead of all landing on one central word.
#[derive(Debug)]
pub struct SnziRefCount {
    counter: Snzi,
    dead: AtomicBool,
    // Serializes reconcile-and-check against concurrent gets, exactly
    // as in SloppyRefCount.
    dealloc: Mutex<()>,
}

impl SnziRefCount {
    /// Creates a refcount of 1 over `cores` spread across `sockets`.
    pub fn new(cores: usize, sockets: usize) -> Self {
        let counter = Snzi::new(cores, sockets);
        // Creator's reference charged to core 0 by convention; the
        // object is not shared yet.
        let _migrate = pk_lockdep::MigrationScope::enter();
        counter.arrive(CoreId(0), 1);
        Self {
            counter,
            dead: AtomicBool::new(false),
            dealloc: Mutex::new(()),
        }
    }

    /// Acquires one reference on behalf of `core`; fails after death.
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(DeallocError::AlreadyDead);
        }
        self.counter.arrive(core, 1);
        if self.dead.load(Ordering::Acquire) {
            self.counter.depart(core, 1);
            return Err(DeallocError::AlreadyDead);
        }
        Ok(())
    }

    /// Releases one reference on behalf of `core`. Cross-socket
    /// releases are fine: the tree tolerates migrated departs.
    pub fn put(&self, core: CoreId) {
        self.counter.depart(core, 1);
    }

    /// Attempts to deallocate: reconciles the tree and succeeds only if
    /// no references remain.
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        let _g = self.dealloc.lock().unwrap_or_else(|e| e.into_inner());
        if self.dead.load(Ordering::Acquire) {
            return Err(DeallocError::AlreadyDead);
        }
        let remaining = self.counter.reconcile();
        if remaining == 0 {
            self.dead.store(true, Ordering::Release);
            Ok(())
        } else {
            Err(DeallocError::InUse { remaining })
        }
    }

    /// Whether the object has been deallocated.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// The exact current reference count (expensive: visits every leaf).
    pub fn references(&self) -> i64 {
        self.counter.value()
    }

    /// The cheap liveness probe: true while any reference may remain.
    pub fn maybe_referenced(&self) -> bool {
        self.counter.query()
    }

    /// `(central_ops, local_ops)` from the underlying tree.
    pub fn op_counts(&self) -> (u64, u64) {
        self.counter.op_counts()
    }
}

/// The stock refcount's single shared word: the reference count in the
/// low 32 bits (two's complement, as wide as Linux's `atomic_t`) and the
/// number of operations performed in the high 32, so a get or put is
/// **one** read-modify-write that moves both — the tally costs the
/// contended line nothing extra.
///
/// Wrap horizon: the count is exact while it stays within ±2³¹; the op
/// tally is exact for the first 2³² operations on one object and counts
/// modulo 2³² after that (its carry leaves the word, so a wrapped tally
/// never disturbs the count). At one uncontended RMW per ≈ 5 ns that is
/// over 20 s of back-to-back gets and puts on a single object.
#[derive(Debug)]
pub struct CountAndOps(AtomicU64);

impl CountAndOps {
    /// One operation, in the high half.
    const OP: u64 = 1 << 32;

    fn new(count: i32) -> Self {
        Self(AtomicU64::new(count as u32 as u64))
    }

    /// `(count, ops)` of a loaded word. The count's sign extension is
    /// subtracted back out before the shift, undoing the borrow a
    /// negative low half takes from the high one.
    fn unpack(word: u64) -> (i64, u64) {
        let count = i64::from(word as u32 as i32);
        (count, word.wrapping_sub(count as u64) >> 32)
    }

    /// count + 1, ops + 1.
    fn get(&self) {
        self.0.fetch_add(Self::OP + 1, Ordering::AcqRel);
    }

    /// count − 1, ops + 1.
    fn put(&self) {
        self.0.fetch_add(Self::OP - 1, Ordering::AcqRel);
    }

    /// count − 1, ops unchanged: backs out a `get` that lost the race
    /// with deallocation (the get was counted, its undo is not).
    fn undo_get(&self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }

    fn load(&self) -> (i64, u64) {
        Self::unpack(self.0.load(Ordering::Acquire))
    }

    /// Confirms with one RMW that the count is zero at a single point in
    /// the word's modification order; otherwise returns the count seen.
    fn confirm_zero(&self) -> Result<(), i64> {
        let mut word = self.0.load(Ordering::Acquire);
        loop {
            let (count, _) = Self::unpack(word);
            if count != 0 {
                return Err(count);
            }
            match self
                .0
                .compare_exchange(word, word, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(()),
                Err(actual) => word = actual,
            }
        }
    }
}

/// A reference count whose backing is chosen at object-creation time:
/// a single shared atomic (the stock kernel), a sloppy counter (PK),
/// or a SNZI tree (PK generation-2, for structures whose sloppy
/// counters saturate at high core counts).
///
/// This is the switch Figure 1 toggles for `dentry`, `vfsmount`, and
/// `dst_entry` objects. All variants expose the same lifecycle so kernel
/// code is oblivious to which one it got — the backwards compatibility
/// that makes sloppy counters deployable piecemeal.
#[derive(Debug)]
pub enum RefCount {
    /// One shared atomic counter; every get/put bounces its cache line.
    Atomic {
        /// The shared count (starts at 1, the creator's reference) and
        /// the number of operations performed (all of them shared), in
        /// one word.
        word: CountAndOps,
        /// Whether the object has been deallocated.
        dead: AtomicBool,
    },
    /// A sloppy counter (PK).
    Sloppy(SloppyRefCount),
    /// A per-socket SNZI tree (PK generation-2).
    Snzi(SnziRefCount),
}

impl RefCount {
    /// Creates an atomic-backed refcount of 1.
    pub fn new_atomic() -> Self {
        Self::Atomic {
            word: CountAndOps::new(1),
            dead: AtomicBool::new(false),
        }
    }

    /// Creates a sloppy-backed refcount of 1 over `cores`.
    pub fn new_sloppy(cores: usize) -> Self {
        Self::Sloppy(SloppyRefCount::new(cores))
    }

    /// Creates a SNZI-tree-backed refcount of 1 over `cores` spread
    /// across `sockets`.
    pub fn new_snzi(cores: usize, sockets: usize) -> Self {
        Self::Snzi(SnziRefCount::new(cores, sockets))
    }

    /// Creates the variant selected by `sloppy`.
    pub fn new(sloppy: bool, cores: usize) -> Self {
        if sloppy {
            Self::new_sloppy(cores)
        } else {
            Self::new_atomic()
        }
    }

    /// Picks the backing by fix generation: the SNZI tree when both the
    /// sloppy-counter fix and its generation-2 upgrade are enabled, the
    /// flat sloppy counter under plain PK, the shared atomic otherwise.
    pub fn new_scaled(sloppy: bool, snzi: bool, cores: usize, sockets: usize) -> Self {
        match (sloppy, snzi) {
            (true, true) => Self::new_snzi(cores, sockets),
            (true, false) => Self::new_sloppy(cores),
            (false, _) => Self::new_atomic(),
        }
    }

    /// Acquires a reference on behalf of `core`.
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        match self {
            Self::Atomic { word, dead } => {
                if dead.load(Ordering::Acquire) {
                    return Err(DeallocError::AlreadyDead);
                }
                word.get();
                if dead.load(Ordering::Acquire) {
                    word.undo_get();
                    return Err(DeallocError::AlreadyDead);
                }
                Ok(())
            }
            Self::Sloppy(rc) => rc.get(core),
            Self::Snzi(rc) => rc.get(core),
        }
    }

    /// Releases a reference on behalf of `core`.
    pub fn put(&self, core: CoreId) {
        match self {
            Self::Atomic { word, .. } => word.put(),
            Self::Sloppy(rc) => rc.put(core),
            Self::Snzi(rc) => rc.put(core),
        }
    }

    /// Attempts to deallocate (reconciling if sloppy).
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        match self {
            Self::Atomic { word, dead } => {
                if dead.load(Ordering::Acquire) {
                    return Err(DeallocError::AlreadyDead);
                }
                match word.confirm_zero() {
                    Ok(()) => {
                        dead.store(true, Ordering::Release);
                        Ok(())
                    }
                    Err(remaining) => Err(DeallocError::InUse { remaining }),
                }
            }
            Self::Sloppy(rc) => rc.try_dealloc(),
            Self::Snzi(rc) => rc.try_dealloc(),
        }
    }

    /// Returns the exact current reference count (expensive if sloppy).
    pub fn references(&self) -> i64 {
        match self {
            Self::Atomic { word, .. } => word.load().0,
            Self::Sloppy(rc) => rc.references(),
            Self::Snzi(rc) => rc.references(),
        }
    }

    /// Returns how many operations touched shared cache lines versus
    /// stayed core-local. For the atomic variant every operation is a
    /// shared (central) operation.
    pub fn op_counts(&self) -> (u64, u64) {
        match self {
            Self::Atomic { word, .. } => (word.load().1, 0),
            Self::Sloppy(rc) => rc.op_counts(),
            Self::Snzi(rc) => rc.op_counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_with_one_reference() {
        let rc = SloppyRefCount::new(2);
        assert_eq!(rc.references(), 1);
        assert!(!rc.is_dead());
    }

    #[test]
    fn dealloc_fails_while_referenced() {
        let rc = SloppyRefCount::new(2);
        rc.get(CoreId(1)).unwrap();
        assert_eq!(rc.try_dealloc(), Err(DeallocError::InUse { remaining: 2 }));
        rc.put(CoreId(1));
        rc.put(CoreId(0));
        assert_eq!(rc.try_dealloc(), Ok(()));
        assert_eq!(rc.try_dealloc(), Err(DeallocError::AlreadyDead));
    }

    #[test]
    fn get_after_dealloc_fails() {
        let rc = SloppyRefCount::new(2);
        rc.put(CoreId(0));
        rc.try_dealloc().unwrap();
        assert_eq!(rc.get(CoreId(1)), Err(DeallocError::AlreadyDead));
        assert_eq!(rc.references(), 0, "failed get must not leak");
    }

    #[test]
    fn cross_core_get_put_balances() {
        let rc = SloppyRefCount::new(4);
        rc.get(CoreId(1)).unwrap();
        rc.put(CoreId(3)); // released on a different core
        assert_eq!(rc.references(), 1);
        rc.put(CoreId(0));
        assert_eq!(rc.try_dealloc(), Ok(()));
    }

    #[test]
    fn hot_get_put_stays_core_local() {
        let rc = SloppyRefCount::new(2);
        // Warm up one spare, then hammer get/put on the same core.
        rc.get(CoreId(1)).unwrap();
        rc.put(CoreId(1));
        let (central_before, _) = rc.op_counts();
        for _ in 0..10_000 {
            rc.get(CoreId(1)).unwrap();
            rc.put(CoreId(1));
        }
        let (central_after, _) = rc.op_counts();
        assert_eq!(central_before, central_after);
    }

    #[test]
    fn snzi_refcount_mirrors_sloppy_lifecycle() {
        let rc = SnziRefCount::new(16, 4);
        assert_eq!(rc.references(), 1);
        rc.get(CoreId(5)).unwrap();
        rc.put(CoreId(13)); // cross-socket migration
        assert_eq!(rc.references(), 1);
        assert!(rc.maybe_referenced());
        assert_eq!(rc.try_dealloc(), Err(DeallocError::InUse { remaining: 1 }));
        rc.put(CoreId(0));
        assert_eq!(rc.try_dealloc(), Ok(()));
        assert_eq!(rc.get(CoreId(2)), Err(DeallocError::AlreadyDead));
        assert_eq!(rc.references(), 0, "failed get must not leak");
    }

    #[test]
    fn new_scaled_picks_backing_by_fix_generation() {
        let rc = RefCount::new_scaled(true, true, 16, 4);
        assert!(matches!(rc, RefCount::Snzi(_)));
        rc.get(CoreId(9)).unwrap();
        rc.put(CoreId(2));
        assert_eq!(rc.references(), 1);
        // Sloppy without the gen-2 flag stays sloppy, no sloppy at all
        // stays atomic whatever the snzi flag says.
        assert!(matches!(
            RefCount::new_scaled(true, false, 8, 2),
            RefCount::Sloppy(_)
        ));
        assert!(matches!(
            RefCount::new_scaled(false, true, 8, 2),
            RefCount::Atomic { .. }
        ));
    }

    #[test]
    fn concurrent_get_put_then_dealloc() {
        let rc = Arc::new(SloppyRefCount::new(8));
        let handles: Vec<_> = (0..8)
            .map(|core| {
                let rc = Arc::clone(&rc);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        rc.get(CoreId(core)).unwrap();
                        rc.put(CoreId(core));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rc.references(), 1);
        rc.put(CoreId(0));
        assert_eq!(rc.try_dealloc(), Ok(()));
    }

    #[test]
    fn atomic_word_counts_refs_and_ops_in_one_rmw() {
        let rc = RefCount::new_atomic();
        assert_eq!((rc.references(), rc.op_counts()), (1, (0, 0)));
        rc.get(CoreId(0)).unwrap();
        rc.get(CoreId(1)).unwrap();
        rc.put(CoreId(0));
        assert_eq!((rc.references(), rc.op_counts()), (2, (3, 0)));
        assert_eq!(rc.try_dealloc(), Err(DeallocError::InUse { remaining: 2 }));
        rc.put(CoreId(1));
        rc.put(CoreId(0));
        assert_eq!((rc.references(), rc.op_counts()), (0, (5, 0)));
        // An over-put drives the low half negative; the borrow it takes
        // from the high half must not leak into the op tally.
        rc.put(CoreId(0));
        assert_eq!((rc.references(), rc.op_counts()), (-1, (6, 0)));
        assert_eq!(rc.try_dealloc(), Err(DeallocError::InUse { remaining: -1 }));
        rc.get(CoreId(0)).unwrap();
        assert_eq!((rc.references(), rc.op_counts()), (0, (7, 0)));
        assert_eq!(rc.try_dealloc(), Ok(()));
        // A get refused up front is no operation at all.
        assert_eq!(rc.get(CoreId(0)), Err(DeallocError::AlreadyDead));
        assert_eq!((rc.references(), rc.op_counts()), (0, (7, 0)));
    }

    #[test]
    fn atomic_word_backs_out_a_get_without_counting_the_undo() {
        let word = CountAndOps::new(1);
        word.get();
        word.undo_get();
        assert_eq!(word.load(), (1, 1), "the get counted, its undo did not");
        // At the op tally's wrap horizon the carry leaves the word: the
        // count is untouched.
        let word = CountAndOps(AtomicU64::new((u64::from(u32::MAX) << 32) | 5));
        assert_eq!(word.load(), (5, u64::from(u32::MAX)));
        word.put();
        assert_eq!(word.load(), (4, 0));
    }

    #[test]
    fn atomic_word_is_exact_under_real_threads() {
        const PAIRS: u64 = 100_000;
        let rc = RefCount::new_atomic();
        std::thread::scope(|s| {
            for core in 0..4 {
                let rc = &rc;
                s.spawn(move || {
                    for _ in 0..PAIRS {
                        rc.get(CoreId(core)).unwrap();
                        rc.put(CoreId(core));
                    }
                });
            }
        });
        assert_eq!(rc.references(), 1);
        assert_eq!(rc.op_counts(), (4 * 2 * PAIRS, 0));
    }
}
