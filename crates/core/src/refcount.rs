//! Reference counting for kernel objects: the dentry lifecycle, stated
//! once ([`Lifecycle`]) over the three counters that can back it.

use crate::sloppy::SloppyCounter;
use crate::snzi::Snzi;
use crate::traits::Counter;
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

/// What a [`Lifecycle`] counts references in: a [`Counter`] (`add` is the
/// hot path, `value` the exact read) that can also settle a deallocation.
pub trait Backing: Counter {
    /// Reconciles whatever is banked per core and returns the exact
    /// count, read at one point (0 licenses the deallocation).
    fn settle(&self) -> i64;

    /// Backs out a `+1` that lost the race with deallocation.
    fn undo_get(&self, core: CoreId) {
        self.add(core, -1);
    }
}

/// The object lifecycle of §4.3/§4.4 over a counter `B`: the count starts
/// at 1 (the creator's reference, like kernel objects), gets and puts go
/// to the counter, and deallocation settles the counter and succeeds only
/// at zero — after which the object is dead and every get fails
/// ("increment the reference count unless it is 0"). All backings share
/// this one protocol, so kernel code is oblivious to which it got.
#[derive(Debug)]
pub struct Lifecycle<B> {
    counter: B,
    dead: AtomicBool,
    // Serializes settle-and-mark between deallocators (the paper's
    // lock-free protocol falls back to locking when the refcount is 0).
    dealloc: Mutex<()>,
}

impl<B: Backing> Lifecycle<B> {
    /// Wraps a counter that already holds the creator's reference.
    fn holding(counter: B) -> Self {
        Self {
            counter,
            dead: AtomicBool::new(false),
            dealloc: Mutex::new(()),
        }
    }

    /// Charges the creator's reference to core 0 by convention,
    /// whichever core actually runs the constructor; the object is not
    /// shared yet, so this is not a discipline violation.
    fn charged(counter: B) -> Self {
        let _migrate = pk_lockdep::MigrationScope::enter();
        counter.add(CoreId(0), 1);
        Self::holding(counter)
    }

    /// Acquires one reference on behalf of `core`; fails once the object
    /// has been deallocated.
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        // Fast path: not dead. The dealloc path re-checks under its lock.
        if !self.is_dead() {
            self.counter.add(core, 1);
            // A dealloc may have completed between the check and the
            // increment; back out if so.
            if !self.is_dead() {
                return Ok(());
            }
            self.counter.undo_get(core);
        }
        Err(DeallocError::AlreadyDead)
    }

    /// Releases one reference on behalf of `core` (any core: a reference
    /// may be dropped where it was not taken).
    pub fn put(&self, core: CoreId) {
        self.counter.add(core, -1);
    }

    /// Attempts to deallocate: settles the counter — the expensive step,
    /// which is why "sloppy counters should only be used for objects that
    /// are relatively infrequently de-allocated" — and succeeds only if no
    /// references remain. On success the object is dead for good.
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        // A panicked holder must not wedge every future dealloc: the
        // guard protects a settle-and-check that is safe to rerun.
        let _g = self.dealloc.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_dead() {
            return Err(DeallocError::AlreadyDead);
        }
        match self.counter.settle() {
            0 => {
                self.dead.store(true, Ordering::Release);
                Ok(())
            }
            remaining => Err(DeallocError::InUse { remaining }),
        }
    }

    /// Returns whether the object has been deallocated.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Returns the exact current reference count (expensive on the
    /// per-core backings: it reads every core's share).
    pub fn references(&self) -> i64 {
        self.counter.value()
    }

    /// Returns `(central_ops, local_ops)` from the underlying counter.
    pub fn op_counts(&self) -> (u64, u64) {
        self.counter.op_counts()
    }
}

/// A sloppy reference count: the structure PK uses for `dentry`,
/// `vfsmount`, and `dst_entry` reference counts (§4.3). Gets and puts are
/// core-local in the common case; the central/per-core reconciliation
/// happens only "when deciding whether an object can be de-allocated".
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
pub type SloppyRefCount = Lifecycle<SloppyCounter>;

impl SloppyRefCount {
    /// Creates a refcount of 1 (the creator's reference) over `cores`.
    pub fn new(cores: usize) -> Self {
        Self::charged(SloppyCounter::new(cores))
    }
}

impl Backing for SloppyCounter {
    fn settle(&self) -> i64 {
        self.reconcile()
    }
}

/// A SNZI-tree reference count: the generation-2 (§7) backing for
/// objects whose sloppy counters saturate past 48 cores. Gets and puts
/// drive a [`Snzi`] tree shaped like the machine (per-core leaves,
/// per-socket intermediate nodes), so zero-crossing traffic aggregates
/// per socket instead of all landing on one central word; cross-socket
/// releases are fine, the tree tolerates migrated departs.
pub type SnziRefCount = Lifecycle<Snzi>;

impl SnziRefCount {
    /// Creates a refcount of 1 over `cores` spread across `sockets`.
    pub fn new(cores: usize, sockets: usize) -> Self {
        Self::charged(Snzi::new(cores, sockets))
    }

    /// The cheap liveness probe: true while any reference may remain.
    pub fn maybe_referenced(&self) -> bool {
        self.counter.query()
    }
}

impl Backing for Snzi {
    fn settle(&self) -> i64 {
        self.reconcile()
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

    fn load(&self) -> (i64, u64) {
        Self::unpack(self.0.load(Ordering::Acquire))
    }
}

impl Counter for CountAndOps {
    /// count + `delta`, ops + 1, in one RMW (a borrow the low half takes
    /// from the high one is undone by `unpack`).
    fn add(&self, _: CoreId, delta: i64) {
        self.0
            .fetch_add(Self::OP.wrapping_add(delta as u64), Ordering::AcqRel);
    }

    fn value(&self) -> i64 {
        self.load().0
    }

    fn name(&self) -> &'static str {
        "atomic.word"
    }

    /// Every operation on the one word is a shared one.
    fn op_counts(&self) -> (u64, u64) {
        (self.load().1, 0)
    }
}

impl Backing for CountAndOps {
    /// Confirms with one RMW that the count is zero at a single point in
    /// the word's modification order; otherwise returns the count seen.
    fn settle(&self) -> i64 {
        let mut word = self.0.load(Ordering::Acquire);
        loop {
            let (count, _) = Self::unpack(word);
            if count != 0 {
                return count;
            }
            match self
                .0
                .compare_exchange(word, word, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return 0,
                Err(actual) => word = actual,
            }
        }
    }

    /// count − 1, ops unchanged: the get was counted, its undo is not.
    fn undo_get(&self, _: CoreId) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A reference count whose backing is chosen at object-creation time:
/// a single shared atomic (the stock kernel), a sloppy counter (PK),
/// or a SNZI tree (PK generation-2, for structures whose sloppy
/// counters saturate at high core counts).
///
/// This is the switch Figure 1 toggles for `dentry`, `vfsmount`, and
/// `dst_entry` objects. All variants are one [`Lifecycle`] — the
/// backwards compatibility that makes sloppy counters deployable
/// piecemeal.
#[derive(Debug)]
pub enum RefCount {
    /// One shared atomic counter; every get/put bounces its cache line.
    Atomic(Lifecycle<CountAndOps>),
    /// A sloppy counter (PK).
    Sloppy(SloppyRefCount),
    /// A per-socket SNZI tree (PK generation-2).
    Snzi(SnziRefCount),
}

/// Delegates to whichever lifecycle `self` holds.
macro_rules! delegate {
    ($self:ident, $rc:ident => $call:expr) => {
        match $self {
            Self::Atomic($rc) => $call,
            Self::Sloppy($rc) => $call,
            Self::Snzi($rc) => $call,
        }
    };
}

impl RefCount {
    /// Creates the variant selected by `sloppy`.
    pub fn new(sloppy: bool, cores: usize) -> Self {
        Self::new_scaled(sloppy, false, cores, 1)
    }

    /// Picks the backing by fix generation: the SNZI tree when both the
    /// sloppy-counter fix and its generation-2 upgrade are enabled, the
    /// flat sloppy counter under plain PK, the shared atomic otherwise.
    pub fn new_scaled(sloppy: bool, snzi: bool, cores: usize, sockets: usize) -> Self {
        match (sloppy, snzi) {
            (true, true) => Self::Snzi(SnziRefCount::new(cores, sockets)),
            (true, false) => Self::Sloppy(SloppyRefCount::new(cores)),
            // The creator's reference is the initial value, not an op.
            (false, _) => Self::Atomic(Lifecycle::holding(CountAndOps::new(1))),
        }
    }

    /// Acquires a reference on behalf of `core`.
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        delegate!(self, rc => rc.get(core))
    }

    /// Releases a reference on behalf of `core`.
    pub fn put(&self, core: CoreId) {
        delegate!(self, rc => rc.put(core))
    }

    /// Attempts to deallocate (reconciling if sloppy).
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        delegate!(self, rc => rc.try_dealloc())
    }

    /// Returns the exact current reference count (expensive if sloppy).
    pub fn references(&self) -> i64 {
        delegate!(self, rc => rc.references())
    }

    /// Returns how many operations touched shared cache lines versus
    /// stayed core-local. For the atomic variant every operation is a
    /// shared (central) operation.
    pub fn op_counts(&self) -> (u64, u64) {
        delegate!(self, rc => rc.op_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs a generic lifecycle test body over a fresh refcount of each
    /// of the three backings.
    macro_rules! over_all_backings {
        ($body:ident) => {{
            $body(|| Lifecycle::holding(CountAndOps::new(1)));
            $body(|| SloppyRefCount::new(4));
            $body(|| SnziRefCount::new(4, 2));
        }};
    }

    fn lifecycle_in_order<B: Backing>(make: impl Fn() -> Lifecycle<B>) {
        let rc = make();
        let name = rc.counter.name();
        assert_eq!(rc.references(), 1, "{name}: the creator's reference");
        assert!(!rc.is_dead());
        rc.get(CoreId(1)).unwrap();
        rc.get(CoreId(2)).unwrap();
        assert_eq!(
            rc.try_dealloc(),
            Err(DeallocError::InUse { remaining: 3 }),
            "{name}"
        );
        rc.put(CoreId(3)); // released on a core that took nothing
        rc.put(CoreId(1));
        assert_eq!(
            rc.try_dealloc(),
            Err(DeallocError::InUse { remaining: 1 }),
            "{name}"
        );
        assert!(!rc.is_dead(), "{name}: a refused dealloc changes nothing");
        rc.put(CoreId(0));
        assert_eq!(rc.try_dealloc(), Ok(()), "{name}");
        assert!(rc.is_dead());
        // No resurrection, and a refused get leaves nothing behind.
        assert_eq!(rc.try_dealloc(), Err(DeallocError::AlreadyDead), "{name}");
        assert_eq!(rc.get(CoreId(1)), Err(DeallocError::AlreadyDead), "{name}");
        assert_eq!(rc.references(), 0, "{name}: failed get must not leak");
    }

    #[test]
    fn miri_smoke_lifecycle_is_the_same_over_every_backing() {
        over_all_backings!(lifecycle_in_order);
    }

    fn get_races_try_dealloc<B: Backing>(make: impl Fn() -> Lifecycle<B>) {
        // One unreferenced live object per round; a get and a dealloc
        // leave a barrier together. What the protocol promises whichever
        // way the race goes: a get is refused only by a completed
        // dealloc, a dealloc is refused only by the get (and says by
        // exactly how much), a refused get is backed out, and the count
        // stays exact. What it does not promise is an order: a get that
        // lands between the settle and the mark succeeds on an object
        // that is then dead (a lookup racing an eviction) — its
        // reference is still counted, and no later get succeeds.
        for _ in 0..300 {
            let rc = make();
            let name = rc.counter.name();
            rc.put(CoreId(0));
            let start = std::sync::Barrier::new(2);
            let (got, freed) = std::thread::scope(|s| {
                let getter = s.spawn(|| {
                    start.wait();
                    rc.get(CoreId(1))
                });
                start.wait();
                let freed = rc.try_dealloc();
                (getter.join().unwrap(), freed)
            });
            match (got, freed) {
                (Err(e), freed) => {
                    assert_eq!((e, freed), (DeallocError::AlreadyDead, Ok(())), "{name}");
                    assert_eq!(rc.references(), 0, "{name}: refused get leaked");
                }
                (Ok(()), Err(e)) => {
                    assert_eq!(e, DeallocError::InUse { remaining: 1 }, "{name}");
                    assert!(!rc.is_dead(), "{name}");
                    rc.put(CoreId(1));
                    assert_eq!(rc.try_dealloc(), Ok(()), "{name}");
                }
                (Ok(()), Ok(())) => assert_eq!(rc.references(), 1, "{name}"),
            }
            assert_eq!(rc.get(CoreId(2)), Err(DeallocError::AlreadyDead), "{name}");
        }
    }

    #[test]
    fn a_get_racing_try_dealloc_is_refused_or_counted() {
        over_all_backings!(get_races_try_dealloc);
    }

    /// A counter whose next `+1` first lets a hook run — here a whole
    /// deallocation, forcing the one interleaving `get`'s re-check exists
    /// for instead of waiting for two threads to find it.
    #[derive(Default)]
    struct Scripted {
        count: std::sync::atomic::AtomicI64,
        before_next_inc: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl Counter for Scripted {
        fn add(&self, _: CoreId, delta: i64) {
            let hook = self.before_next_inc.lock().unwrap().take();
            if let Some(hook) = hook.filter(|_| delta > 0) {
                hook();
            }
            self.count.fetch_add(delta, Ordering::SeqCst);
        }
        fn value(&self) -> i64 {
            self.count.load(Ordering::SeqCst)
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    impl Backing for Scripted {
        fn settle(&self) -> i64 {
            self.value()
        }
    }

    #[test]
    fn a_get_overtaken_by_a_dealloc_backs_out() {
        let rc = Arc::new(Lifecycle::holding(Scripted::default()));
        let dealloc = Arc::clone(&rc);
        *rc.counter.before_next_inc.lock().unwrap() =
            Some(Box::new(move || assert_eq!(dealloc.try_dealloc(), Ok(()))));
        // Passes the first dead check, is overtaken inside the increment,
        // and must notice on the re-check.
        assert_eq!(rc.get(CoreId(0)), Err(DeallocError::AlreadyDead));
        assert!(rc.is_dead());
        assert_eq!(rc.references(), 0, "the overtaken increment was undone");
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

    fn churn_then_dealloc<B: Backing>(make: impl Fn() -> Lifecycle<B>) {
        let rc = make();
        std::thread::scope(|s| {
            for core in 0..4 {
                let rc = &rc;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        rc.get(CoreId(core)).unwrap();
                        rc.put(CoreId(core));
                    }
                });
            }
        });
        assert_eq!(rc.references(), 1);
        rc.put(CoreId(0));
        assert_eq!(rc.try_dealloc(), Ok(()));
    }

    #[test]
    fn concurrent_get_put_then_dealloc() {
        over_all_backings!(churn_then_dealloc);
    }

    #[test]
    fn atomic_word_counts_refs_and_ops_in_one_rmw() {
        let rc = RefCount::new(false, 1);
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
        word.add(CoreId(0), 1);
        word.undo_get(CoreId(0));
        assert_eq!(word.load(), (1, 1), "the get counted, its undo did not");
        // At the op tally's wrap horizon the carry leaves the word: the
        // count is untouched.
        let word = CountAndOps(AtomicU64::new((u64::from(u32::MAX) << 32) | 5));
        assert_eq!(word.load(), (5, u64::from(u32::MAX)));
        word.add(CoreId(0), -1);
        assert_eq!(word.load(), (4, 0));
    }

    #[test]
    fn atomic_word_is_exact_under_real_threads() {
        const PAIRS: u64 = 100_000;
        let rc = RefCount::new(false, 1);
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
