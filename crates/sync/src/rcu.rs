//! Epoch-based read-copy-update.
//!
//! The directory-entry cache the paper studies is "optimized using RCU for
//! scalability" (\[39\], \[40\]): readers traverse shared structures without
//! writing any shared memory, while writers publish new versions and defer
//! reclamation until every reader that might hold a reference has passed a
//! quiescent point. This module implements a small userspace RCU with the
//! same shape: pointer publication via [`RcuCell`] and grace periods via
//! epoch tracking per logical core.
//!
//! Two reclamation disciplines are offered:
//!
//! * **blocking** — [`synchronize`] spins until every reader that predates
//!   the call has quiesced, then the caller frees the retired object. Every
//!   writer pays a full grace period.
//! * **deferred** — [`call_rcu`] (or the safe [`defer_drop`]) hands the
//!   retired object to a per-core cache-aligned deferred-free queue tagged
//!   with a *target epoch*; a grace-period state machine retires queued
//!   batches once every core has passed a quiescent point at or beyond the
//!   target. Writers never stall. [`rcu_barrier`] waits out one grace
//!   period and drains everything previously deferred — the shutdown and
//!   test hook.
//!
//! ## Grace-period state machine
//!
//! The global epoch `G` only grows. A reader's outermost `read_lock`
//! publishes the current `G` into its core's slot (0 = quiescent). An
//! object retired at epoch `G` gets target `t = G + 1`, and `G` is
//! advanced to at least `t` (without waiting). The entry is reclaimable
//! exactly when every core slot is 0 or ≥ `t`: any reader that could have
//! observed the old pointer published an epoch < `t` before the swap, so
//! this condition proves all such readers have exited. Per-core queues are
//! in non-decreasing target order (the epoch is monotonic), so reclaim
//! pops from the front until the first entry whose grace period has not
//! elapsed.
//!
//! ## The scan bound
//!
//! Grace scans read reader slots `0..registry::high_water()`, not all
//! `MAX_CORES`: a slot at or above the high-water mark has never had an
//! owner, so it holds 0. The bound cannot hide a reader. A thread's
//! `fetch_max` on the mark (inside `register`, `SeqCst`) is sequenced
//! before its first epoch store, and a retirer loads the mark (`SeqCst`)
//! after it unpublishes; so wherever the argument above orders a
//! reader's epoch store before the unpublish — the only readers a scan
//! has to find — the same chain orders that reader's `fetch_max` before
//! the retirer's load of the mark, and the scan reaches its slot.

use pk_percpu::{registry, CacheAligned, MAX_CORES};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

/// Global epoch; advanced by `synchronize()` and `call_rcu()`.
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Per-core reader state: 0 = quiescent, otherwise the epoch at which the
/// outermost read-side critical section began.
static READER_EPOCHS: [CacheAligned<AtomicU64>; MAX_CORES] = {
    // The const is only an array-initialization helper; each array slot
    // is its own atomic.
    #[allow(clippy::declare_interior_mutable_const)]
    const Q: CacheAligned<AtomicU64> = CacheAligned::new(AtomicU64::new(0));
    [Q; MAX_CORES]
};

/// One retired object awaiting its grace period.
struct Deferred {
    /// Reclaimable once every core is quiescent or at/past this epoch.
    target: u64,
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: The pointer is owned (unpublished) by the queue entry; the drop
// function is the only remaining access path, and `call_rcu`'s contract
// requires the payload to be `Send`.
unsafe impl Send for Deferred {}

/// Per-core cache-aligned deferred-free queues.
static DEFER_QUEUES: [CacheAligned<Mutex<VecDeque<Deferred>>>; MAX_CORES] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const Q: CacheAligned<Mutex<VecDeque<Deferred>>> =
        CacheAligned::new(Mutex::new(VecDeque::new()));
    [Q; MAX_CORES]
};

/// Entries a core may queue before `call_rcu` falls back to a blocking
/// spill (grace wait + drain) to bound memory.
pub const DEFER_QUEUE_CAP: usize = 4096;

/// Grace-period and deferral counters (process-wide, monotonic).
static SYNCHRONIZE_CALLS: AtomicU64 = AtomicU64::new(0);
static SYNC_SPIN_ITERS: AtomicU64 = AtomicU64::new(0);
static CALL_RCU_CALLS: AtomicU64 = AtomicU64::new(0);
static DEFERRED_FREED: AtomicU64 = AtomicU64::new(0);
static DEFER_SPILLS: AtomicU64 = AtomicU64::new(0);
static BARRIER_CALLS: AtomicU64 = AtomicU64::new(0);

/// Serializes [`rcu_barrier`] calls end to end (steal, grace wait,
/// free): a barrier that starts after another has stolen a batch must
/// not return before that batch is freed, and the thief is the only one
/// who can free it.
static BARRIER: Mutex<()> = Mutex::new(());

thread_local! {
    static NESTING: Cell<u32> = const { Cell::new(0) };
    /// Test hook, see [`with_spill_probe`]. Thread-scoped: a probe only
    /// ever forces spills of the thread that installed it.
    static SPILL_PROBE: RefCell<Option<Rc<dyn Fn() -> bool>>> = const { RefCell::new(None) };
}

/// A read-side critical section; ends when dropped.
///
/// Equivalent to the span between `rcu_read_lock()` and
/// `rcu_read_unlock()`. While any guard from an epoch earlier than a
/// writer's `synchronize()` call is live, that writer waits.
#[derive(Debug)]
#[must_use = "dropping the guard immediately ends the read-side section"]
pub struct RcuReadGuard {
    core: usize,
    // Read-side sections are per-thread; the guard must drop on the thread
    // that created it.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Enters a read-side critical section.
///
/// Sections nest; only the outermost one publishes the reader epoch.
pub fn read_lock() -> RcuReadGuard {
    let core = registry::current_or_register().index();
    let nesting = NESTING.with(|n| {
        let v = n.get();
        n.set(v + 1);
        v
    });
    if nesting == 0 {
        let epoch = GLOBAL_EPOCH.load(Ordering::SeqCst);
        READER_EPOCHS[core].store(epoch, Ordering::SeqCst);
    }
    pk_lockdep::epoch_enter();
    pk_trace::span_begin(&RCU_READ_SPAN);
    RcuReadGuard {
        core,
        _not_send: std::marker::PhantomData,
    }
}

/// Trace class for read-side sections (begin/end ride on the guard, so
/// the span cannot use the RAII macro).
static RCU_READ_SPAN: pk_trace::LazySpanClass = pk_trace::LazySpanClass::new("rcu.read");

impl Drop for RcuReadGuard {
    fn drop(&mut self) {
        pk_trace::span_end(&RCU_READ_SPAN);
        pk_lockdep::epoch_exit();
        let nesting = NESTING.with(|n| {
            let v = n.get() - 1;
            n.set(v);
            v
        });
        if nesting == 0 {
            // `Release`, not `SeqCst`: a section pays one fence, on entry.
            // A grace scan that reads this 0 (its loads are `SeqCst`,
            // hence acquire) synchronizes with it, so everything the
            // section read happens-before the reclaim. A scan that reads
            // a 0 from *before* the section is the case `read_lock`'s
            // `SeqCst` epoch store decides, and that store is unchanged.
            READER_EPOCHS[self.core].store(0, Ordering::Release);
        }
    }
}

/// Waits until every read-side critical section that began before this
/// call has ended (a *grace period*).
///
/// Equivalent to `synchronize_rcu()`. This is the blocking discipline:
/// the caller stalls for the whole grace period. Prefer [`call_rcu`] /
/// [`defer_drop`] on hot write paths.
#[track_caller]
pub fn synchronize() {
    pk_lockdep::check_synchronize();
    let _span = pk_trace::trace_span!("rcu.synchronize");
    SYNCHRONIZE_CALLS.fetch_add(1, Ordering::Relaxed);
    let target = GLOBAL_EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    for slot in &READER_EPOCHS[..registry::high_water()] {
        let mut spins = 0u64;
        loop {
            let e = slot.load(Ordering::SeqCst);
            if e == 0 || e >= target {
                break;
            }
            spins += 1;
            std::hint::spin_loop();
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
        if spins > 0 {
            SYNC_SPIN_ITERS.fetch_add(spins, Ordering::Relaxed);
        }
    }
}

/// Retires `ptr` through the deferred-free queues: `drop_fn(ptr)` runs
/// once every core has passed a quiescent point after this call. Never
/// blocks for a grace period (except on queue overflow, see
/// [`DEFER_QUEUE_CAP`]).
///
/// Unlike [`synchronize`], calling this *inside* a read-side section is
/// legal: reclamation is simply deferred past the caller's own section.
///
/// # Safety
///
/// * `ptr` must be exclusively owned by the caller (already unpublished:
///   no new reader can reach it) and valid to pass to `drop_fn`.
/// * `drop_fn(ptr)` may run on any thread, so the pointee must be `Send`.
/// * `drop_fn` must free `ptr` exactly once.
pub unsafe fn call_rcu(ptr: *mut (), drop_fn: unsafe fn(*mut ())) {
    pk_trace::trace_instant!("rcu.call_rcu");
    CALL_RCU_CALLS.fetch_add(1, Ordering::Relaxed);
    let target = GLOBAL_EPOCH.load(Ordering::SeqCst) + 1;
    // Advance the epoch so future readers start at or beyond the target;
    // concurrent retirers in the same epoch share one advance.
    GLOBAL_EPOCH.fetch_max(target, Ordering::SeqCst);
    let core = registry::current_or_register().index();
    let len = {
        let mut q = DEFER_QUEUES[core].lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(Deferred {
            target,
            ptr,
            drop_fn,
        });
        q.len()
    };
    // Reclamation (and especially a blocking spill) must not run inside a
    // read-side section: the spill's grace wait would wait on the caller.
    if NESTING.with(Cell::get) > 0 {
        return;
    }
    // Cloned out of the cell before it runs: a probe may itself retire
    // objects. `try_with`: a thread-local's destructor may retire too,
    // after this one is gone.
    let probe = SPILL_PROBE.try_with(|p| p.borrow().clone());
    let forced = probe.ok().flatten().is_some_and(|p| p());
    if len > DEFER_QUEUE_CAP || forced {
        spill(core);
    } else {
        reap_core(core);
    }
}

/// Retires a boxed value through [`call_rcu`]: dropped after a grace
/// period, without blocking the caller.
pub fn defer_drop<T: Send + 'static>(value: Box<T>) {
    // SAFETY: The box is owned and unreachable to readers; `drop_box::<T>`
    // frees it exactly once; `T: Send + 'static` lets the drop run later
    // on any thread.
    unsafe { call_rcu(Box::into_raw(value).cast(), drop_box::<T>) }
}

/// Type-erased box destructor used by `defer_drop` and deferred
/// [`RcuCell::publish`].
unsafe fn drop_box<T>(ptr: *mut ()) {
    // SAFETY: `ptr` came from `Box::into_raw` of a `Box<T>` and this is
    // its unique owner (the queue entry).
    drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
}

/// The lowest epoch any active reader is in, or `u64::MAX` when all cores
/// are quiescent. An entry with `target <= min_active_reader_epoch()` has
/// had its grace period elapse.
fn min_active_reader_epoch() -> u64 {
    // Pair with the SeqCst publication in `read_lock`: a reader that
    // loaded the retired pointer published its epoch before the retirer
    // unpublished it, so this scan cannot miss it.
    fence(Ordering::SeqCst);
    let mut min = u64::MAX;
    for slot in &READER_EPOCHS[..registry::high_water()] {
        let e = slot.load(Ordering::SeqCst);
        if e != 0 && e < min {
            min = e;
        }
    }
    min
}

/// Frees every entry at the front of `core`'s queue whose grace period
/// has elapsed. Returns the number reclaimed.
fn reap_core(core: usize) -> usize {
    let mut batch = Vec::new();
    {
        let mut q = DEFER_QUEUES[core].lock().unwrap_or_else(|e| e.into_inner());
        if q.is_empty() {
            return 0;
        }
        let elapsed = min_active_reader_epoch();
        while let Some(front) = q.front() {
            if front.target <= elapsed {
                batch.push(q.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
    }
    free_batch(batch)
}

/// Blocking overflow path: wait one grace period (which covers every
/// queued target, the epoch being monotonic), then drain `core`'s queue.
fn spill(core: usize) {
    DEFER_SPILLS.fetch_add(1, Ordering::Relaxed);
    synchronize();
    let batch: Vec<Deferred> = {
        let mut q = DEFER_QUEUES[core].lock().unwrap_or_else(|e| e.into_inner());
        q.drain(..).collect()
    };
    free_batch(batch);
}

/// Runs the deferred drops outside any queue lock (a drop may itself
/// retire more objects).
fn free_batch(batch: Vec<Deferred>) -> usize {
    let n = batch.len();
    for d in batch {
        // SAFETY: The entry was popped under the queue lock, so this is
        // its unique owner, and its grace period has elapsed (reap) or a
        // full grace period was waited out (spill/barrier).
        unsafe { (d.drop_fn)(d.ptr) };
    }
    if n > 0 {
        DEFERRED_FREED.fetch_add(n as u64, Ordering::Relaxed);
    }
    n
}

/// Waits for the grace periods of everything deferred so far and runs
/// those drops (the shutdown/test flush; equivalent to `rcu_barrier()`).
///
/// Covered: every entry queued when the call starts, and every entry a
/// barrier that started earlier has stolen and not yet freed — barriers
/// run one at a time, so this one steals only after the previous one's
/// drops have run. Objects retired by other threads *during* the call
/// are not covered. Like [`synchronize`], this must not be called from
/// inside a read-side section (it would wait on the caller's own epoch),
/// nor from a deferred drop (it would wait on the barrier running it).
#[track_caller]
pub fn rcu_barrier() {
    pk_lockdep::check_rcu_barrier();
    let _span = pk_trace::trace_span!("rcu.barrier");
    BARRIER_CALLS.fetch_add(1, Ordering::Relaxed);
    // A drop that panicked under an earlier barrier leaves nothing
    // half-done that this one could trip over.
    let _serial = BARRIER.lock().unwrap_or_else(|e| e.into_inner());
    // Steal every queue's current contents first (only a core that was
    // ever registered has any), then wait one grace period: the epoch is
    // monotonic, so that single wait covers every stolen target.
    let mut stolen = Vec::new();
    for q in &DEFER_QUEUES[..registry::high_water()] {
        let mut q = q.lock().unwrap_or_else(|e| e.into_inner());
        stolen.extend(q.drain(..));
    }
    if stolen.is_empty() {
        return;
    }
    synchronize();
    free_batch(stolen);
}

/// Runs `f` with `probe` installed as this thread's spill probe: every
/// `call_rcu` the thread makes inside `f` (outside a read-side section)
/// asks it, and a `true` treats the queue as over capacity and spills.
/// The `rcu.defer_overflow` fault point is connected through this hook.
/// Other threads are unaffected; the previous probe is restored when `f`
/// returns or unwinds.
pub fn with_spill_probe<R>(probe: impl Fn() -> bool + 'static, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Rc<dyn Fn() -> bool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPILL_PROBE.with(|p| *p.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(SPILL_PROBE.with(|p| p.borrow_mut().replace(Rc::new(probe))));
    f()
}

/// A snapshot of the grace-period machinery's counters.
///
/// All values are process-wide and monotonic except `deferred_pending`;
/// take deltas around a phase to attribute costs to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcuStats {
    /// Blocking grace-period waits (includes spills and barriers).
    pub synchronize_calls: u64,
    /// Spin-loop iterations spent waiting inside `synchronize`.
    pub sync_spin_iters: u64,
    /// Objects retired through `call_rcu`/`defer_drop`.
    pub call_rcu_calls: u64,
    /// Deferred objects whose drop has run.
    pub deferred_freed: u64,
    /// Deferred objects still awaiting their grace period.
    pub deferred_pending: u64,
    /// Overflow/fault-forced blocking spills.
    pub spills: u64,
    /// `rcu_barrier` invocations.
    pub barriers: u64,
}

/// Reads the current counter values.
pub fn stats_snapshot() -> RcuStats {
    let call_rcu_calls = CALL_RCU_CALLS.load(Ordering::Relaxed);
    let deferred_freed = DEFERRED_FREED.load(Ordering::Relaxed);
    RcuStats {
        synchronize_calls: SYNCHRONIZE_CALLS.load(Ordering::Relaxed),
        sync_spin_iters: SYNC_SPIN_ITERS.load(Ordering::Relaxed),
        call_rcu_calls,
        deferred_freed,
        deferred_pending: call_rcu_calls.saturating_sub(deferred_freed),
        spills: DEFER_SPILLS.load(Ordering::Relaxed),
        barriers: BARRIER_CALLS.load(Ordering::Relaxed),
    }
}

/// Pull-model observability source exporting the `rcu.*` samples.
#[derive(Debug, Default, Clone, Copy)]
pub struct RcuObs;

impl pk_obs::Collect for RcuObs {
    fn collect(&self, out: &mut pk_obs::Snapshot) {
        let s = stats_snapshot();
        out.push(pk_obs::Sample::counter(
            "rcu.synchronize_calls",
            s.synchronize_calls,
        ));
        out.push(pk_obs::Sample::counter(
            "rcu.sync_spin_iters",
            s.sync_spin_iters,
        ));
        out.push(pk_obs::Sample::counter("rcu.call_rcu", s.call_rcu_calls));
        out.push(pk_obs::Sample::counter(
            "rcu.deferred_freed",
            s.deferred_freed,
        ));
        out.push(pk_obs::Sample::gauge(
            "rcu.deferred_pending",
            s.deferred_pending as i64,
        ));
        out.push(pk_obs::Sample::counter("rcu.spills", s.spills));
        out.push(pk_obs::Sample::counter("rcu.barriers", s.barriers));
    }
}

/// An RCU-protected pointer to an immutable `T` snapshot.
///
/// Readers obtain a cheap, wait-free reference under a [`RcuReadGuard`];
/// writers replace the snapshot wholesale with [`RcuCell::publish`],
/// which either blocks for a grace period before freeing the previous
/// one or retires it through the deferred-free queues without stalling.
///
/// # Examples
///
/// ```
/// use pk_sync::rcu::{self, RcuCell};
///
/// let cell = RcuCell::new(vec![1, 2, 3]);
/// {
///     let guard = rcu::read_lock();
///     assert_eq!(cell.read(&guard).len(), 3);
/// }
/// cell.publish(false, |_| vec![4]); // waits out a grace period
/// cell.publish(true, |v| v.iter().map(|x| x * 10).collect()); // does not
/// let guard = rcu::read_lock();
/// assert_eq!(cell.read(&guard), &[40]);
/// ```
#[derive(Debug)]
pub struct RcuCell<T> {
    ptr: AtomicPtr<T>,
    writer: Mutex<()>,
}

// SAFETY: The published pointer is only mutated under the writer mutex and
// only freed after a grace period, so shared access is sound for Send+Sync
// payloads.
unsafe impl<T: Send + Sync> Send for RcuCell<T> {}
// SAFETY: See above.
unsafe impl<T: Send + Sync> Sync for RcuCell<T> {}

impl<T> RcuCell<T> {
    /// Creates a cell publishing `value`.
    pub fn new(value: T) -> Self {
        Self {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            writer: Mutex::new(()),
        }
    }

    /// Dereferences the current snapshot.
    ///
    /// The returned reference is valid for the lifetime of the guard: the
    /// writer cannot free the snapshot until the guard drops.
    pub fn read<'g>(&self, _guard: &'g RcuReadGuard) -> &'g T {
        let p = self.ptr.load(Ordering::Acquire);
        // SAFETY: `p` was published by `new`/`publish` and cannot be freed
        // before the guard's read-side section ends: a blocking publish
        // waits for a grace period covering it, a deferred one queues the
        // old snapshot with a target epoch past this reader.
        unsafe { &*p }
    }
}

impl<T: Send + 'static> RcuCell<T> {
    /// Applies `f` to the current snapshot to compute a replacement and
    /// publishes it (read-copy-update); writers are serialized. The
    /// replaced snapshot is retired per `deferred`: through the
    /// deferred-free queues (`true`: the writer never waits for a grace
    /// period) or by blocking in [`synchronize`] and freeing it here
    /// (`false`). Either way the writer lock is released first, so a
    /// grace wait stalls this writer only.
    pub fn publish(&self, deferred: bool, f: impl FnOnce(&T) -> T) {
        let old = {
            // Lock poisoning only means a previous writer's `f` panicked;
            // the cell itself is always in a published, consistent state.
            let _w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            let cur = self.ptr.load(Ordering::Acquire);
            // SAFETY: We hold the writer lock, so `cur` cannot be swapped
            // out or freed concurrently.
            let new = Box::into_raw(Box::new(f(unsafe { &*cur })));
            self.ptr.swap(new, Ordering::SeqCst)
        };
        if deferred {
            // SAFETY: `old` is unpublished (the swap removed the last
            // shared path to it) and `T: Send + 'static`, so its drop may
            // run later on any thread; `drop_box::<T>` frees it once.
            unsafe { call_rcu(old.cast(), drop_box::<T>) };
        } else {
            synchronize();
            // SAFETY: `old` was the published pointer; after `synchronize`
            // no reader that could have loaded it is still in a read
            // section, and the swap removed it from the cell, so we hold
            // the only copy.
            drop(unsafe { Box::from_raw(old) });
        }
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            // SAFETY: Exclusive ownership at drop; no readers can exist
            // because they would borrow the cell.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn read_sees_published_value() {
        let cell = RcuCell::new(5u32);
        let g = read_lock();
        assert_eq!(*cell.read(&g), 5);
    }

    #[test]
    fn publish_replaces_snapshot() {
        let cell = RcuCell::new(String::from("old"));
        cell.publish(false, |_| String::from("new"));
        let g = read_lock();
        assert_eq!(cell.read(&g), "new");
    }

    #[test]
    fn publish_reads_current() {
        let cell = RcuCell::new(10u64);
        cell.publish(false, |v| v + 1);
        cell.publish(false, |v| v * 2);
        let g = read_lock();
        assert_eq!(*cell.read(&g), 22);
    }

    #[test]
    fn deferred_publish_is_visible_immediately() {
        let cell = RcuCell::new(10u64);
        cell.publish(true, |_| 11);
        cell.publish(true, |v| v * 2);
        let g = read_lock();
        assert_eq!(*cell.read(&g), 22);
        drop(g);
        rcu_barrier();
    }

    /// Sets a flag when dropped — the probe for "has reclamation run".
    struct Tracked(Arc<AtomicBool>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn defer_drop_runs_after_barrier() {
        let dropped = Arc::new(AtomicBool::new(false));
        defer_drop(Box::new(Tracked(Arc::clone(&dropped))));
        rcu_barrier();
        assert!(dropped.load(Ordering::SeqCst), "barrier flushes the queue");
    }

    #[test]
    fn deferred_drop_waits_for_reader_that_saw_old_pointer() {
        let cell = Arc::new(RcuCell::new(Tracked(Arc::new(AtomicBool::new(false)))));
        let reader_in = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));

        let r = {
            let cell = Arc::clone(&cell);
            let reader_in = Arc::clone(&reader_in);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let g = read_lock();
                let old_flag = Arc::clone(&cell.read(&g).0);
                reader_in.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    assert!(
                        !old_flag.load(Ordering::SeqCst),
                        "old snapshot dropped while a reader that observed it is in-section"
                    );
                    std::thread::yield_now();
                }
                drop(g);
                old_flag
            })
        };
        while !reader_in.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Writer does not block...
        cell.publish(true, |_| Tracked(Arc::new(AtomicBool::new(false))));
        // ...and churning more deferred work must still not free the old
        // snapshot while the reader is inside.
        for _ in 0..64 {
            defer_drop(Box::new(0u8));
            std::thread::yield_now();
        }
        release.store(true, Ordering::SeqCst);
        let old_flag = r.join().unwrap();
        rcu_barrier();
        assert!(
            old_flag.load(Ordering::SeqCst),
            "reclaimed after quiescence"
        );
    }

    #[test]
    fn call_rcu_is_legal_inside_read_section() {
        let g = read_lock();
        let dropped = Arc::new(AtomicBool::new(false));
        defer_drop(Box::new(Tracked(Arc::clone(&dropped))));
        // Our own section pins the epoch: nothing may be reclaimed yet
        // on this core's queue from inside the section.
        drop(g);
        rcu_barrier();
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn spill_probe_forces_blocking_drain() {
        let before = stats_snapshot();
        let dropped = Arc::new(AtomicBool::new(false));
        with_spill_probe(
            || true,
            || defer_drop(Box::new(Tracked(Arc::clone(&dropped)))),
        );
        assert!(
            stats_snapshot().spills > before.spills,
            "took the spill path"
        );
        // The spill drained this thread's queue after its grace wait —
        // unless a concurrent barrier (another test's) had stolen the
        // entry first, in which case that barrier frees it and ours
        // waits for it.
        rcu_barrier();
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn spill_probe_is_scoped_to_its_thread_and_restored_on_unwind() {
        // A sibling parks with an always-true probe installed. While the
        // probe was process-wide this wedged: the retire below spilled
        // into `synchronize()` and waited on this thread's own reader.
        let (installed, release) = (AtomicBool::new(false), AtomicBool::new(false));
        let reader_in = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                with_spill_probe(
                    || true,
                    || {
                        installed.store(true, Ordering::SeqCst);
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    },
                )
            });
            while !installed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let reader = s.spawn(|| {
                let _g = read_lock();
                reader_in.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
            while !reader_in.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let dropped = Arc::new(AtomicBool::new(false));
            defer_drop(Box::new(Tracked(Arc::clone(&dropped))));
            let freed_early = dropped.load(Ordering::SeqCst);
            release.store(true, Ordering::SeqCst);
            reader.join().unwrap();
            assert!(!freed_early, "freed under the parked reader");
            rcu_barrier();
            assert!(dropped.load(Ordering::SeqCst));
        });
        // A probe that unwinds out of its scope is gone afterwards.
        let unwound = std::panic::catch_unwind(|| with_spill_probe(|| true, || panic!("scoped")));
        assert!(unwound.is_err());
        assert!(SPILL_PROBE.with(|p| p.borrow().is_none()), "probe restored");
    }

    #[test]
    fn stats_balance_after_barrier() {
        for _ in 0..10 {
            defer_drop(Box::new([0u64; 4]));
        }
        rcu_barrier();
        let s = stats_snapshot();
        assert!(s.call_rcu_calls >= 10);
        // Other tests may be mid-enqueue concurrently, so pending is not
        // asserted to be exactly zero — only that the books balance.
        assert_eq!(
            s.call_rcu_calls,
            s.deferred_freed + s.deferred_pending,
            "every retirement is either freed or still queued"
        );
    }

    #[test]
    fn nested_read_sections() {
        let outer = read_lock();
        let inner = read_lock();
        drop(inner);
        // Outer section still pins the epoch.
        let core = outer.core;
        assert_ne!(READER_EPOCHS[core].load(Ordering::SeqCst), 0);
        drop(outer);
        assert_eq!(READER_EPOCHS[core].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn synchronize_waits_for_reader() {
        let cell = Arc::new(RcuCell::new(1u32));
        let reader_in = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let updated = Arc::new(AtomicBool::new(false));

        let r = {
            let reader_in = Arc::clone(&reader_in);
            let release = Arc::clone(&release);
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let g = read_lock();
                let v = *cell.read(&g);
                reader_in.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                drop(g);
                v
            })
        };
        while !reader_in.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let w = {
            let cell = Arc::clone(&cell);
            let updated = Arc::clone(&updated);
            std::thread::spawn(move || {
                cell.publish(false, |_| 2);
                updated.store(true, Ordering::SeqCst);
            })
        };
        // The writer must not finish while the reader is inside.
        for _ in 0..100 {
            std::thread::yield_now();
        }
        assert!(!updated.load(Ordering::SeqCst), "grace period ended early");
        release.store(true, Ordering::SeqCst);
        assert_eq!(r.join().unwrap(), 1);
        w.join().unwrap();
        assert!(updated.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let cell = Arc::new(RcuCell::new(vec![0u64; 8]));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let g = read_lock();
                        let v = cell.read(&g);
                        // Every snapshot is internally consistent: all
                        // elements equal.
                        assert!(v.windows(2).all(|w| w[0] == w[1]));
                    }
                })
            })
            .collect();
        for i in 1..20 {
            if i % 2 == 0 {
                cell.publish(false, |_| vec![i; 8]);
            } else {
                cell.publish(true, |_| vec![i; 8]);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        rcu_barrier();
    }
}
