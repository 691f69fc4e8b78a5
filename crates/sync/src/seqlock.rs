//! Sequence locks and generation counters.
//!
//! The paper's lock-free dentry comparison (§4.4) is an instance of the
//! sequence-lock pattern: writers bump a generation counter around
//! modifications (parking it at a sentinel while the write is in flight),
//! and readers copy fields optimistically, re-checking the generation
//! afterwards. This module provides both the general [`SeqLock`] and the
//! paper's exact zero-sentinel [`GenCounter`] protocol.

use pk_lockdep::{ClassCell, ClassId, LockKind};
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Error returned when an optimistic read observed a concurrent write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqReadError;

impl fmt::Display for SeqReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("optimistic read raced with a writer")
    }
}

impl std::error::Error for SeqReadError {}

/// A sequence lock over a `Copy` value.
///
/// Readers never block writers and never write shared memory — exactly the
/// property that lets many cores perform lookups "for the same directory
/// entries without serializing" (§4.4). Writers must be externally
/// serialized (in the kernel, by the per-object spin lock).
///
/// # Examples
///
/// ```
/// let sl = pk_sync::SeqLock::new((1u32, 2u32));
/// assert_eq!(sl.read(), (1, 2));
/// *sl.write() = (3, 4);
/// assert_eq!(sl.read(), (3, 4));
/// ```
pub struct SeqLock<T> {
    seq: AtomicU64,
    class: ClassCell,
    value: UnsafeCell<T>,
}

// SAFETY: Readers copy the value only after validating no writer was
// active; writers require `&mut`-like external serialization via the write
// guard which spins out concurrent writers.
unsafe impl<T: Copy + Send> Send for SeqLock<T> {}
// SAFETY: See above — torn reads are detected and retried, never returned.
unsafe impl<T: Copy + Send> Sync for SeqLock<T> {}

impl<T: Copy> SeqLock<T> {
    /// Creates a sequence lock containing `value`.
    pub const fn new(value: T) -> Self {
        Self {
            seq: AtomicU64::new(0),
            class: ClassCell::new(),
            value: UnsafeCell::new(value),
        }
    }

    /// Attempts one optimistic read.
    pub fn try_read(&self) -> Result<T, SeqReadError> {
        let start = self.seq.load(Ordering::Acquire);
        if !start.is_multiple_of(2) {
            return Err(SeqReadError);
        }
        // SAFETY: A torn read is possible here but the copy is of plain
        // bytes of a `Copy` type and is discarded unless the sequence
        // check below proves no writer was active during the copy.
        let value = unsafe { std::ptr::read_volatile(self.value.get()) };
        std::sync::atomic::fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) == start {
            Ok(value)
        } else {
            Err(SeqReadError)
        }
    }

    /// Reads the value, retrying until a consistent snapshot is obtained.
    pub fn read(&self) -> T {
        loop {
            if let Ok(v) = self.try_read() {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Assigns this lock's write side to a `pk-lockdep` class (no-op
    /// unless the `lockdep` feature is enabled). Optimistic reads are
    /// not tracked: they take no lock and cannot deadlock.
    pub fn set_class(&self, class: ClassId) {
        self.class.set_class(class);
    }

    /// Begins a write, spinning out any concurrent writer.
    #[track_caller]
    pub fn write(&self) -> SeqLockWriteGuard<'_, T> {
        pk_lockdep::acquire(&self.class, LockKind::SeqWrite, false);
        loop {
            let cur = self.seq.load(Ordering::Relaxed);
            if cur.is_multiple_of(2)
                && self
                    .seq
                    .compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                pk_trace::lock_acquired(&self.class, LockKind::SeqWrite, 0);
                return SeqLockWriteGuard { lock: self };
            }
            std::hint::spin_loop();
        }
    }

    /// Returns the current sequence number (even when no write is active).
    pub fn sequence(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for SeqLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqLock")
            .field("value", &self.read())
            .finish()
    }
}

/// Write guard for [`SeqLock`]; publishes the new value on drop.
#[must_use = "dropping the guard immediately ends the write"]
pub struct SeqLockWriteGuard<'a, T: Copy> {
    lock: &'a SeqLock<T>,
}

impl<T: Copy> std::ops::Deref for SeqLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The odd sequence number excludes other writers, and
        // readers validate against it.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: Copy> std::ops::DerefMut for SeqLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: As above; the guard is the unique writer.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: Copy> Drop for SeqLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        pk_trace::lock_released(&self.lock.class, LockKind::SeqWrite);
        pk_lockdep::release(&self.lock.class);
        self.lock.seq.fetch_add(1, Ordering::Release);
    }
}

/// The paper's generation-counter protocol (§4.4), with 0 as the
/// "modification in progress" sentinel.
///
/// The PK kernel "increments [the generation counter] after every
/// modification to a directory entry" and "temporarily sets the generation
/// counter to 0" while the dentry spin lock is held. Readers:
///
/// 1. If the generation is 0, fall back to locking; otherwise remember it.
/// 2. Copy the protected fields.
/// 3. Re-check the generation; on mismatch, fall back to locking.
///
/// Generations are per object: a write publishes its predecessor + 1
/// (skipping 0), so the only line a modification writes is the object's
/// own, and a 64-bit generation never repeats for a snapshot to mistake.
///
/// # Examples
///
/// ```
/// use pk_sync::GenCounter;
/// let gen = GenCounter::new();
/// let snap = gen.begin_read().unwrap();
/// assert!(gen.validate(snap));
/// gen.begin_write();
/// assert!(gen.begin_read().is_none()); // writer active → fall back
/// gen.end_write();
/// assert!(!gen.validate(snap)); // stale snapshot is rejected
/// ```
#[derive(Debug)]
pub struct GenCounter {
    generation: AtomicU64,
    /// The generation `begin_write` displaced, for `end_write` to advance
    /// from. Only the writer touches it, under the object lock.
    parked: AtomicU64,
}

impl Default for GenCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl GenCounter {
    /// Creates a counter at generation 1 (0 is reserved for "writing").
    pub const fn new() -> Self {
        Self {
            generation: AtomicU64::new(1),
            parked: AtomicU64::new(1),
        }
    }

    /// Step 1 of the read protocol: returns the current generation, or
    /// `None` if a modification is in progress (caller must fall back to
    /// the locking protocol).
    pub fn begin_read(&self) -> Option<u64> {
        match self.generation.load(Ordering::Acquire) {
            0 => None,
            g => Some(g),
        }
    }

    /// Step 3 of the read protocol: returns whether the generation still
    /// matches the remembered snapshot (i.e. no writer intervened).
    pub fn validate(&self, snapshot: u64) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        self.generation.load(Ordering::Acquire) == snapshot
    }

    /// Marks a modification as in progress (caller holds the object lock).
    ///
    /// Returns the generation that was current, for use by [`end_write`].
    ///
    /// [`end_write`]: GenCounter::end_write
    pub fn begin_write(&self) -> u64 {
        let prev = self.generation.swap(0, Ordering::AcqRel);
        if prev != 0 {
            // Relaxed: the object lock orders one writer's store before
            // the next writer's load.
            self.parked.store(prev, Ordering::Relaxed);
        }
        prev
    }

    /// Completes a modification, advancing to a fresh non-zero
    /// generation: the successor of the one `begin_write` displaced,
    /// which no snapshot of this object can hold.
    pub fn end_write(&self) {
        let next = self.parked.load(Ordering::Relaxed).wrapping_add(1);
        self.generation.store(next.max(1), Ordering::Release);
    }

    /// Returns whether a write is currently in progress.
    pub fn write_in_progress(&self) -> bool {
        self.generation.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_returns_initial_value() {
        let sl = SeqLock::new(42u64);
        assert_eq!(sl.read(), 42);
        assert_eq!(sl.try_read(), Ok(42));
    }

    #[test]
    fn write_bumps_sequence_twice() {
        let sl = SeqLock::new(0u32);
        let s0 = sl.sequence();
        *sl.write() = 9;
        assert_eq!(sl.sequence(), s0 + 2);
        assert_eq!(sl.read(), 9);
    }

    #[test]
    fn readers_never_observe_torn_pairs() {
        // Writer keeps the two halves equal; readers must never see them
        // differ.
        let sl = Arc::new(SeqLock::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let sl = Arc::clone(&sl);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    *sl.write() = (i, i);
                }
            })
        };
        for _ in 0..100_000 {
            let (a, b) = sl.read();
            assert_eq!(a, b);
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
    }

    #[test]
    fn gen_counter_protocol() {
        let g = GenCounter::new();
        let snap = g.begin_read().expect("no writer yet");
        assert!(g.validate(snap));
        let saved = g.begin_write();
        assert_eq!(saved, snap);
        assert!(g.write_in_progress());
        assert!(g.begin_read().is_none());
        assert!(!g.validate(snap));
        g.end_write();
        assert!(!g.write_in_progress());
        let snap2 = g.begin_read().unwrap();
        assert_ne!(snap2, 0);
        assert_ne!(snap2, snap);
    }

    #[test]
    fn gen_counter_generations_are_per_object() {
        // A fresh counter after k writes reads 1 + k whatever any other
        // counter does: there is no process-wide source to interleave.
        let (a, b) = (GenCounter::new(), GenCounter::new());
        let b_snap = b.begin_read().unwrap();
        for k in 1..=5u64 {
            assert_eq!(a.begin_write(), k);
            assert!(b.validate(b_snap), "a write to `a` moved `b`");
            a.end_write();
            assert_eq!(a.begin_read(), Some(k + 1));
        }
        b.begin_write();
        b.end_write();
        assert_eq!(b.begin_read(), Some(2));
        assert_eq!(a.begin_read(), Some(6));
        // The sentinel is skipped when the generation wraps.
        a.generation.store(u64::MAX, Ordering::Relaxed);
        a.begin_write();
        a.end_write();
        assert_eq!(a.begin_read(), Some(1));
    }

    #[test]
    fn gen_counter_never_validates_a_stale_snapshot() {
        // Two writers (serialized by the object lock, as `d_lock` does)
        // and two readers on one counter guarding a pair with the
        // invariant `b == 31 * a`. A read the counter validates must be
        // of one write, and validated generations never go backwards.
        const WRITES_PER_WRITER: u64 = 20_000;
        let gen = GenCounter::new();
        let object = crate::SpinLock::new(0u64);
        let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
        let writers_left = AtomicU64::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..WRITES_PER_WRITER {
                        let mut v = object.lock();
                        *v += 1;
                        gen.begin_write();
                        a.store(*v, Ordering::Relaxed);
                        b.store(v.wrapping_mul(31), Ordering::Relaxed);
                        gen.end_write();
                    }
                    writers_left.fetch_sub(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    let (mut newest, mut validated) = (0u64, 0u64);
                    while writers_left.load(Ordering::Acquire) > 0 {
                        let Some(snap) = gen.begin_read() else {
                            std::hint::spin_loop();
                            continue;
                        };
                        let (x, y) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                        if gen.validate(snap) {
                            assert_eq!(y, x.wrapping_mul(31), "validated a torn read");
                            assert_eq!(snap, x + 1, "generation {snap} is not write {x}'s");
                            assert!(snap >= newest, "generations went backwards");
                            newest = snap;
                            validated += 1;
                        }
                    }
                    validated
                });
            }
        });
        assert_eq!(gen.begin_read(), Some(2 * WRITES_PER_WRITER + 1));
    }
}
