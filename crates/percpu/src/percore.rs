//! Fixed arrays of cache-aligned per-core slots.

use crate::padded::CacheAligned;
use crate::registry::CoreId;

/// A fixed array of cache-line-isolated slots, one per logical core.
///
/// This is the userspace analogue of the Linux kernel's per-CPU variables,
/// which the paper's fixes use for open-file lists, vfsmount caches, and
/// packet-buffer free lists (§4.5). Each slot lives on its own cache line
/// so cores never contend, and cross-core visitors (e.g. the remount check
/// that must scan every core's open-file list) use [`PerCore::iter`].
///
/// `PerCore` hands out only shared references; slots that need mutation
/// should contain interior-mutable types (atomics, locks), matching how
/// kernel per-CPU data is used from multiple contexts.
///
/// # Examples
///
/// ```
/// use pk_percpu::{CoreId, PerCore};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let hits: PerCore<AtomicUsize> = PerCore::new_with(4, |_| AtomicUsize::new(0));
/// hits.get(CoreId(2)).store(7, Ordering::Relaxed);
/// assert_eq!(hits.fold(0, |acc, c| acc + c.load(Ordering::Relaxed)), 7);
/// ```
#[derive(Debug)]
pub struct PerCore<T> {
    slots: Box<[CacheAligned<T>]>,
}

impl<T> PerCore<T> {
    /// Creates `cores` slots, initializing slot `i` with `init(CoreId(i))`.
    pub fn new_with(cores: usize, mut init: impl FnMut(CoreId) -> T) -> Self {
        assert!(cores > 0, "PerCore requires at least one core");
        let slots = (0..cores)
            .map(|i| CacheAligned::new(init(CoreId(i))))
            .collect();
        Self { slots }
    }

    /// Returns the number of per-core slots.
    pub fn cores(&self) -> usize {
        self.slots.len()
    }

    /// Returns the slot for `core`.
    ///
    /// Core ids larger than the slot count wrap around, so a `PerCore`
    /// sized for the simulated machine still works when the host registry
    /// hands out higher ids.
    pub fn get(&self, core: CoreId) -> &T {
        &self.slots[core.index() % self.slots.len()]
    }

    /// Returns the slot for the current thread's registered core.
    ///
    /// Registers the thread if it has no core yet (see
    /// [`crate::registry::current_or_register`]).
    pub fn get_local(&self) -> &T {
        self.get(crate::registry::current_or_register())
    }

    /// Iterates over all slots in core-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> {
        self.slots.iter().map(|s| &**s)
    }

    /// Iterates over `(CoreId, &T)` pairs in core-id order.
    pub fn iter_with_id(&self) -> impl ExactSizeIterator<Item = (CoreId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (CoreId(i), &**s))
    }

    /// Folds all slots, visiting them in core-id order.
    pub fn fold<A>(&self, init: A, f: impl FnMut(A, &T) -> A) -> A {
        self.iter().fold(init, f)
    }
}

impl<T: Default> PerCore<T> {
    /// Creates `cores` default-initialized slots.
    pub fn new(cores: usize) -> Self {
        Self::new_with(cores, |_| T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn slots_are_initialized_per_core() {
        let pc: PerCore<usize> = PerCore::new_with(6, |c| c.index() * 10);
        for i in 0..6 {
            assert_eq!(*pc.get(CoreId(i)), i * 10);
        }
        assert_eq!(pc.cores(), 6);
    }

    #[test]
    fn out_of_range_ids_wrap() {
        let pc: PerCore<usize> = PerCore::new_with(4, |c| c.index());
        assert_eq!(*pc.get(CoreId(9)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = PerCore::<u8>::new(0);
    }

    #[test]
    fn fold_sums_all_slots() {
        let pc: PerCore<AtomicUsize> = PerCore::new(8);
        for (i, slot) in pc.iter().enumerate() {
            slot.store(i, Ordering::Relaxed);
        }
        assert_eq!(pc.fold(0, |a, s| a + s.load(Ordering::Relaxed)), 28);
    }

    #[test]
    fn iter_with_id_matches_get() {
        let pc: PerCore<usize> = PerCore::new_with(5, |c| c.index() + 100);
        for (id, v) in pc.iter_with_id() {
            assert_eq!(pc.get(id), v);
        }
    }

    #[test]
    fn concurrent_updates_do_not_interfere() {
        let pc = Arc::new(PerCore::<AtomicUsize>::new(8));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pc = Arc::clone(&pc);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        pc.get(CoreId(i)).fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pc.fold(0, |a, s| a + s.load(Ordering::Relaxed)), 4000);
    }

    #[test]
    fn get_local_uses_registered_core() {
        std::thread::spawn(|| {
            let pc: PerCore<AtomicUsize> = PerCore::new(crate::registry::MAX_CORES);
            pc.get_local().store(5, Ordering::Relaxed);
            let me = crate::registry::current().unwrap();
            assert_eq!(pc.get(me).load(Ordering::Relaxed), 5);
        })
        .join()
        .unwrap();
    }
}
