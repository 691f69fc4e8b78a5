//! Event tallies whose writer owns the line it writes.
//!
//! A statistics struct (`VfsStats`, `NetStats`, `MmStats`) is a *sheet*:
//! one cache-aligned *row* of cells per registered thread, made by that
//! thread's first event, and one [`Tally`] per counter naming a *column*
//! of the sheet ([`Tally::sheet`]). A bump is a relaxed load and
//! store on the caller's own row — no `lock`-prefixed instruction and no
//! line another core writes — which is the kernel's
//! `this_cpu_inc(vm_event_states.event[..])` and the rule the paper's
//! sloppy counters follow (§4.3): bookkeeping about a core-local
//! operation must itself be core-local. Reading a counter sums its
//! column.
//!
//! # Exactness
//!
//! Rows are indexed by the thread's [`registry`] slot
//! ([`registry::current_or_register`]), and the registry hands a slot to
//! one live thread at a time, so no cell ever has two concurrent
//! writers and no bump is lost — whatever `CoreId`s the threads *act*
//! as, shared or not. A slot's next owner claims it with an acquire
//! that pairs with the previous owner's releasing drop, so it continues
//! from the value its predecessor left. [`Tally::load`] is exact once
//! the writers it cares about have been joined (or have otherwise
//! published their work); while they run it is a lower bound, as one
//! relaxed shared counter's load is.

use crate::padded::CacheAligned;
use crate::registry::{self, MAX_CORES};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Adds `n` to a counter that has **one writer at a time** — the holder
/// of the lock it sits under, the core that owns its slot, the thread
/// that owns its row — with a relaxed load and store instead of a
/// `lock`-prefixed read-modify-write. Exact as long as successive
/// writers are ordered by whatever hands the ownership over (the lock's
/// release/acquire, a join, the registry's slot hand-over); concurrent
/// writers would lose counts, never memory safety.
#[inline]
pub fn owner_add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Counters one sheet can hold: two cache-aligned lines per thread.
pub const MAX_TALLIES: usize = 32;

/// One thread's cells, a column each.
type Row = CacheAligned<[AtomicU64; MAX_TALLIES]>;

/// The per-thread rows behind one statistics struct: all of the struct's
/// counters for one thread sit together, on lines only that thread
/// writes.
struct Sheet {
    /// One row per registry slot, allocated by the slot's first event.
    rows: [OnceLock<Box<Row>>; MAX_CORES],
}

impl Sheet {
    /// The calling thread's row.
    #[inline]
    fn own_row(&self) -> &Row {
        let slot = registry::current_or_register().index();
        self.rows[slot].get_or_init(|| {
            Box::new(CacheAligned::new(std::array::from_fn(|_| {
                AtomicU64::new(0)
            })))
        })
    }

    /// Every row a thread has ever touched. Slots at or above the
    /// registry's high-water mark never had an owner.
    fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows[..registry::high_water()]
            .iter()
            .filter_map(|r| r.get().map(|b| &**b))
    }
}

/// One counter of a statistics struct: a column of its sheet.
///
/// Keeps the reading surface of the `AtomicU64` it replaces
/// (`load(Ordering)`), so report code and tests read it unchanged.
pub struct Tally {
    sheet: Arc<Sheet>,
    column: usize,
}

impl Tally {
    /// Creates the sheet for a struct of `N` counters and returns its
    /// tallies, column 0 first.
    pub fn sheet<const N: usize>() -> [Tally; N] {
        const { assert!(N <= MAX_TALLIES, "a sheet holds MAX_TALLIES counters") };
        let sheet = Arc::new(Sheet {
            rows: [const { OnceLock::new() }; MAX_CORES],
        });
        std::array::from_fn(|column| Tally {
            sheet: Arc::clone(&sheet),
            column,
        })
    }

    /// Counts one event on the calling thread's row.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Counts `n` events on the calling thread's row: a relaxed load and
    /// store, exact because the row has no other writer (module docs).
    #[inline]
    pub fn add(&self, n: u64) {
        owner_add(&self.sheet.own_row()[self.column], n);
    }

    /// The events counted so far, over every thread's row.
    pub fn load(&self, order: Ordering) -> u64 {
        self.sheet.rows().map(|r| r[self.column].load(order)).sum()
    }

    /// Zeroes the counter on every row. Like the relaxed `store(0)` it
    /// replaces, it is meant for a quiescent point: an event racing the
    /// reset may survive it.
    pub fn reset(&self) {
        for row in self.sheet.rows() {
            row[self.column].store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tally({})", self.load(Ordering::Relaxed))
    }
}

/// Declares a statistics struct whose every field is a [`Tally`] of one
/// shared sheet, with `new()`, `reset()` and `Default`: the field list
/// is written once, so the sheet always has exactly one column per
/// field.
///
/// ```
/// pk_percpu::tally_struct! {
///     /// Counters of a toy cache.
///     pub struct CacheStats {
///         /// Lookups served from the cache.
///         pub hits,
///         /// Lookups that went to the backing store.
///         pub misses,
///     }
/// }
/// let s = CacheStats::new();
/// s.hits.bump();
/// s.misses.add(2);
/// assert_eq!(s.hits.load(std::sync::atomic::Ordering::Relaxed), 1);
/// s.reset();
/// assert_eq!(s.misses.load(std::sync::atomic::Ordering::Relaxed), 0);
/// ```
#[macro_export]
macro_rules! tally_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $crate::Tally,)*
        }

        impl $name {
            /// Creates zeroed statistics.
            pub fn new() -> Self {
                let [$($field),*] = $crate::Tally::sheet();
                Self { $($field),* }
            }

            /// Resets every counter.
            pub fn reset(&self) {
                $(self.$field.reset();)*
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sheet_hands_out_one_tally_per_column() {
        let [a, b, c] = Tally::sheet::<3>();
        a.bump();
        b.add(5);
        b.bump();
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 6);
        assert_eq!(c.load(Ordering::Relaxed), 0);
        b.reset();
        assert_eq!(a.load(Ordering::Relaxed), 1, "reset is per counter");
        assert_eq!(b.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_full_sheet_keeps_its_columns_apart() {
        let t = Tally::sheet::<MAX_TALLIES>();
        for (i, c) in t.iter().enumerate() {
            c.add(i as u64 + 1);
        }
        for (i, c) in t.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), i as u64 + 1);
        }
    }

    #[test]
    fn rows_are_made_by_first_touch_only() {
        let [a] = Tally::sheet::<1>();
        assert_eq!(a.sheet.rows().count(), 0, "no row before the first event");
        a.bump();
        assert_eq!(a.sheet.rows().count(), 1);
        std::thread::scope(|s| {
            s.spawn(|| a.load(Ordering::Relaxed)).join().unwrap();
        });
        assert_eq!(a.sheet.rows().count(), 1, "reading makes no row");
    }

    #[test]
    fn concurrent_threads_lose_no_event_and_reset_reaches_every_row() {
        const THREADS: u64 = 4;
        const EVENTS: u64 = 50_000;
        let [hits, bytes] = Tally::sheet::<2>();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..EVENTS {
                        hits.bump();
                        bytes.add(3);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), THREADS * EVENTS);
        assert_eq!(bytes.load(Ordering::Relaxed), 3 * THREADS * EVENTS);
        hits.reset();
        bytes.reset();
        // Read from a thread that never wrote: it must see the zeroes too.
        let seen = std::thread::scope(|s| {
            s.spawn(|| (hits.load(Ordering::Relaxed), bytes.load(Ordering::Relaxed)))
                .join()
                .unwrap()
        });
        assert_eq!(seen, (0, 0));
    }

    #[test]
    fn a_reused_registry_slot_continues_its_predecessors_count() {
        // Far more short-lived threads than they can hold slots at once:
        // successive owners of one slot add to the same cell.
        let [t] = Tally::sheet::<1>();
        for _ in 0..64 {
            std::thread::scope(|s| {
                s.spawn(|| t.bump());
            });
        }
        assert_eq!(t.load(Ordering::Relaxed), 64);
    }
}
