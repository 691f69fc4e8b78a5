//! Per-thread held-lock stacks and epoch (RCU read-section) tracking.

#![cfg(feature = "lockdep")]

use crate::class::imp::{name_of, resolve};
use crate::class::{ClassCell, LockKind};
use crate::report::imp::report;
use crate::report::ViolationKind;
use std::cell::{Cell, RefCell};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One entry on a thread's held-lock stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Held {
    pub(crate) class: u32,
    pub(crate) loc: &'static Location<'static>,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static EPOCH_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static MAX_DEPTH: AtomicUsize = AtomicUsize::new(0);
static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

fn site(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

/// Validates and records one acquisition.
///
/// For ordinary (potentially waiting) acquisitions this records the
/// class→class edges implied by the current held stack and runs cycle
/// detection *before* the caller starts waiting — a would-deadlock is
/// reported even on executions where no deadlock happens. `try_lock`
/// acquisitions cannot wait, so they create no inbound edges (and are
/// exempt from the epoch rule), but they do join the held stack so
/// later acquisitions order against them.
pub(crate) fn acquire(
    cell: &ClassCell,
    kind: LockKind,
    trylock: bool,
    loc: &'static Location<'static>,
) {
    let class = resolve(cell, kind);
    ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    if !trylock {
        if kind.is_blocking() && EPOCH_DEPTH.with(Cell::get) > 0 {
            report(
                ViolationKind::BlockingInEpoch,
                format!("epoch-block:{class}:{}", site(loc)),
                format!(
                    "blocking lock \"{}\" acquired at {} inside an epoch read-side \
                     section: a preempted holder stalls every writer's grace period",
                    name_of(class),
                    site(loc),
                ),
            );
        }
        let stack = HELD.with(|h| h.borrow().clone());
        if !stack.is_empty() {
            crate::graph::record_edges(&stack, class, loc);
        }
    }
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        h.push(Held { class, loc });
        MAX_DEPTH.fetch_max(h.len(), Ordering::Relaxed);
    });
}

/// Records the release of a lock: pops the topmost matching entry
/// (searching downward tolerates out-of-order guard drops).
pub(crate) fn release(cell: &ClassCell) {
    let id = cell.id.load(Ordering::Relaxed);
    if id == 0 {
        return;
    }
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(pos) = h.iter().rposition(|held| held.class == id) {
            h.remove(pos);
        }
    });
}

/// Enters an epoch read-side section on this thread.
pub(crate) fn epoch_enter() {
    EPOCH_DEPTH.with(|d| d.set(d.get() + 1));
}

/// Leaves an epoch read-side section.
pub(crate) fn epoch_exit() {
    EPOCH_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
}

/// Validates a `synchronize()` (grace-period wait) call: performed
/// inside a read-side section, the caller waits for its own epoch and
/// never quiesces.
pub(crate) fn check_synchronize(loc: &'static Location<'static>) {
    if EPOCH_DEPTH.with(Cell::get) > 0 {
        report(
            ViolationKind::SynchronizeInEpoch,
            format!("sync-in-epoch:{}", site(loc)),
            format!(
                "synchronize() called at {} from inside an epoch read-side section: \
                 the grace period waits for this reader, which never quiesces \
                 (self-deadlock)",
                site(loc),
            ),
        );
    }
}

/// Validates an `rcu_barrier()` call: it contains a grace-period wait,
/// so the synchronize-in-epoch rule applies unchanged.
pub(crate) fn check_rcu_barrier(loc: &'static Location<'static>) {
    if EPOCH_DEPTH.with(Cell::get) > 0 {
        report(
            ViolationKind::SynchronizeInEpoch,
            format!("barrier-in-epoch:{}", site(loc)),
            format!(
                "rcu_barrier() called at {} from inside an epoch read-side section: \
                 the flush waits for a grace period covering this reader, which \
                 never quiesces (self-deadlock)",
                site(loc),
            ),
        );
    }
}

/// Deepest held-lock stack any thread has reached.
pub(crate) fn max_depth() -> usize {
    MAX_DEPTH.load(Ordering::Relaxed)
}

/// Total validated acquisitions across all threads.
pub(crate) fn acquisitions() -> u64 {
    ACQUISITIONS.load(Ordering::Relaxed)
}
