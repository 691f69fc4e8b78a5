//! `pk-lockdep`: a runtime lock-order and concurrency-correctness
//! validator, modeled on the Linux kernel's lockdep.
//!
//! The paper's method is to find the lock that serializes the kernel
//! and split it; every split multiplies the ways locks can compose and
//! none of the five lock types in `pk-sync` validated how. This crate
//! closes that gap with four checks:
//!
//! 1. **Lock classes** ([`register_class`], or a [`LazyClass`] static
//!    where the constructor runs per object) — validation is per class
//!    of lock (all dentry `d_lock`s are one class), so an ordering
//!    observed once stands for the whole population.
//! 2. **Lock-order graph** — every acquisition records the class→class
//!    edges implied by the thread's held-lock stack; incremental cycle
//!    detection reports a *would-deadlock* chain (with both acquisition
//!    sites) the first time an ABBA order is observed, before any
//!    actual deadlock.
//! 3. **Epoch rules** — acquiring a blocking (yielding) lock inside an
//!    epoch read-side section, or calling `synchronize()` from one
//!    (a reader that can never quiesce), is reported.
//! 4. **Per-core discipline** ([`check_percore_mutation`]) — per-core
//!    slots (sloppy-counter banks, vfsmount/skb caches, accept queues)
//!    must be mutated by their owning core; deliberate cross-core paths
//!    declare themselves with [`MigrationScope`].
//!
//! The *validation* hooks are gated behind the `lockdep` cargo feature:
//! with the feature off (the default), every hook in this crate is an
//! empty `#[inline]` function. The class *registry* ([`register_class`],
//! [`classify`], [`class_name`], [`classes`]) is always compiled — it is
//! the shared naming authority for lock spans in `pk-trace` — so a
//! [`ClassCell`] is one `AtomicU32` per lock in every build.
//!
//! Findings surface two ways: [`violations`] returns the deduplicated
//! reports (`pk-bench report lockdep` exits non-zero on any), and
//! [`enabled`], [`classes`], [`edges`], [`max_held_depth`],
//! [`acquisition_count`] and [`violation_count`] are the counters that
//! report prints.
//!
//! [`probe`], always compiled, is the one interleaving hook: the site
//! where a test (or the fault plane) runs code between a check and its
//! act, to reproduce a race deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
#[cfg(feature = "lockdep")]
mod graph;
#[cfg(feature = "lockdep")]
mod held;
mod percore;
pub mod probe;
mod report;

pub use class::{
    class_name, classes, classify, register_class, ClassCell, ClassId, ClassInfo, LazyClass,
    LockKind,
};
pub use percore::{acting_core, check_percore_mutation, ActingCore, MigrationScope};
pub use report::{violation_count, violations, Violation, ViolationKind};

/// A summarized observed lock-order edge: "`from` was held while
/// acquiring `to`", with the source sites that first established it.
#[derive(Debug, Clone)]
pub struct EdgeSummary {
    /// Class held first.
    pub from: String,
    /// Class acquired while holding `from`.
    pub to: String,
    /// Source site where `from` was held.
    pub from_site: String,
    /// Source site of the `to` acquisition that created the edge.
    pub to_site: String,
    /// How many acquisitions traversed this edge.
    pub count: u64,
}

/// Reports whether the validator is compiled in.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "lockdep")
}

/// Validates and records an acquisition of the lock owning `cell`.
///
/// Called by every `pk-sync` guard constructor *before* the caller
/// starts waiting, so ordering violations are detected even on
/// executions that happen not to deadlock. `trylock` acquisitions
/// cannot wait and therefore create no inbound ordering edges, but
/// they join the held stack so later acquisitions order against them.
#[track_caller]
#[inline]
pub fn acquire(cell: &ClassCell, kind: LockKind, trylock: bool) {
    #[cfg(feature = "lockdep")]
    held::acquire(cell, kind, trylock, std::panic::Location::caller());
    #[cfg(not(feature = "lockdep"))]
    let _ = (cell, kind, trylock);
}

/// Records the release of the lock owning `cell` (called on guard drop).
#[inline]
pub fn release(cell: &ClassCell) {
    #[cfg(feature = "lockdep")]
    held::release(cell);
    #[cfg(not(feature = "lockdep"))]
    let _ = cell;
}

/// Marks entry into an epoch (RCU) read-side section on this thread.
#[inline]
pub fn epoch_enter() {
    #[cfg(feature = "lockdep")]
    held::epoch_enter();
}

/// Marks exit from an epoch read-side section.
#[inline]
pub fn epoch_exit() {
    #[cfg(feature = "lockdep")]
    held::epoch_exit();
}

/// Validates a grace-period wait (`synchronize()`): calling it inside a
/// read-side section is a self-deadlock and is reported.
#[track_caller]
#[inline]
pub fn check_synchronize() {
    #[cfg(feature = "lockdep")]
    held::check_synchronize(std::panic::Location::caller());
}

/// Validates an `rcu_barrier()` (deferred-queue flush): like
/// `synchronize()`, it waits out a grace period, so calling it inside a
/// read-side section is a self-deadlock and is reported. `call_rcu()`
/// itself needs no check — deferring reclamation from inside a read-side
/// section is the legal, encouraged pattern.
#[track_caller]
#[inline]
pub fn check_rcu_barrier() {
    #[cfg(feature = "lockdep")]
    held::check_rcu_barrier(std::panic::Location::caller());
}

/// Returns every observed class→class edge (empty when the feature is
/// off). The graph is kept acyclic — offending edges are reported, not
/// inserted — so these edges define the canonical lock hierarchy.
pub fn edges() -> Vec<EdgeSummary> {
    #[cfg(feature = "lockdep")]
    {
        graph::edge_summaries()
    }
    #[cfg(not(feature = "lockdep"))]
    Vec::new()
}

/// Deepest held-lock stack any thread has reached.
pub fn max_held_depth() -> usize {
    #[cfg(feature = "lockdep")]
    {
        held::max_depth()
    }
    #[cfg(not(feature = "lockdep"))]
    0
}

/// Total validated acquisitions across all threads.
pub fn acquisition_count() -> u64 {
    #[cfg(feature = "lockdep")]
    {
        held::acquisitions()
    }
    #[cfg(not(feature = "lockdep"))]
    0
}

#[cfg(all(test, feature = "lockdep"))]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = register_class("test.lib.a", "pk-lockdep", LockKind::Spin);
        let b = register_class("test.lib.a", "pk-lockdep", LockKind::Spin);
        assert_eq!(a, b);
        assert_ne!(a, ClassId::UNSET);
        assert!(classes().iter().any(|c| c.name == "test.lib.a"));
    }

    #[test]
    fn lazy_class_registers_on_first_use_and_agrees_with_the_registry() {
        static LAZY: LazyClass = LazyClass::new("test.lib.lazy", "pk-lockdep", LockKind::Blocking);
        assert!(!classes().iter().any(|c| c.name == "test.lib.lazy"));
        let id = LAZY.id();
        assert_eq!(id, LAZY.id());
        assert_eq!(
            id,
            register_class("test.lib.lazy", "pk-lockdep", LockKind::Blocking)
        );
        assert_eq!(classes()[id.raw() as usize - 1].kind, LockKind::Blocking);
    }

    #[test]
    fn consistent_order_produces_edges_not_violations() {
        let a = ClassCell::new();
        a.set_class(register_class("test.order.a", "pk-lockdep", LockKind::Spin));
        let b = ClassCell::new();
        b.set_class(register_class("test.order.b", "pk-lockdep", LockKind::Spin));
        for _ in 0..3 {
            acquire(&a, LockKind::Spin, false);
            acquire(&b, LockKind::Spin, false);
            release(&b);
            release(&a);
        }
        assert!(edges()
            .iter()
            .any(|e| e.from == "test.order.a" && e.to == "test.order.b" && e.count == 3));
        assert!(!violations()
            .iter()
            .any(|v| v.message.contains("test.order.")));
    }

    #[test]
    fn abba_is_reported_with_both_sites() {
        let a = ClassCell::new();
        a.set_class(register_class("test.abba.a", "pk-lockdep", LockKind::Spin));
        let b = ClassCell::new();
        b.set_class(register_class("test.abba.b", "pk-lockdep", LockKind::Spin));
        // Establish a -> b …
        acquire(&a, LockKind::Spin, false);
        acquire(&b, LockKind::Spin, false);
        release(&b);
        release(&a);
        // … then attempt b -> a on the same thread: no deadlock occurs,
        // but the validator must still flag the order inversion.
        acquire(&b, LockKind::Spin, false);
        acquire(&a, LockKind::Spin, false);
        release(&a);
        release(&b);
        let v = violations();
        let hit = v
            .iter()
            .find(|v| {
                v.kind == ViolationKind::LockOrder
                    && v.message.contains("test.abba.a")
                    && v.message.contains("test.abba.b")
            })
            .expect("ABBA must be detected");
        assert!(hit.message.contains(file!()), "sites: {}", hit.message);
        assert!(hit.message.contains("would-deadlock"), "{}", hit.message);
    }

    #[test]
    fn transitive_cycles_are_detected() {
        let mk = |n: &str| {
            let c = ClassCell::new();
            c.set_class(register_class(n, "pk-lockdep", LockKind::Spin));
            c
        };
        let (a, b, c) = (mk("test.tri.a"), mk("test.tri.b"), mk("test.tri.c"));
        let pair = |x: &ClassCell, y: &ClassCell| {
            acquire(x, LockKind::Spin, false);
            acquire(y, LockKind::Spin, false);
            release(y);
            release(x);
        };
        pair(&a, &b);
        pair(&b, &c);
        pair(&c, &a); // closes a -> b -> c -> a
        assert!(violations().iter().any(|v| {
            v.kind == ViolationKind::LockOrder
                && v.message.contains("test.tri.c")
                && v.message.contains("test.tri.a")
                && v.message.contains("test.tri.b")
        }));
    }

    #[test]
    fn trylock_creates_no_inbound_edge() {
        let a = ClassCell::new();
        a.set_class(register_class("test.try.a", "pk-lockdep", LockKind::Spin));
        let b = ClassCell::new();
        b.set_class(register_class("test.try.b", "pk-lockdep", LockKind::Spin));
        acquire(&a, LockKind::Spin, false);
        acquire(&b, LockKind::Spin, true); // try_lock: cannot wait
        release(&b);
        release(&a);
        assert!(!edges()
            .iter()
            .any(|e| e.from == "test.try.a" && e.to == "test.try.b"));
        // Reverse order with a real acquisition is therefore legal.
        acquire(&b, LockKind::Spin, false);
        acquire(&a, LockKind::Spin, false);
        release(&a);
        release(&b);
        assert!(!violations().iter().any(|v| v.message.contains("test.try.")));
    }

    #[test]
    fn blocking_inside_epoch_is_reported() {
        let m = ClassCell::new();
        m.set_class(register_class(
            "test.epoch.mutex",
            "pk-lockdep",
            LockKind::Blocking,
        ));
        epoch_enter();
        acquire(&m, LockKind::Blocking, false);
        release(&m);
        epoch_exit();
        assert!(violations().iter().any(|v| {
            v.kind == ViolationKind::BlockingInEpoch && v.message.contains("test.epoch.mutex")
        }));
    }

    #[test]
    fn spin_inside_epoch_is_allowed() {
        let s = ClassCell::new();
        s.set_class(register_class(
            "test.epoch.spin",
            "pk-lockdep",
            LockKind::Spin,
        ));
        epoch_enter();
        acquire(&s, LockKind::Spin, false);
        release(&s);
        epoch_exit();
        assert!(!violations()
            .iter()
            .any(|v| v.message.contains("test.epoch.spin")));
    }

    #[test]
    fn synchronize_inside_epoch_is_reported() {
        epoch_enter();
        check_synchronize();
        epoch_exit();
        assert!(violations()
            .iter()
            .any(|v| v.kind == ViolationKind::SynchronizeInEpoch));
    }

    #[test]
    fn cross_core_mutation_is_reported_and_scoped() {
        {
            let _core = ActingCore::enter(0);
            assert_eq!(acting_core(), Some(0));
            check_percore_mutation("test.slot.ok", 0); // owning core: fine
            {
                let _m = MigrationScope::enter();
                check_percore_mutation("test.slot.scoped", 5); // declared: fine
            }
            check_percore_mutation("test.slot.bad", 3); // cross-core: flagged
        }
        assert_eq!(acting_core(), None);
        let v = violations();
        assert!(v.iter().any(|v| {
            v.kind == ViolationKind::CrossCoreMutation
                && v.message.contains("test.slot.bad")
                && v.message.contains("owned by core 3")
                && v.message.contains("core 0")
        }));
        assert!(!v.iter().any(|v| v.message.contains("test.slot.ok")));
        assert!(!v.iter().any(|v| v.message.contains("test.slot.scoped")));
    }

    #[test]
    fn unclassified_locks_get_distinct_anonymous_classes() {
        let a = ClassCell::new();
        let b = ClassCell::new();
        // a -> b then b -> a: distinct instances must NOT alias into a
        // false ABBA (each gets its own anonymous class, and real
        // ordering is tracked per class pair).
        acquire(&a, LockKind::Spin, false);
        acquire(&b, LockKind::Spin, false);
        release(&b);
        release(&a);
        let (ca, cb) = (a.class().unwrap(), b.class().unwrap());
        assert_ne!(ca, cb);
        // The same two instances in reverse order IS a real inversion.
        acquire(&b, LockKind::Spin, false);
        acquire(&a, LockKind::Spin, false);
        release(&a);
        release(&b);
        let names = classes();
        let name_of = |id: ClassId| names[(id.0 - 1) as usize].name.clone();
        assert!(violations()
            .iter()
            .any(|v| v.message.contains(&name_of(ca)) && v.message.contains(&name_of(cb))));
    }
}
