//! Per-core discipline: slot mutation must come from the owning core.
//!
//! `SloppyCounter` banking, the per-core vfsmount cache, skb free
//! lists, and the per-core accept queues all assume their slots are
//! mutated by the core that owns them — that assumption is what makes
//! them scalable, and nothing enforced it. Workload drivers declare
//! which logical core they are acting as with [`ActingCore::enter`];
//! instrumented mutation sites then call [`check_percore_mutation`].
//! Deliberate cross-core paths (reconciliation, accept stealing, remote
//! teardown) wrap themselves in [`MigrationScope::enter`] — the
//! explicit escape hatch that marks them as reviewed.

#[cfg(feature = "lockdep")]
use crate::report::imp::report;
#[cfg(feature = "lockdep")]
use crate::report::ViolationKind;
#[cfg(feature = "lockdep")]
use std::cell::RefCell;

#[cfg(feature = "lockdep")]
thread_local! {
    static ACTING: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static MIGRATE_DEPTH: RefCell<u32> = const { RefCell::new(0) };
}

/// RAII declaration: "this thread is acting as logical core N".
///
/// Scopes nest; the innermost declaration wins. With no declaration in
/// scope, per-core mutation checks are skipped (the thread's identity
/// is unknown, e.g. in unit tests that drive arbitrary cores).
#[derive(Debug)]
pub struct ActingCore {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl ActingCore {
    /// Declares the acting core until the returned guard drops.
    #[must_use = "the declaration ends when the guard drops"]
    pub fn enter(core: usize) -> ActingCore {
        #[cfg(feature = "lockdep")]
        ACTING.with(|a| a.borrow_mut().push(core));
        #[cfg(not(feature = "lockdep"))]
        let _ = core;
        ActingCore {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for ActingCore {
    fn drop(&mut self) {
        #[cfg(feature = "lockdep")]
        ACTING.with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// Returns the innermost declared acting core, if any.
pub fn acting_core() -> Option<usize> {
    #[cfg(feature = "lockdep")]
    {
        ACTING.with(|a| a.borrow().last().copied())
    }
    #[cfg(not(feature = "lockdep"))]
    None
}

/// RAII escape hatch: inside this scope, cross-core per-core-slot
/// mutation is permitted (reconciliation, stealing, remote teardown).
#[derive(Debug)]
pub struct MigrationScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl MigrationScope {
    /// Opens a migration scope until the returned guard drops.
    #[must_use = "the escape hatch closes when the guard drops"]
    pub fn enter() -> MigrationScope {
        #[cfg(feature = "lockdep")]
        MIGRATE_DEPTH.with(|d| *d.borrow_mut() += 1);
        MigrationScope {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for MigrationScope {
    fn drop(&mut self) {
        #[cfg(feature = "lockdep")]
        MIGRATE_DEPTH.with(|d| {
            let mut d = d.borrow_mut();
            *d = d.saturating_sub(1);
        });
    }
}

/// Asserts that mutating the per-core slot owned by `owner` at the
/// named `site` happens from the owning core (or inside a
/// [`MigrationScope`]). No-op when no acting core is declared or the
/// `lockdep` feature is off.
#[track_caller]
#[inline]
pub fn check_percore_mutation(site: &'static str, owner: usize) {
    #[cfg(feature = "lockdep")]
    {
        if MIGRATE_DEPTH.with(|d| *d.borrow()) > 0 {
            return;
        }
        if let Some(actor) = acting_core() {
            if actor != owner {
                let loc = std::panic::Location::caller();
                report(
                    ViolationKind::CrossCoreMutation,
                    format!("xcore:{site}:{owner}:{actor}"),
                    format!(
                        "per-core slot \"{site}\" owned by core {owner} mutated from \
                         core {actor} at {}:{} without a migration scope",
                        loc.file(),
                        loc.line(),
                    ),
                );
            }
        }
    }
    #[cfg(not(feature = "lockdep"))]
    let _ = (site, owner);
}
