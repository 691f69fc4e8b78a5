//! Negative tests for the per-core discipline checks: mutating another
//! core's sloppy-counter bank while acting as a declared core is a
//! violation; the [`pk_lockdep::MigrationScope`] escape hatch and the
//! by-design cross-core reconcile are not.
//!
//! The violation store is process-global, so each test matches on its
//! own cores instead of asserting counts.
//!
//! A test that expects a report returns early when the validator is
//! compiled out (`--features lockdep` compiles it in).

use pk_lockdep::{ActingCore, MigrationScope, ViolationKind};
use pk_percpu::CoreId;
use pk_sloppy::SloppyCounter;

#[test]
fn cross_core_bank_mutation_is_caught() {
    if !pk_lockdep::enabled() {
        return;
    }
    let c = SloppyCounter::new(4);
    {
        // Acting as core 2 but touching core 1's bank: the §4.3 design
        // depends on banks staying core-local, so this is a violation.
        let _ac = ActingCore::enter(2);
        c.acquire(CoreId(1), 1);
    }
    let v = pk_lockdep::violations()
        .into_iter()
        .find(|v| {
            v.kind == ViolationKind::CrossCoreMutation
                && v.message.contains("sloppy.counter.bank")
                && v.message.contains("owned by core 1")
                && v.message.contains("from core 2")
        })
        .unwrap_or_else(|| {
            panic!(
                "cross-core mutation not reported; store: {:#?}",
                pk_lockdep::violations()
            )
        });
    assert!(
        v.message.contains("crates/core/src/sloppy.rs"),
        "message must name the mutation site: {}",
        v.message
    );
}

#[test]
fn migration_scope_and_reconcile_are_clean() {
    let c = SloppyCounter::new(4);
    {
        // Explicitly declared migration: allowed.
        let _ac = ActingCore::enter(3);
        let _m = MigrationScope::enter();
        c.acquire(CoreId(0), 1);
        c.release(CoreId(0), 1);
    }
    {
        // Reconcile sweeps every bank by design (§4.3 de-allocation);
        // the counter wraps it in its own migration scope.
        let _ac = ActingCore::enter(3);
        let _ = c.reconcile();
    }
    assert!(
        !pk_lockdep::violations().iter().any(|v| {
            v.kind == ViolationKind::CrossCoreMutation && v.message.contains("from core 3")
        }),
        "escape hatch failed to suppress the report: {:#?}",
        pk_lockdep::violations()
    );
}

#[test]
fn undeclared_threads_are_not_checked() {
    // No ActingCore declared: regular single-threaded tests and
    // internally-threaded drivers touch whichever bank they like.
    let c = SloppyCounter::new(4);
    c.acquire(CoreId(1), 1);
    c.release(CoreId(2), 1);
    assert!(
        !pk_lockdep::violations().iter().any(|v| {
            v.kind == ViolationKind::CrossCoreMutation && v.message.contains("from core none")
        }),
        "undeclared thread was checked"
    );
}
