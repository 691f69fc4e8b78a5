//! Negative tests: each constructs a deliberate concurrency-discipline
//! violation and asserts pk-lockdep catches it with the right
//! diagnostic — the classes involved, the acquisition sites, and the
//! violation kind.
//!
//! The violation store is process-global and shared by every test in
//! this binary, so each test matches on its own class names and sites
//! instead of asserting counts.
//!
//! A test that expects a report returns early when the validator is
//! compiled out (`--features lockdep` compiles it in).

use pk_lockdep::{Violation, ViolationKind};
use pk_sync::{rcu, Lock, RawAdaptive, RawLock, RawMcs, RawSpin, RawTicket};

/// Finds the violation of `kind` whose message contains every needle,
/// or panics with the full store for debugging.
fn find_violation(kind: ViolationKind, needles: &[&str]) -> Violation {
    pk_lockdep::violations()
        .into_iter()
        .find(|v| v.kind == kind && needles.iter().all(|n| v.message.contains(n)))
        .unwrap_or_else(|| {
            panic!(
                "no {kind:?} violation mentioning {needles:?}; store: {:#?}",
                pk_lockdep::violations()
            )
        })
}

/// A fresh lock of raw kind `R` in a fresh class named after the test,
/// the kind and `side` (the violation store is process-wide).
fn classed<R: RawLock>(test: &str, side: &str) -> (Lock<R, u32>, String) {
    let name = format!("negtest.{test}.{}.{side}", R::KIND.label());
    let lock = Lock::new(0);
    lock.set_class(pk_lockdep::register_class(&name, "pk-sync", R::KIND));
    (lock, name)
}

/// The shell carries every kind through the same hooks: an ABBA is
/// caught whichever algorithm waits underneath, and the sites reported
/// are this file's — `#[track_caller]` survives the generic.
fn abba_is_reported<R: RawLock>() {
    let (a, a_name) = classed::<R>("abba", "a");
    let (b, b_name) = classed::<R>("abba", "b");
    {
        // Establish the order a -> b.
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        // Acquire in the opposite order: a classic ABBA. Single-thread
        // observation is enough — no actual deadlock has to occur.
        let _gb = b.lock();
        let _ga = a.lock();
    }
    let v = find_violation(ViolationKind::LockOrder, &[&a_name, &b_name]);
    assert!(
        v.message.contains("would-deadlock"),
        "missing would-deadlock diagnosis: {}",
        v.message
    );
    // Both acquisition stacks must name their source sites (this file),
    // not the shell's.
    assert!(
        v.message.matches("lockdep_negative.rs").count() >= 2,
        "message must name both acquisition sites: {}",
        v.message
    );
    assert!(!v.message.contains("src/lock.rs"), "{}", v.message);
}

#[test]
fn abba_reports_both_classes_and_acquisition_sites() {
    if !pk_lockdep::enabled() {
        return;
    }
    abba_is_reported::<RawSpin>();
    abba_is_reported::<RawTicket>();
    abba_is_reported::<RawMcs>();
    abba_is_reported::<RawAdaptive>();
}

/// Acquires a fresh classed lock of kind `R` inside a read-side section
/// and returns its class name.
fn lock_inside_epoch<R: RawLock>() -> String {
    let (l, name) = classed::<R>("epoch", "l");
    let _g = rcu::read_lock();
    let _lg = l.lock();
    name
}

#[test]
fn blocking_lock_inside_epoch_section_is_reported() {
    if !pk_lockdep::enabled() {
        return;
    }
    // A blocking acquisition inside a read-side section: a preempted
    // holder would stall every writer's grace period.
    let name = lock_inside_epoch::<RawAdaptive>();
    let v = find_violation(ViolationKind::BlockingInEpoch, &[&name]);
    assert!(
        v.message.contains("epoch read-side"),
        "missing epoch diagnosis: {}",
        v.message
    );
    assert!(
        v.message.contains("lockdep_negative.rs"),
        "message must name the acquisition site: {}",
        v.message
    );
}

#[test]
fn spinning_locks_inside_epoch_section_are_allowed() {
    for name in [
        lock_inside_epoch::<RawSpin>(),
        lock_inside_epoch::<RawTicket>(),
        lock_inside_epoch::<RawMcs>(),
    ] {
        assert!(
            !pk_lockdep::violations()
                .iter()
                .any(|v| v.message.contains(&name)),
            "non-blocking lock inside an epoch must not be flagged: {name}"
        );
    }
}

#[test]
fn synchronize_inside_epoch_section_is_reported() {
    if !pk_lockdep::enabled() {
        return;
    }
    // The real rcu::synchronize() would spin forever here — the grace
    // period waits for this very reader — which is exactly the
    // self-deadlock the validator diagnoses *before* the wait begins.
    // Exercise the same hook synchronize() calls first, under a live
    // read guard, so the test terminates.
    let _g = rcu::read_lock();
    pk_lockdep::check_synchronize();
    let v = find_violation(ViolationKind::SynchronizeInEpoch, &["never quiesces"]);
    assert!(
        v.message.contains("lockdep_negative.rs"),
        "message must name the call site: {}",
        v.message
    );
}
