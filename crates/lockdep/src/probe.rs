//! The one interleaving hook: a named site in the code under test asks
//! [`hit`] whether a probe wants to run there, and a test installs one
//! with [`with`] to force the interleaving it is about — a competing
//! call between a check and its act, a fault at a chosen operation.
//!
//! Probes are per thread and keyed by site: a probe runs only on the
//! thread that installed it, only at its own site, and only while the
//! closure it was installed around runs. Test-only sites sit behind
//! `#[cfg(test)]` where they are called; a site compiled into release
//! builds (the RCU spill site) costs one thread-local read while no probe
//! is installed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

type Probe = Rc<dyn Fn() -> bool>;

thread_local! {
    /// This thread's installed probes, innermost last.
    static PROBES: RefCell<Vec<(&'static str, Probe)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `probe` installed for `site` on this thread: every
/// [`hit`] of `site` the thread makes inside `f` runs it and returns its
/// answer. It shadows an outer probe for the same site, which comes back
/// when `f` returns or unwinds.
pub fn with<R>(site: &'static str, probe: impl Fn() -> bool + 'static, f: impl FnOnce() -> R) -> R {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            PROBES.with(|p| p.borrow_mut().pop());
        }
    }
    PROBES.with(|p| p.borrow_mut().push((site, Rc::new(probe))));
    let _uninstall = Uninstall;
    f()
}

/// Runs the probe this thread installed for `site` and returns its
/// answer; false when there is none.
#[inline]
pub fn hit(site: &'static str) -> bool {
    // Cloned out of the slot before it runs, so the probe may itself
    // reach a site or install one. `try_with`: a thread-local's
    // destructor may reach a site (a retire through `call_rcu`) after
    // this slot is gone.
    let probe = PROBES.try_with(|p| {
        let p = p.borrow();
        p.iter()
            .rev()
            .find(|(s, _)| *s == site)
            .map(|(_, f)| Rc::clone(f))
    });
    probe.ok().flatten().is_some_and(|p| p())
}

/// A probe that runs `f` at the first hit only (answering true) and
/// answers false after that. `f` is taken before it runs, so a competing
/// call inside `f` that reaches the same site does not recurse.
pub fn once(f: impl FnOnce() + 'static) -> impl Fn() -> bool + 'static {
    let f = Cell::new(Some(f));
    move || f.take().map(|f| f()).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn a_probe_answers_only_at_its_site_and_shadows_an_outer_one() {
        assert!(!hit("test.a"), "no probe, no hit");
        with(
            "test.a",
            || false,
            || {
                assert!(with("test.a", || true, || hit("test.a") && !hit("test.b")));
                assert!(!hit("test.a"), "the outer probe is back");
            },
        );
    }

    #[test]
    fn a_probe_is_scoped_to_its_thread_and_restored_on_unwind() {
        // Thread scoping keeps a sibling's always-true RCU spill probe
        // from spilling this thread's retires into a grace wait on a
        // reader the sibling is holding up.
        let (installed, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                with(
                    "test.scoped",
                    || true,
                    || {
                        installed.wait();
                        release.wait();
                    },
                )
            });
            installed.wait();
            assert!(!hit("test.scoped"), "a sibling's probe never runs here");
            release.wait();
        });
        let unwound =
            std::panic::catch_unwind(|| with("test.scoped", || true, || panic!("scoped")));
        assert!(unwound.is_err());
        assert!(!hit("test.scoped"), "probe restored");
    }

    #[test]
    fn a_probe_may_reenter_and_a_once_probe_does_not_recurse() {
        let depth = Rc::new(Cell::new(0));
        let d = Rc::clone(&depth);
        let reenter = move || {
            d.set(d.get() + 1);
            d.get() == 3 || hit("test.reenter")
        };
        assert!(with("test.reenter", reenter, || hit("test.reenter")));
        assert_eq!(depth.get(), 3, "the probe reached its own site twice");
        let runs = Rc::new(Cell::new(0));
        let counted = Rc::clone(&runs);
        let probe = once(move || {
            counted.set(counted.get() + 1);
            assert!(
                !hit("test.once"),
                "a competing call inside does not recurse"
            );
        });
        with("test.once", probe, || {
            assert!(hit("test.once") && !hit("test.once"))
        });
        assert_eq!(runs.get(), 1);
    }
}
