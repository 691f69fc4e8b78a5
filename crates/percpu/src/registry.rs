//! A registry that binds threads to logical core slots.
//!
//! Kernel code can ask which CPU it is running on (`smp_processor_id()`);
//! userspace threads cannot, portably. This module assigns each
//! participating thread a stable logical [`CoreId`] for as long as it holds
//! a [`CoreToken`], which is how the rest of the workspace indexes per-core
//! state. Logical ids are dense and reused, so a `PerCore<T>` sized for
//! `n` cores works with any number of short-lived worker threads as long as
//! at most `n` are registered at once.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Maximum number of logical cores supported by the global registry.
///
/// Sized for the paper's 48-core evaluation machine with headroom.
pub const MAX_CORES: usize = 256;

/// A dense logical core identifier in `0..MAX_CORES`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Returns the zero-based index of this core.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Errors returned by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// All `MAX_CORES` slots are taken.
    Exhausted,
    /// The current thread already holds a registration.
    AlreadyRegistered,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Exhausted => write!(f, "all {MAX_CORES} core slots are registered"),
            Self::AlreadyRegistered => write!(f, "thread already holds a core registration"),
        }
    }
}

impl std::error::Error for RegistryError {}

static SLOTS: [AtomicBool; MAX_CORES] = {
    // The const is only an array-initialization helper; each array slot
    // is its own atomic.
    #[allow(clippy::declare_interior_mutable_const)]
    const FREE: AtomicBool = AtomicBool::new(false);
    [FREE; MAX_CORES]
};

/// One past the highest slot index ever handed out; never decreases.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
    /// Token held for threads registered implicitly via
    /// `current_or_register`; dropped (releasing the slot) when the
    /// thread exits.
    static IMPLICIT: RefCell<Option<CoreToken>> = const { RefCell::new(None) };
}

/// An RAII registration of the current thread as a logical core.
///
/// Dropping the token releases the slot for reuse by other threads.
#[derive(Debug)]
pub struct CoreToken {
    id: CoreId,
    // Tokens are tied to the registering thread: the thread-local current
    // id must be cleared on the same thread that set it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl CoreToken {
    /// Returns the logical core id assigned to this thread.
    pub fn core_id(&self) -> CoreId {
        self.id
    }
}

impl Drop for CoreToken {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(None));
        SLOTS[self.id.0].store(false, Ordering::Release);
    }
}

/// Registers the current thread, assigning it the lowest free [`CoreId`].
///
/// Returns an error if the thread is already registered or all slots are
/// in use. The registration lasts until the returned token is dropped.
///
/// # Examples
///
/// ```
/// let token = pk_percpu::registry::register().unwrap();
/// assert_eq!(Some(token.core_id()), pk_percpu::registry::current());
/// ```
pub fn register() -> Result<CoreToken, RegistryError> {
    if CURRENT.with(|c| c.get()).is_some() {
        return Err(RegistryError::AlreadyRegistered);
    }
    for (i, slot) in SLOTS.iter().enumerate() {
        if slot
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            CURRENT.with(|c| c.set(Some(i)));
            // Before the token exists: whatever its holder later stores
            // into a per-core slot is sequenced after this.
            HIGH_WATER.fetch_max(i + 1, Ordering::SeqCst);
            return Ok(CoreToken {
                id: CoreId(i),
                _not_send: std::marker::PhantomData,
            });
        }
    }
    Err(RegistryError::Exhausted)
}

/// One past the highest [`CoreId`] index any thread has ever been
/// registered with: monotonic, and raised before [`register`] returns
/// the token. A scan over per-core state indexed by registered core can
/// stop here instead of at [`MAX_CORES`] — slots at or above it have
/// never had an owner.
pub fn high_water() -> usize {
    HIGH_WATER.load(Ordering::SeqCst)
}

/// Returns the logical core id of the current thread, if registered.
pub fn current() -> Option<CoreId> {
    CURRENT.with(|c| c.get()).map(CoreId)
}

/// Returns the current core id, registering the thread first if needed.
///
/// The implicit registration lasts for the lifetime of the thread: the
/// token is parked in a thread-local and dropped (releasing the slot for
/// reuse) when the thread exits, so pools of short-lived worker threads
/// never exhaust the registry.
///
/// # Panics
///
/// Panics if the registry is exhausted (more than [`MAX_CORES`] threads
/// registered simultaneously).
pub fn current_or_register() -> CoreId {
    if let Some(id) = current() {
        return id;
    }
    let token = register().expect("core registry exhausted");
    let id = token.core_id();
    IMPLICIT.with(|t| *t.borrow_mut() = Some(token));
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_and_releases() {
        let token = register().unwrap();
        let id = token.core_id();
        assert_eq!(current(), Some(id));
        drop(token);
        assert_eq!(current(), None);
        // The slot pool is reusable (other parallel tests may race for the
        // exact slot, so only re-registration itself is asserted).
        let token2 = register().unwrap();
        assert!(token2.core_id().index() < MAX_CORES);
        let _ = id;
    }

    #[test]
    fn high_water_is_monotonic_and_covers_every_live_token() {
        // Raises `seen` to the current mark, which must cover `token`.
        fn covered(token: &CoreToken, seen: &mut usize) {
            let now = high_water();
            assert!(now >= *seen, "high water fell from {seen} to {now}");
            assert!(now > token.core_id().index() && now <= MAX_CORES);
            *seen = now;
        }
        let mut seen = high_water();
        let outer = register().unwrap();
        covered(&outer, &mut seen);
        // `outer` stays registered, so this thread lands on other slots;
        // dropping one and registering again never lowers the mark.
        seen = std::thread::spawn(move || {
            for _ in 0..3 {
                let token = register().unwrap();
                covered(&token, &mut seen);
                drop(token);
                assert!(high_water() >= seen);
            }
            seen
        })
        .join()
        .unwrap();
        covered(&outer, &mut seen);
        drop(outer);
        assert!(high_water() >= seen);
    }

    #[test]
    fn double_register_fails() {
        let _token = register().unwrap();
        assert_eq!(register().unwrap_err(), RegistryError::AlreadyRegistered);
    }

    #[test]
    fn distinct_threads_get_distinct_ids() {
        let _token = register().unwrap();
        let mine = current().unwrap();
        let other = std::thread::spawn(|| {
            let token = register().unwrap();
            token.core_id()
        })
        .join()
        .unwrap();
        assert_ne!(mine, other);
    }

    #[test]
    fn current_or_register_is_stable() {
        let a = std::thread::spawn(|| (current_or_register(), current_or_register()))
            .join()
            .unwrap();
        assert_eq!(a.0, a.1);
    }

    #[test]
    fn implicit_registrations_release_on_thread_exit() {
        // Far more short-lived threads than slots: each must release its
        // implicit registration when it dies.
        for _ in 0..(MAX_CORES * 2) {
            std::thread::spawn(|| {
                let _ = current_or_register();
            })
            .join()
            .unwrap();
        }
        // Still possible to register afterwards.
        std::thread::spawn(|| {
            let _ = current_or_register();
        })
        .join()
        .unwrap();
    }
}
