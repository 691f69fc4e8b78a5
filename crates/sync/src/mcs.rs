//! MCS queue lock — the scalable spin lock.

use crate::lock::{spin_wait, Guard, Lock, RawLock};
use pk_lockdep::LockKind;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// An MCS queue lock protecting a `T`.
///
/// Mellor-Crummey & Scott's list-based queue lock, cited by the paper
/// (\[41\]) as the classic fix for non-scalable spin locks: per-acquire
/// interconnect traffic is constant rather than proportional to the number
/// of waiting cores — the "scalable lock" arm of the lock ablations.
pub type McsLock<T> = Lock<RawMcs, T>;

/// RAII guard for [`McsLock`]; hands the lock to the next waiter on drop.
pub type McsGuard<'a, T> = Guard<'a, RawMcs, T>;

/// Per-acquirer queue node: each waiter spins on the `locked` flag of its
/// *own* node, so a release touches exactly one waiter's cache line instead
/// of invalidating all of them.
pub struct Node {
    locked: AtomicBool,
    next: AtomicPtr<Node>,
}

impl Node {
    #[inline]
    fn alloc() -> *mut Node {
        Box::into_raw(Box::new(Node {
            locked: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// The MCS algorithm: the queue's tail pointer.
pub struct RawMcs {
    tail: AtomicPtr<Node>,
}

// SAFETY: The queue is a FIFO of nodes; the holder is the thread whose
// node is at its head — it swapped into an empty tail, or its
// predecessor cleared its `locked` flag (`Release`, read `Acquire`) —
// and only the holder hands the head on. A node's fields are atomics
// and the token is its unique handle, so any thread may release.
unsafe impl RawLock for RawMcs {
    const INIT: Self = Self {
        tail: AtomicPtr::new(ptr::null_mut()),
    };
    const KIND: LockKind = LockKind::Mcs;
    const NAME: &'static str = "McsLock";
    /// The holder's queue node.
    type Token = *mut Node;

    #[inline]
    fn lock(&self) -> (*mut Node, u64) {
        let node = Node::alloc();
        let prev = self.tail.swap(node, Ordering::AcqRel);
        let mut spins = 0u64;
        if !prev.is_null() {
            // SAFETY: `prev` was the queue tail; its owner cannot free it
            // until it has observed and woken its successor, which requires
            // the `next` pointer we are about to publish.
            unsafe { (*prev).next.store(node, Ordering::Release) };
            // SAFETY: `node` is owned by this acquisition until `unlock`.
            while unsafe { (*node).locked.load(Ordering::Acquire) } {
                spin_wait(&mut spins);
            }
        }
        (node, spins)
    }

    /// Acquires the lock only if the queue is empty.
    #[inline]
    fn try_lock(&self) -> Option<*mut Node> {
        let node = Node::alloc();
        if self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            Some(node)
        } else {
            // SAFETY: The node was never published; we still own it.
            drop(unsafe { Box::from_raw(node) });
            None
        }
    }

    #[inline]
    unsafe fn unlock(&self, node: *mut Node) {
        // SAFETY: `node` is owned by the holder until handoff completes.
        let mut next = unsafe { (*node).next.load(Ordering::Acquire) };
        if next.is_null() {
            // No visible successor: try to swing the tail back to empty.
            if self
                .tail
                .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: The queue no longer references the node.
                drop(unsafe { Box::from_raw(node) });
                return;
            }
            // A successor is mid-enqueue; wait for it to publish itself.
            loop {
                // SAFETY: As above — the node stays valid until we free it.
                next = unsafe { (*node).next.load(Ordering::Acquire) };
                if !next.is_null() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        // SAFETY: `next` points to the successor's live node; it cannot be
        // freed while its `locked` flag is still true.
        unsafe { (*next).locked.store(false, Ordering::Release) };
        // SAFETY: After handoff nothing references our node.
        drop(unsafe { Box::from_raw(node) });
    }
}
