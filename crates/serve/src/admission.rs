//! Bounded admission with typed rejection and deadline-aware serving.
//!
//! [`AdmissionQueue`] is the functional-path twin of the DES engine's
//! admission bound: a counting semaphore whose slots are RAII guards,
//! so a request can never leak its slot — not on success, not on
//! error, and (the case the `exhausted-deadline` chaos row pins) not
//! when it times out mid-retry.
//!
//! [`serve_with_deadline`] composes the queue with `pk-fault`'s
//! deadline-aware retry: transient errors are retried under the
//! request's remaining SLO budget, and a request that runs out of
//! budget surfaces [`KernelError::Timeout`] — *not* the last transient
//! error, because "EAGAIN" tells the caller to retry and retrying a
//! dead request is exactly the retry amplification overload control
//! exists to stop.

use pk_fault::backoff;
use pk_kernel::KernelError;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A bounded admission queue: at most `cap` requests hold slots at
/// once; the rest are refused with [`KernelError::Overloaded`].
#[derive(Debug)]
pub struct AdmissionQueue {
    cap: u32,
    depth: AtomicU32,
    rejected: AtomicU64,
    admitted: AtomicU64,
}

impl AdmissionQueue {
    /// A queue admitting at most `cap` concurrent requests (`cap` of 0
    /// admits nothing — a drain/maintenance mode).
    pub fn new(cap: u32) -> Self {
        Self {
            cap,
            depth: AtomicU32::new(0),
            rejected: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    /// Tries to take a slot. The returned guard releases it on drop —
    /// every exit path (success, error, timeout, panic-unwind)
    /// uncharges exactly once.
    pub fn admit(&self) -> Result<SlotGuard<'_>, KernelError> {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(KernelError::Overloaded);
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(SlotGuard { queue: self });
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Requests currently holding slots.
    pub fn depth(&self) -> u32 {
        self.depth.load(Ordering::Acquire)
    }

    /// Requests refused at admission.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }
}

/// An admission slot, held for the lifetime of one request.
#[derive(Debug)]
pub struct SlotGuard<'a> {
    queue: &'a AdmissionQueue,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.queue.depth.fetch_sub(1, Ordering::Release);
    }
}

/// Serves one request through `queue` under a deadline: admit (or
/// refuse with [`KernelError::Overloaded`]), then run `op` with
/// transient-error retries whose accumulated backoff may not exceed
/// `budget_cycles`.
///
/// Between admission and return the thread carries the request's
/// causal context ([`pk_trace::RequestScope`], id
/// `request_id(seed, token, 0)`): kernel hooks under `op` can
/// attribute to it via `pk_trace::current_request()`, and a worker
/// that reuses its slot without closing the previous request trips the
/// ctx-leak detector (DESIGN.md §15 — the propagation rule is one
/// active context per thread, never leaked across requests).
///
/// Error contract, in priority order:
/// * queue full → `Err(Overloaded)`, nothing charged;
/// * budget exhausted mid-retry → `Err(Timeout)` (the last transient
///   error is deliberately *not* surfaced — it would invite a retry
///   the deadline already disallowed);
/// * attempts exhausted inside budget → the last error, verbatim;
/// * permanent error → surfaced immediately, no retry.
///
/// The admission slot is released on every path.
pub fn serve_with_deadline<T>(
    queue: &AdmissionQueue,
    seed: u64,
    token: u64,
    budget_cycles: u64,
    mut op: impl FnMut(u32) -> Result<T, KernelError>,
) -> Result<T, KernelError> {
    let _slot = queue.admit()?;
    // Declared after the slot: the context closes before the slot
    // frees, so no event can land outside the request's admission.
    let _scope = pk_trace::RequestScope::enter(pk_trace::request_id(seed, token, 0));
    let d = backoff::run_within(seed, token, budget_cycles, |attempt| match op(attempt) {
        Ok(v) => Ok(Ok(v)),
        Err(e) if e.is_transient() => Err(e),
        // Permanent errors stop the retry loop via the Ok channel.
        Err(e) => Ok(Err(e)),
    });
    if d.deadline_exhausted {
        return Err(KernelError::Timeout);
    }
    match d.outcome.result {
        Ok(inner) => inner,
        Err(e) => Err(e),
    }
    // `_slot` drops here: the slot is uncharged whether the request
    // succeeded, errored, or timed out.
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_net::NetError;

    #[test]
    fn admission_is_bounded_and_raii_released() {
        let q = AdmissionQueue::new(2);
        let a = q.admit().unwrap();
        let b = q.admit().unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.admit().unwrap_err(), KernelError::Overloaded);
        assert_eq!(q.rejected(), 1);
        drop(a);
        let c = q.admit().unwrap();
        drop(b);
        drop(c);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.admitted(), 3);
    }

    #[test]
    fn deadline_exhaustion_surfaces_timeout_and_uncharges() {
        let q = AdmissionQueue::new(4);
        // Every attempt fails transiently; the budget is smaller than
        // the first backoff, so the deadline fires with attempts left.
        let out = serve_with_deadline(&q, 42, 7, 10, |_| {
            Err::<(), _>(KernelError::Net(NetError::Backpressure))
        });
        assert_eq!(
            out.unwrap_err(),
            KernelError::Timeout,
            "a dead request must not surface its last transient error"
        );
        assert_eq!(q.depth(), 0, "the slot must be uncharged");
    }

    #[test]
    fn attempts_exhausted_inside_budget_keep_the_last_error() {
        let q = AdmissionQueue::new(4);
        let out = serve_with_deadline(&q, 42, 7, u64::MAX, |_| {
            Err::<(), _>(KernelError::Net(NetError::Backpressure))
        });
        assert_eq!(out.unwrap_err(), KernelError::Net(NetError::Backpressure));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn permanent_errors_bypass_retry() {
        let q = AdmissionQueue::new(4);
        let mut calls = 0;
        let out = serve_with_deadline(&q, 42, 7, u64::MAX, |_| {
            calls += 1;
            Err::<(), _>(KernelError::NoSuchProcFile)
        });
        assert_eq!(out.unwrap_err(), KernelError::NoSuchProcFile);
        assert_eq!(calls, 1, "permanent errors must not be retried");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn transient_recovery_succeeds_within_budget() {
        let q = AdmissionQueue::new(4);
        let out = serve_with_deadline(&q, 42, 7, u64::MAX, |a| {
            if a < 2 {
                Err(KernelError::Net(NetError::Backpressure))
            } else {
                Ok(a)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn request_context_is_pinned_during_service_and_cleared_after() {
        let q = AdmissionQueue::new(1);
        let seed = 42;
        let token = 11;
        let expect = pk_trace::request_id(seed, token, 0);
        let out = serve_with_deadline(&q, seed, token, u64::MAX, |_| {
            Ok(pk_trace::current_request())
        });
        assert_eq!(out.unwrap(), expect, "op must see its request context");
        assert_eq!(
            pk_trace::current_request(),
            0,
            "context must not outlive the request"
        );
    }

    #[test]
    // Under trace-off RequestScope is a ZST and forget is a no-op drop;
    // the test only asserts anything with tracing compiled in.
    #[allow(clippy::forget_non_drop)]
    fn leaked_context_across_slot_reuse_is_caught() {
        // A buggy worker admits a request, then loses track of its
        // scope (here: forgets it) and reuses the slot for the next
        // request. The next serve must catch the stale context — count
        // the leak, supersede the id — rather than silently
        // misattributing the new request's events to the old one.
        let q = AdmissionQueue::new(1);
        let before = pk_trace::ctx_leaks();
        let stale = pk_trace::RequestScope::enter(pk_trace::request_id(42, 1, 0));
        std::mem::forget(stale);
        let seen =
            serve_with_deadline(&q, 42, 2, u64::MAX, |_| Ok(pk_trace::current_request())).unwrap();
        assert_eq!(
            pk_trace::ctx_leaks(),
            before + 1,
            "the leak must be counted"
        );
        assert_eq!(
            seen,
            pk_trace::request_id(42, 2, 0),
            "the new request must win the thread-local"
        );
        assert_eq!(pk_trace::current_request(), 0);
    }

    #[test]
    fn full_queue_rejects_without_charging() {
        let q = AdmissionQueue::new(0);
        let out = serve_with_deadline(&q, 42, 7, 0, |_| Ok(1));
        assert_eq!(out.unwrap_err(), KernelError::Overloaded);
        assert_eq!(q.depth(), 0);
    }
}
