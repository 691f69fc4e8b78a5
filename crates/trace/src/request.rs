//! Request-scoped causal context (DESIGN.md §15).
//!
//! A `RequestCtx` is a deterministic 64-bit id minted at arrival
//! ([`request_id`]) and carried through everything done on behalf of
//! that request: admission queueing, kernel syscalls, lock waits, RCU
//! fallbacks. In the functional drivers the carrier is [`RequestScope`],
//! an RAII guard that brackets the thread's work with `CtxBegin`/
//! `CtxEnd` events and pins the id in a thread-local so hooks could
//! attribute to it; the DES domain instead stamps ctx events directly
//! (`pk_sim::flow`).
//!
//! Propagation rule: **one active context per thread, never nested,
//! never leaked across requests.** A scope entered while another is
//! still active means a driver reused a worker slot without closing
//! the previous request — a bug the per-request fold would silently
//! misattribute, so it is counted ([`ctx_leaks`]) and surfaced as a
//! `trace.ctx_leak` instant in the stream.

use crate::span::LazySpanClass;

#[cfg(not(feature = "trace-off"))]
use crate::event::EventKind;
#[cfg(not(feature = "trace-off"))]
use crate::with_live_tracer;
#[cfg(not(feature = "trace-off"))]
use std::cell::Cell;
#[cfg(not(feature = "trace-off"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// The span class every request context opens under. Public so the DES
/// domain and the fold agree on the name without re-interning strings.
pub static REQUEST_CLASS: LazySpanClass = LazySpanClass::new("serve.request");

/// The instant class recorded when a scope catches a leaked context.
pub static CTX_LEAK_CLASS: LazySpanClass = LazySpanClass::new("trace.ctx_leak");

/// The lock class charged for time in the admission queue: `pk_sim::flow`
/// stamps a zero-width pair of it at dispatch, and `pk-why` reads it as
/// the accounting identity's *queue* term rather than a lock wait.
pub static ADMISSION_CLASS: pk_lockdep::LazyClass = pk_lockdep::LazyClass::new(
    "serve.admission_queue",
    "pk-sim",
    pk_lockdep::LockKind::Ticket,
);

/// Mints the deterministic request id for the `arrival_seq`-th arrival
/// of `user` under `seed` (splitmix64 finalizer chain). Never returns
/// zero — zero is the "no active request" sentinel.
pub fn request_id(seed: u64, user: u64, arrival_seq: u64) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let h = mix(seed ^ mix(user ^ mix(arrival_seq ^ 0x9e37_79b9_7f4a_7c15)));
    if h == 0 {
        1
    } else {
        h
    }
}

#[cfg(not(feature = "trace-off"))]
thread_local! {
    static ACTIVE_CTX: Cell<u64> = const { Cell::new(0) };
}

#[cfg(not(feature = "trace-off"))]
static CTX_LEAKS: AtomicU64 = AtomicU64::new(0);

/// The request id active on this thread, zero when none.
#[inline]
pub fn current_request() -> u64 {
    #[cfg(not(feature = "trace-off"))]
    {
        ACTIVE_CTX.with(Cell::get)
    }
    #[cfg(feature = "trace-off")]
    {
        0
    }
}

/// Contexts entered while a previous one was still active on the same
/// thread, process-wide. Non-zero means some driver leaks request state
/// across worker-slot reuse; `pk-bench report tail` treats it as a hard failure.
pub fn ctx_leaks() -> u64 {
    #[cfg(not(feature = "trace-off"))]
    {
        CTX_LEAKS.load(Ordering::Relaxed)
    }
    #[cfg(feature = "trace-off")]
    {
        0
    }
}

/// RAII request context for the driver domain: records `CtxBegin` on
/// entry and `CtxEnd` on drop, both on the track that entered, and pins
/// the id thread-locally for [`current_request`].
#[must_use = "a request scope records its end when dropped"]
#[cfg(not(feature = "trace-off"))]
pub struct RequestScope {
    ctx: u64,
}

#[cfg(not(feature = "trace-off"))]
impl RequestScope {
    /// Enters the context of request `ctx` (from [`request_id`]). If a
    /// previous context is still active on this thread the leak is
    /// counted and recorded, and the stale context is force-closed so
    /// the stream stays foldable.
    pub fn enter(ctx: u64) -> Self {
        let stale = ACTIVE_CTX.with(|c| c.replace(ctx));
        if stale != 0 {
            CTX_LEAKS.fetch_add(1, Ordering::Relaxed);
            with_live_tracer(|t, track| {
                t.record(track, EventKind::Instant, CTX_LEAK_CLASS.class_id(), stale);
                t.record(track, EventKind::CtxEnd, REQUEST_CLASS.class_id(), stale);
            });
        }
        with_live_tracer(|t, track| {
            t.record(track, EventKind::CtxBegin, REQUEST_CLASS.class_id(), ctx);
        });
        Self { ctx }
    }

    /// The id this scope carries.
    pub fn ctx(&self) -> u64 {
        self.ctx
    }
}

#[cfg(not(feature = "trace-off"))]
impl Drop for RequestScope {
    fn drop(&mut self) {
        with_live_tracer(|t, track| {
            t.record(track, EventKind::CtxEnd, REQUEST_CLASS.class_id(), self.ctx);
        });
        ACTIVE_CTX.with(|c| {
            // Only clear if still ours: a nested (leaked-over) scope
            // dropping out of order must not erase the newer context.
            if c.get() == self.ctx {
                c.set(0);
            }
        });
    }
}

/// RAII request context, `trace-off` build: a ZST that records nothing.
#[must_use = "a request scope records its end when dropped"]
#[cfg(feature = "trace-off")]
pub struct RequestScope;

#[cfg(feature = "trace-off")]
impl RequestScope {
    /// No-op context entry (`trace-off`).
    #[inline]
    pub fn enter(_ctx: u64) -> Self {
        Self
    }

    /// Always zero under `trace-off`.
    pub fn ctx(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_deterministic_distinct_and_nonzero() {
        let a = request_id(42, 7, 0);
        assert_eq!(a, request_id(42, 7, 0));
        assert_ne!(a, request_id(42, 7, 1));
        assert_ne!(a, request_id(42, 8, 0));
        assert_ne!(a, request_id(43, 7, 0));
        for seq in 0..1000 {
            assert_ne!(request_id(42, 0, seq), 0);
        }
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn scope_pins_and_clears_the_thread_local() {
        assert_eq!(current_request(), 0);
        let ctx = request_id(1, 2, 3);
        {
            let s = RequestScope::enter(ctx);
            assert_eq!(s.ctx(), ctx);
            assert_eq!(current_request(), ctx);
        }
        assert_eq!(current_request(), 0);
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn leaked_context_is_counted_and_superseded() {
        // Simulate a driver that reuses a worker slot without dropping
        // the previous request's scope: the leak must be counted and
        // the *new* context must win the thread-local.
        let before = ctx_leaks();
        let first = RequestScope::enter(request_id(9, 0, 0));
        let second = RequestScope::enter(request_id(9, 0, 1));
        assert_eq!(ctx_leaks(), before + 1);
        assert_eq!(current_request(), second.ctx());
        // Out-of-order drop of the stale scope must not erase the
        // newer context.
        drop(first);
        assert_eq!(current_request(), second.ctx());
        drop(second);
        assert_eq!(current_request(), 0);
    }
}
