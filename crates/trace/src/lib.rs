//! `pk-trace`: per-core event tracing.
//!
//! Every bottleneck in the paper was found by attributing cycles to
//! kernel functions and reading the locking story off the hot symbols
//! (§4). `pk-obs` answers *how much* contention exists; this crate
//! records *where the cycles went along a request's path*, and `pk-why`
//! folds what it records into per-class profiles and per-request
//! attribution:
//!
//! * **Recording** — per-track fixed-capacity lock-free rings of 32-byte
//!   [`Event`]s (the `ring` module, allocated in chunks as they fill), stamped by
//!   a deterministic virtual clock ([`Tracer`]): DES simulation cycles
//!   under `pk-sim`, a monotone per-core op counter in the functional
//!   drivers. Overflow is counted-and-dropped; a hot path never blocks
//!   on the tracer.
//! * **Spans** — [`trace_span!`] RAII guards wired through the
//!   `pk-kernel` syscalls, every `pk-sync` lock guard (named via the
//!   always-compiled `pk-lockdep` class registry), RCU read sections
//!   and grace periods, `pk-fault` injection points, and the DES
//!   station service/wait edges.
//! * **Export** — drains are pull-model: harnesses call
//!   [`Tracer::drain`] at quiescent points (read [`Tracer::dropped`]
//!   first); [`chrome_trace_json`] turns a drained stream into a
//!   perfetto-loadable timeline.
//!
//! The `trace-off` cargo feature compiles the macros and hooks to
//! no-ops ([`SpanGuard`] becomes a ZST) while keeping the [`Tracer`]
//! and the export available, so tools build in both states.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
pub mod intern;
mod request;
mod ring;
mod span;
mod tracer;

pub use chrome::chrome_trace_json;
pub use event::{encode_stream, ClassKey, ClassNames, Event, EventKind, ENCODED_EVENT_BYTES};
pub use request::{
    ctx_leaks, current_request, request_id, RequestScope, ADMISSION_CLASS, CTX_LEAK_CLASS,
    REQUEST_CLASS,
};
pub use span::{LazySpanClass, SpanGuard};
pub use tracer::{global, install_global, TraceWriter, Tracer, DEFAULT_RING_CAPACITY};

/// Opens a span of the named class on the current core's track,
/// returning an RAII guard that closes it when dropped.
///
/// ```
/// let _g = pk_trace::trace_span!("kernel.fork");
/// ```
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {{
        static __PK_TRACE_CLASS: $crate::LazySpanClass = $crate::LazySpanClass::new($name);
        $crate::SpanGuard::enter(&__PK_TRACE_CLASS)
    }};
}

/// Records a point event of the named class.
#[macro_export]
macro_rules! trace_instant {
    ($name:expr) => {{
        static __PK_TRACE_CLASS: $crate::LazySpanClass = $crate::LazySpanClass::new($name);
        $crate::instant(&__PK_TRACE_CLASS, 0)
    }};
    ($name:expr, $arg:expr) => {{
        static __PK_TRACE_CLASS: $crate::LazySpanClass = $crate::LazySpanClass::new($name);
        $crate::instant(&__PK_TRACE_CLASS, $arg)
    }};
}

#[cfg(not(feature = "trace-off"))]
#[inline]
fn with_live_tracer(f: impl FnOnce(&'static Tracer, usize)) {
    if let Some(t) = tracer::global() {
        if t.is_enabled() {
            let track = pk_percpu::registry::current_or_register().index();
            f(t, track);
        }
    }
}

/// Opens a span of `cls` on the current core's track without a guard.
/// For code whose span lifetime lives inside an existing object (the
/// RCU read guard): pair with [`span_end`].
#[inline]
pub fn span_begin(cls: &LazySpanClass) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::SpanBegin, cls.class_id(), 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = cls;
}

/// Closes the innermost open span of `cls` on the current core's track.
#[inline]
pub fn span_end(cls: &LazySpanClass) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::SpanEnd, cls.class_id(), 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = cls;
}

/// Records a point event of `cls` (prefer [`trace_instant!`]).
#[inline]
pub fn instant(cls: &LazySpanClass, arg: u64) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::Instant, cls.class_id(), arg);
    });
    #[cfg(feature = "trace-off")]
    let _ = (cls, arg);
}

/// Records a point event with a dynamically-built name. Interns on
/// every call — for cold paths only (fault injections firing).
#[inline]
pub fn instant_named(name: &str) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::Instant, intern::intern_span(name), 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = name;
}

/// Opens a lock hold span: called by every `pk-sync` guard constructor
/// after the lock is won. `wait_spins` is the spin count paid waiting
/// (the wait cost rides on the hold span's begin event). The class id
/// comes from the shared `pk-lockdep` registry, so trace names and
/// lockdep reports agree.
#[inline]
pub fn lock_acquired(cell: &pk_lockdep::ClassCell, kind: pk_lockdep::LockKind, wait_spins: u64) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        let class = pk_lockdep::classify(cell, kind).raw();
        t.record(track, EventKind::LockBegin, class, wait_spins);
    });
    #[cfg(feature = "trace-off")]
    let _ = (cell, kind, wait_spins);
}

/// Closes the lock hold span: called by every `pk-sync` guard drop.
#[inline]
pub fn lock_released(cell: &pk_lockdep::ClassCell, kind: pk_lockdep::LockKind) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        let class = pk_lockdep::classify(cell, kind).raw();
        t.record(track, EventKind::LockEnd, class, 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = (cell, kind);
}

#[cfg(test)]
#[cfg(not(feature = "trace-off"))]
mod tests {
    use super::*;

    #[test]
    fn macros_and_hooks_record_through_the_global_tracer() {
        let t = install_global(DEFAULT_RING_CAPACITY);
        t.enable();
        {
            let _g = trace_span!("test.lib.outer");
            trace_instant!("test.lib.tick");
        }
        let cell = pk_lockdep::ClassCell::new();
        cell.set_class(pk_lockdep::register_class(
            "test.lib.lock",
            "pk-trace",
            pk_lockdep::LockKind::Spin,
        ));
        lock_acquired(&cell, pk_lockdep::LockKind::Spin, 3);
        lock_released(&cell, pk_lockdep::LockKind::Spin);
        let events = t.drain();
        let names: Vec<String> = events.iter().map(|e| ClassKey::of(e).name()).collect();
        assert!(names.iter().any(|n| n == "test.lib.outer"));
        assert!(names.iter().any(|n| n == "test.lib.tick"));
        assert!(names.iter().any(|n| n == "test.lib.lock"));
        let begins = events.iter().filter(|e| e.kind.is_begin()).count();
        let ends = events.iter().filter(|e| e.kind.is_end()).count();
        assert_eq!(begins, ends, "spans must balance: {names:?}");
    }
}
