//! `pk-trace`: per-core event tracing and cycle-attribution profiling.
//!
//! Every bottleneck in the paper was found by attributing cycles to
//! kernel functions and reading the locking story off the hot symbols
//! (§4). `pk-obs` answers *how much* contention exists; this crate
//! answers *where the cycles went along a request's path*:
//!
//! * **Recording** — per-track fixed-capacity lock-free rings of 32-byte
//!   [`Event`]s ([`ring`], allocated in chunks as they fill), stamped by
//!   a deterministic virtual clock ([`Tracer`]): DES simulation cycles
//!   under `pk-sim`, a monotone per-core op counter in the functional
//!   drivers. Overflow is counted-and-dropped; a hot path never blocks
//!   on the tracer.
//! * **Spans** — [`trace_span!`] RAII guards (`#[track_caller]` call
//!   sites) wired through the `pk-kernel` syscalls, every `pk-sync`
//!   lock guard (named via the always-compiled `pk-lockdep` class
//!   registry), RCU read sections and grace periods, `pk-fault`
//!   injection points, and the DES station service/wait edges.
//! * **Attribution** — [`Profile`] folds a drained stream into an
//!   inclusive/exclusive cycle tree plus the paper-style top-functions
//!   table; [`chrome_trace_json`] exports a perfetto-loadable timeline.
//! * **Export** — drains are pull-model: [`collector`] is a `pk-obs`
//!   [`Collect`](pk_obs::Collect) source exposing buffered/dropped
//!   counts; harnesses call [`Tracer::drain`] at quiescent points.
//!
//! The `trace-off` cargo feature compiles the macros and hooks to
//! no-ops ([`SpanGuard`] becomes a ZST) while keeping the aggregation
//! side available, so tools build in both states.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
pub mod intern;
mod profile;
mod request;
mod ring;
mod span;
mod tracer;

pub use chrome::chrome_trace_json;
pub use event::{encode_stream, ClassKey, ClassNames, Event, EventKind, ENCODED_EVENT_BYTES};
pub use profile::{ClassTotals, Profile, ProfileNode};
pub use request::{
    ctx_leaks, current_request, request_id, RequestScope, CTX_LEAK_CLASS, REQUEST_CLASS,
};
pub use span::{LazySpanClass, SpanGuard};
pub use tracer::{global, install_global, Tracer, DEFAULT_RING_CAPACITY};

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

/// Records a counter delta of the named class.
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $delta:expr) => {{
        static __PK_TRACE_CLASS: $crate::LazySpanClass = $crate::LazySpanClass::new($name);
        $crate::counter(&__PK_TRACE_CLASS, $delta)
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
        t.record(track, EventKind::SpanBegin, cls.class_id(), 0, 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = cls;
}

/// Closes the innermost open span of `cls` on the current core's track.
#[inline]
pub fn span_end(cls: &LazySpanClass) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::SpanEnd, cls.class_id(), 0, 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = cls;
}

/// Records a point event of `cls` (prefer [`trace_instant!`]).
#[inline]
pub fn instant(cls: &LazySpanClass, arg: u64) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::Instant, cls.class_id(), 0, arg);
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
        t.record(track, EventKind::Instant, intern::intern_span(name), 0, 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = name;
}

/// Records a counter delta of `cls` (prefer [`trace_counter!`]).
#[inline]
pub fn counter(cls: &LazySpanClass, delta: i64) {
    #[cfg(not(feature = "trace-off"))]
    with_live_tracer(|t, track| {
        t.record(track, EventKind::Counter, cls.class_id(), 0, delta as u64);
    });
    #[cfg(feature = "trace-off")]
    let _ = (cls, delta);
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
        t.record(track, EventKind::LockBegin, class, 0, wait_spins);
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
        t.record(track, EventKind::LockEnd, class, 0, 0);
    });
    #[cfg(feature = "trace-off")]
    let _ = (cell, kind);
}

/// The pull-model trace sink: exports ring occupancy, drop counts
/// (this capture window) and torn-drain counts (lifetime) through
/// `pk-obs` so a truncated capture is always visible.
struct TraceSink;

impl pk_obs::Collect for TraceSink {
    fn collect(&self, out: &mut pk_obs::Snapshot) {
        let installed = tracer::global();
        out.push(pk_obs::Sample::gauge(
            "trace.installed",
            installed.is_some() as i64,
        ));
        out.push(pk_obs::Sample::gauge(
            "trace.enabled",
            installed.map(|t| t.is_enabled()).unwrap_or(false) as i64,
        ));
        out.push(pk_obs::Sample::counter(
            "trace.buffered_events",
            installed.map(Tracer::recorded).unwrap_or(0),
        ));
        out.push(pk_obs::Sample::counter(
            "trace.dropped_events",
            installed.map(Tracer::dropped).unwrap_or(0),
        ));
        out.push(pk_obs::Sample::counter(
            "trace.torn_events",
            installed.map(Tracer::torn).unwrap_or(0),
        ));
        out.push(pk_obs::Sample::gauge(
            "trace.span_classes",
            intern::span_class_count() as i64,
        ));
    }
}

/// Returns the tracer's `pk-obs` metric source: `collect` it into a
/// [`Snapshot`](pk_obs::Snapshot) to read occupancy/drop counts.
pub fn collector() -> std::sync::Arc<dyn pk_obs::Collect> {
    std::sync::Arc::new(TraceSink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_reports_even_without_a_global_tracer() {
        // Must not install a tracer as a side effect.
        let mut snap = pk_obs::Snapshot::new();
        collector().collect(&mut snap);
        assert!(snap.find("trace.installed").is_some());
        assert!(snap.find("trace.dropped_events").is_some());
        assert!(snap.find("trace.torn_events").is_some());
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn macros_and_hooks_record_through_the_global_tracer() {
        let t = install_global(DEFAULT_RING_CAPACITY);
        t.enable();
        {
            let _g = trace_span!("test.lib.outer");
            trace_instant!("test.lib.tick");
            trace_counter!("test.lib.bytes", 17);
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
        assert!(names.iter().any(|n| n == "test.lib.bytes"));
        assert!(names.iter().any(|n| n == "test.lib.lock"));
        let begins = events.iter().filter(|e| e.kind.is_begin()).count();
        let ends = events.iter().filter(|e| e.kind.is_end()).count();
        assert_eq!(begins, ends, "spans must balance: {names:?}");
    }
}
