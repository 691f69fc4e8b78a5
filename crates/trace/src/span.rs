//! The span API: lazily-interned class statics and the RAII guard.
//!
//! `trace_span!("kernel.fork")` expands to a private [`LazySpanClass`]
//! static plus [`SpanGuard::enter`]. The static caches both the class
//! id and the call-site id after first use, so steady-state recording
//! is: one `OnceLock::get`, one enabled load, two cached relaxed loads,
//! one ring push. With the `trace-off` feature the guard is a ZST and
//! `enter` is an empty inline function.

#[cfg(not(feature = "trace-off"))]
use crate::event::EventKind;
use crate::intern;
#[cfg(not(feature = "trace-off"))]
use crate::tracer;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, Ordering};

/// A span class declared at a macro call site: a dotted name (same
/// convention as the lockdep lock classes) plus cached intern ids.
pub struct LazySpanClass {
    name: &'static str,
    class: AtomicU32,
    site: AtomicU32,
}

impl LazySpanClass {
    /// Declares a class. `const` so it can live in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            class: AtomicU32::new(0),
            site: AtomicU32::new(0),
        }
    }

    /// The declared name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The class id, interning on first use. Idempotent interning makes
    /// the benign store race harmless: every winner writes the same id.
    #[inline]
    pub fn class_id(&self) -> u32 {
        let id = self.class.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = intern::intern_span(self.name);
        self.class.store(fresh, Ordering::Relaxed);
        fresh
    }

    /// The call-site id for `loc`, cached after first use. A static is
    /// tied to one macro expansion, so one location suffices.
    #[inline]
    pub fn site_id(&self, loc: &Location<'_>) -> u32 {
        let id = self.site.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = intern::intern_site(&format!("{}:{}", loc.file(), loc.line()));
        self.site.store(fresh, Ordering::Relaxed);
        fresh
    }
}

/// RAII span: records `SpanBegin` on construction and the matching
/// `SpanEnd` on drop, both on the track (core) that opened it — a
/// guard carried across a migration still closes its own span.
#[must_use = "a span guard records its end when dropped"]
#[cfg(not(feature = "trace-off"))]
pub struct SpanGuard {
    /// `(track, class)` when the span is live; `None` when tracing was
    /// off at entry (the drop is then free).
    state: Option<(usize, u32)>,
}

#[cfg(not(feature = "trace-off"))]
impl SpanGuard {
    /// Opens a span of class `cls` on the current core's track, if the
    /// global tracer is installed and enabled.
    #[track_caller]
    #[inline]
    pub fn enter(cls: &LazySpanClass) -> Self {
        let Some(t) = tracer::global() else {
            return Self { state: None };
        };
        if !t.is_enabled() {
            return Self { state: None };
        }
        let track = pk_percpu::registry::current_or_register().index();
        let class = cls.class_id();
        let site = cls.site_id(Location::caller());
        t.record(track, EventKind::SpanBegin, class, site, 0);
        Self {
            state: Some((track, class)),
        }
    }
}

#[cfg(not(feature = "trace-off"))]
impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let (Some((track, class)), Some(t)) = (self.state, tracer::global()) {
            t.record(track, EventKind::SpanEnd, class, 0, 0);
        }
    }
}

/// RAII span, `trace-off` build: a ZST that records nothing.
#[must_use = "a span guard records its end when dropped"]
#[cfg(feature = "trace-off")]
pub struct SpanGuard;

#[cfg(feature = "trace-off")]
impl SpanGuard {
    /// No-op span entry (`trace-off`).
    #[inline]
    pub fn enter(_cls: &LazySpanClass) -> Self {
        Self
    }
}
