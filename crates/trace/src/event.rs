//! The compact trace event record.
//!
//! One `Event` is 32 bytes: a virtual timestamp, a payload word, an
//! interned class id, the track (core / DES customer) it was recorded
//! on, and the kind tag. Class names live in the intern tables and are
//! resolved post-hoc, never on the hot path.

use crate::intern;
use std::sync::Arc;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A span opened. `class` is a span-class id from the pk-trace
    /// intern table.
    SpanBegin = 0,
    /// The matching close of the innermost open span of `class`.
    SpanEnd = 1,
    /// A point event (fault fired, signal, …). `arg` is free-form.
    Instant = 2,
    /// A lock hold span opened. `class` is a **pk-lockdep** `ClassId`
    /// (the shared naming registry); `arg` is the spins paid waiting.
    LockBegin = 4,
    /// The matching close of a lock hold span.
    LockEnd = 5,
    /// A request context opened: everything on this track until the
    /// matching [`CtxEnd`](Self::CtxEnd) belongs to request `arg`
    /// (the deterministic `RequestCtx` id). `class` is an interned
    /// span-class id naming the request kind (`serve.request`).
    CtxBegin = 6,
    /// The matching close of a request context; `arg` repeats the id.
    CtxEnd = 7,
}

impl EventKind {
    /// Decodes the wire tag; `None` for values never produced (3 is a
    /// retired kind, so the other tags keep their values).
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::SpanBegin,
            1 => Self::SpanEnd,
            2 => Self::Instant,
            4 => Self::LockBegin,
            5 => Self::LockEnd,
            6 => Self::CtxBegin,
            7 => Self::CtxEnd,
            _ => return None,
        })
    }

    /// Whether `class` refers to the lockdep registry rather than the
    /// pk-trace span intern table.
    pub fn is_lock(self) -> bool {
        matches!(self, Self::LockBegin | Self::LockEnd)
    }

    /// Whether this kind opens a span.
    pub fn is_begin(self) -> bool {
        matches!(self, Self::SpanBegin | Self::LockBegin | Self::CtxBegin)
    }

    /// Whether this kind closes a span.
    pub fn is_end(self) -> bool {
        matches!(self, Self::SpanEnd | Self::LockEnd | Self::CtxEnd)
    }

    /// Whether this kind delimits a request context.
    pub fn is_ctx(self) -> bool {
        matches!(self, Self::CtxBegin | Self::CtxEnd)
    }
}

/// One trace record. See [`EventKind`] for field semantics per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual timestamp: DES simulation cycles under `pk-sim`, the
    /// per-core monotone op counter in the functional drivers.
    pub ts: u64,
    /// Kind-specific payload (spins waited, request id, …).
    pub arg: u64,
    /// Interned class id; namespace selected by `kind.is_lock()`.
    pub class: u32,
    /// Track the event belongs to: core id in the functional domain,
    /// customer id in the DES domain.
    pub track: u32,
    /// Discriminant.
    pub kind: EventKind,
}

/// An event's class id together with the namespace it indexes: the
/// pk-trace span intern table, or the `pk-lockdep` class registry for
/// lock events ([`EventKind::is_lock`]). Both tables are name ↔ id
/// bijections, so two events name the same class iff their keys are
/// equal — consumers match spans by key and resolve a name once per
/// class ([`ClassNames`]), never once per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClassKey {
    /// A span-class id from [`crate::intern`].
    Span(u32),
    /// A raw `pk_lockdep::ClassId`.
    Lock(u32),
}

impl ClassKey {
    /// The class `e` refers to.
    #[inline]
    pub fn of(e: &Event) -> Self {
        if e.kind.is_lock() {
            Self::Lock(e.class)
        } else {
            Self::Span(e.class)
        }
    }

    /// Resolves the class name (a placeholder for unknown ids). Takes
    /// the owning table's mutex and allocates: call it per class.
    pub fn name(self) -> String {
        match self {
            Self::Span(id) => intern::span_name(id),
            Self::Lock(id) => pk_lockdep::class_name(pk_lockdep::ClassId::from_raw(id)),
        }
    }
}

/// A resolve-once name cache for one pass over an event stream: the
/// first [`get`](Self::get) of a class resolves it, every later one is
/// a vector index. Names are `Arc<str>` so a consumer that stores one
/// per node shares the class's single allocation.
#[derive(Debug, Default)]
pub struct ClassNames {
    span: Vec<Option<Arc<str>>>,
    lock: Vec<Option<Arc<str>>>,
}

impl ClassNames {
    /// Ids the tables hand out are small and dense; an id at or past
    /// this bound can only come from a foreign or corrupt stream, and
    /// is resolved (to its placeholder) uncached rather than sizing a
    /// vector by it.
    const DENSE_IDS: usize = 1 << 16;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name of `key`, resolved on first sight.
    pub fn get(&mut self, key: ClassKey) -> Arc<str> {
        let (names, id) = match key {
            ClassKey::Span(id) => (&mut self.span, id as usize),
            ClassKey::Lock(id) => (&mut self.lock, id as usize),
        };
        if id >= Self::DENSE_IDS {
            return key.name().into();
        }
        if id >= names.len() {
            names.resize(id + 1, None);
        }
        names[id].get_or_insert_with(|| key.name().into()).clone()
    }
}

/// Wire size of one encoded event (`ts, arg, class, track, kind`).
pub const ENCODED_EVENT_BYTES: usize = 8 + 8 + 4 + 4 + 1;

impl Event {
    /// Appends the canonical little-endian encoding to `out`. Used by
    /// the determinism tests: two drains are *the same trace* iff their
    /// encodings are byte-identical.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ts.to_le_bytes());
        out.extend_from_slice(&self.arg.to_le_bytes());
        out.extend_from_slice(&self.class.to_le_bytes());
        out.extend_from_slice(&self.track.to_le_bytes());
        out.push(self.kind as u8);
    }
}

/// Encodes a drained event stream to its canonical byte form.
pub fn encode_stream(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * ENCODED_EVENT_BYTES);
    for e in events {
        e.encode_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_stays_compact() {
        // The ring stores events as four u64 words; the struct itself
        // must never grow past that budget.
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn kind_round_trips() {
        for raw in [0, 1, 2, 4, 5, 6, 7u8] {
            let k = EventKind::from_u8(raw).unwrap();
            assert_eq!(k as u8, raw);
        }
        assert_eq!(EventKind::from_u8(3), None);
        assert_eq!(EventKind::from_u8(8), None);
    }

    #[test]
    fn ctx_kinds_balance_like_spans() {
        assert!(EventKind::CtxBegin.is_begin());
        assert!(EventKind::CtxEnd.is_end());
        assert!(EventKind::CtxBegin.is_ctx() && EventKind::CtxEnd.is_ctx());
        assert!(!EventKind::CtxBegin.is_lock());
        assert!(!EventKind::SpanBegin.is_ctx());
    }

    #[test]
    fn class_names_resolve_once_per_namespace_and_bound_their_tables() {
        let span = intern::intern_span("test.event.names");
        let lock =
            pk_lockdep::register_class("test.event.names", "pk-trace", pk_lockdep::LockKind::Spin);
        let mut names = ClassNames::new();
        let first = names.get(ClassKey::Span(span));
        assert_eq!(&*first, "test.event.names");
        assert!(Arc::ptr_eq(&first, &names.get(ClassKey::Span(span))));
        // Same name, other namespace: its own entry.
        let locked = names.get(ClassKey::Lock(lock.raw()));
        assert_eq!(locked, first);
        assert!(!Arc::ptr_eq(&locked, &first));
        // Garbage ids get their placeholder without a 4-G-entry table.
        assert_eq!(&*names.get(ClassKey::Span(u32::MAX)), "span#4294967295");
        assert_eq!(&*names.get(ClassKey::Lock(0)), "class#0");
        assert!(names.span.len() <= ClassNames::DENSE_IDS);
    }

    #[test]
    fn encoding_is_injective_on_fields() {
        let a = Event {
            ts: 1,
            arg: 2,
            class: 3,
            track: 5,
            kind: EventKind::SpanBegin,
        };
        let mut b = a;
        b.kind = EventKind::SpanEnd;
        assert_ne!(encode_stream(&[a]), encode_stream(&[b]));
        assert_eq!(encode_stream(&[a]).len(), ENCODED_EVENT_BYTES);
    }
}
