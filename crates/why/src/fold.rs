//! Folding a drained event stream into per-request span trees.
//!
//! The fold is a per-track stack walk, exactly like
//! `pk_trace::Profile::build`, except the unit of output is the
//! *request*: every `CtxBegin`/`CtxEnd` envelope that closes inside
//! the stream becomes one [`RequestTree`]; envelopes still open at the
//! end of the stream (requests in flight at the horizon) are counted
//! and discarded — a partial tree would misprice every term of the
//! accounting identity.
//!
//! Track layout is erased: trees carry no track id and the output is
//! sorted by `(start, ctx)`, so renumbering workers or migrating a
//! request's events to a different track (with per-track order
//! preserved) cannot change a byte of the fold.

use crate::ADMISSION_QUEUE_CLASS;
use pk_trace::{ClassKey, ClassNames, Event, EventKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a [`SpanNode`] in a folded tree represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    /// A plain span (station service, connect, stall, kernel section).
    Span,
    /// A lock hold; `wait` is the cycles paid waiting to acquire.
    Lock,
    /// A point event; zero width, `wait` carries the payload.
    Instant,
    /// A counter delta; zero width, `wait` carries the raw delta.
    Counter,
}

impl NodeKind {
    /// Canonical one-byte tag for the exemplar encoding.
    pub(crate) fn tag(self) -> u8 {
        match self {
            NodeKind::Span => 0,
            NodeKind::Lock => 1,
            NodeKind::Instant => 2,
            NodeKind::Counter => 3,
        }
    }
}

/// One node of a folded request tree. Names are resolved at fold time
/// (lockdep registry for locks, span intern table otherwise) — trees
/// never carry raw interned ids. Every node of one class in one fold
/// shares that class's single name allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Resolved class name.
    pub name: Arc<str>,
    /// What the node is.
    pub kind: NodeKind,
    /// Open timestamp (virtual cycles).
    pub start: u64,
    /// Close timestamp; equals `start` for zero-width nodes.
    pub end: u64,
    /// Lock: cycles waited to acquire. Instant/counter: the payload.
    pub wait: u64,
    /// Nested nodes, in stream order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Node width in cycles.
    pub fn width(&self) -> u64 {
        self.end - self.start
    }
}

/// One complete request: the folded `CtxBegin..CtxEnd` envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTree {
    /// The deterministic request id (`pk_trace::request_id`).
    pub ctx: u64,
    /// Resolved name of the context class (`serve.request`).
    pub kind_name: Arc<str>,
    /// Envelope open (dispatch time in the flow engine).
    pub start: u64,
    /// Envelope close (completion).
    pub end: u64,
    /// Top-level children, in stream order.
    pub children: Vec<SpanNode>,
}

impl RequestTree {
    /// Envelope width in cycles. The *latency* additionally includes
    /// the admission-queue wait — see [`RequestCost`].
    pub fn envelope(&self) -> u64 {
        self.end - self.start
    }
}

/// Everything [`fold`] extracted from a stream.
#[derive(Debug, Clone, Default)]
pub struct FoldOutput {
    /// Complete request trees, sorted by `(start, ctx)`.
    pub trees: Vec<RequestTree>,
    /// Request envelopes still open at the end of the stream (in
    /// flight at the horizon). Not an error.
    pub in_flight: usize,
    /// End events with no matching open frame, and frames the fold had
    /// to force-close because an outer frame ended first. Zero on any
    /// well-formed stream; non-zero means a driver broke span nesting.
    pub malformed: usize,
}

struct Frame {
    node: SpanNode,
    /// The opening event's class. Ends match on this, not on the name:
    /// both name tables are bijections, so it is the same test.
    key: ClassKey,
    /// `Some(id)` iff this frame is a request envelope.
    ctx: Option<u64>,
}

/// Whether `e` closes the frame `f`.
fn matches(f: &Frame, e: &Event) -> bool {
    match e.kind {
        EventKind::CtxEnd => f.ctx == Some(e.arg),
        EventKind::LockEnd | EventKind::SpanEnd => f.ctx.is_none() && f.key == ClassKey::of(e),
        _ => false,
    }
}

/// Folds a drained stream into complete per-request span trees.
///
/// Events are grouped by track with a stable sort (each track's stream
/// order survives; a drained stream is already in this order, which
/// the sort detects in one pass) and each track is walked with a frame
/// stack. Events outside any request envelope — the admission track's
/// shed/reject instants, driver spans between requests — are dropped:
/// the fold answers per-request questions only.
///
/// An end closes the innermost open frame of its `(namespace, class
/// id)`, and each class name is resolved once per fold
/// ([`ClassNames`]): the per-event path takes no lock and allocates no
/// string.
pub fn fold(events: &[Event]) -> FoldOutput {
    let mut by_track: Vec<&Event> = events.iter().collect();
    by_track.sort_by_key(|e| e.track);

    let mut out = FoldOutput::default();
    let mut names = ClassNames::new();
    for track in by_track.chunk_by(|a, b| a.track == b.track) {
        let mut stack: Vec<Frame> = Vec::new();
        for &e in track {
            match e.kind {
                EventKind::SpanBegin | EventKind::LockBegin | EventKind::CtxBegin => {
                    let key = ClassKey::of(e);
                    stack.push(Frame {
                        node: SpanNode {
                            name: names.get(key),
                            kind: if e.kind.is_lock() {
                                NodeKind::Lock
                            } else {
                                NodeKind::Span
                            },
                            start: e.ts,
                            end: e.ts,
                            wait: if e.kind == EventKind::LockBegin {
                                e.arg
                            } else {
                                0
                            },
                            children: Vec::new(),
                        },
                        key,
                        ctx: (e.kind == EventKind::CtxBegin).then_some(e.arg),
                    });
                }
                EventKind::SpanEnd | EventKind::LockEnd | EventKind::CtxEnd => {
                    let Some(depth) = stack.iter().rposition(|f| matches(f, e)) else {
                        out.malformed += 1;
                        continue;
                    };
                    // Frames opened inside the one being closed are
                    // force-closed at its end (broken nesting).
                    out.malformed += stack.len() - depth - 1;
                    while stack.len() > depth + 1 {
                        let mut f = stack.pop().expect("depth bounded");
                        f.node.end = e.ts;
                        stack
                            .last_mut()
                            .expect("parent below")
                            .node
                            .children
                            .push(f.node);
                    }
                    let mut f = stack.pop().expect("matched frame");
                    f.node.end = e.ts;
                    match (f.ctx, stack.last_mut()) {
                        (Some(ctx), _) => out.trees.push(RequestTree {
                            ctx,
                            kind_name: f.node.name,
                            start: f.node.start,
                            end: f.node.end,
                            children: f.node.children,
                        }),
                        (None, Some(parent)) => parent.node.children.push(f.node),
                        // A span that opened and closed outside any
                        // envelope: not request work, dropped.
                        (None, None) => {}
                    }
                }
                EventKind::Instant | EventKind::Counter => {
                    if let Some(top) = stack.last_mut() {
                        top.node.children.push(SpanNode {
                            name: names.get(ClassKey::of(e)),
                            kind: if e.kind == EventKind::Instant {
                                NodeKind::Instant
                            } else {
                                NodeKind::Counter
                            },
                            start: e.ts,
                            end: e.ts,
                            wait: e.arg,
                            children: Vec::new(),
                        });
                    }
                }
            }
        }
        out.in_flight += stack.iter().filter(|f| f.ctx.is_some()).count();
    }
    out.trees.sort_by_key(|t| (t.start, t.ctx));
    out
}

/// One request priced against the accounting identity
/// `latency = queue + service + Σ waits + slack` (DESIGN.md §15).
/// All five terms are exact by construction — the struct cannot
/// represent a tree that violates the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestCost {
    /// The request id.
    pub ctx: u64,
    /// End-to-end latency: admission wait + envelope width. This is
    /// the same number the engine's latency histogram recorded.
    pub latency: u64,
    /// Cycles queued at admission ([`ADMISSION_QUEUE_CLASS`]) — the
    /// *queue* term, deliberately not part of [`Self::waits`].
    pub queue: u64,
    /// Cycles doing work: envelope covered by spans, minus lock waits.
    pub service: u64,
    /// Envelope cycles covered by no top-level span — zero in the DES
    /// flow engine (its spans are contiguous), possibly positive for
    /// functional drivers with untraced gaps.
    pub slack: u64,
    /// Cycles waited per lock class, admission excluded. Keyed by
    /// resolved class name — the shared `pk-lockdep` vocabulary.
    pub waits: BTreeMap<Arc<str>, u64>,
}

impl RequestCost {
    /// Prices one complete tree.
    pub fn of(tree: &RequestTree) -> Self {
        fn walk(n: &SpanNode, queue: &mut u64, waits: &mut BTreeMap<Arc<str>, u64>) {
            if n.kind == NodeKind::Lock {
                if &*n.name == ADMISSION_QUEUE_CLASS {
                    *queue += n.wait;
                } else {
                    *waits.entry(n.name.clone()).or_default() += n.wait;
                }
            }
            for c in &n.children {
                walk(c, queue, waits);
            }
        }
        let mut queue = 0;
        let mut waits = BTreeMap::new();
        for c in &tree.children {
            walk(c, &mut queue, &mut waits);
        }
        let covered: u64 = tree
            .children
            .iter()
            .filter(|c| matches!(c.kind, NodeKind::Span | NodeKind::Lock))
            .map(SpanNode::width)
            .sum();
        let envelope = tree.envelope();
        let slack = envelope.saturating_sub(covered);
        let wait_sum: u64 = waits.values().sum();
        Self {
            ctx: tree.ctx,
            latency: queue + envelope,
            queue,
            service: covered.saturating_sub(wait_sum),
            slack,
            waits,
        }
    }

    /// Σ lock-class waits (admission excluded).
    pub fn wait_total(&self) -> u64 {
        self.waits.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(track: u32, ts: u64, kind: EventKind, class: u32, arg: u64) -> Event {
        Event {
            ts,
            arg,
            class,
            site: 0,
            track,
            kind,
        }
    }

    fn classes() -> (u32, u32, u32, u32) {
        let ctx = pk_trace::REQUEST_CLASS.class_id();
        let work = pk_trace::intern::intern_span("test.why.work");
        let adm = pk_lockdep::register_class(
            ADMISSION_QUEUE_CLASS,
            "pk-why",
            pk_lockdep::LockKind::Ticket,
        )
        .raw();
        let lock =
            pk_lockdep::register_class("test.why.lock", "pk-why", pk_lockdep::LockKind::Spin).raw();
        (ctx, work, adm, lock)
    }

    /// One request: dispatched at 100 after 40 cycles queued, a work
    /// span [100,160] holding the lock [110,150] (30 waited), done at
    /// 160.
    fn one_request(track: u32, ctx_id: u64, base: u64) -> Vec<Event> {
        let (ctx, work, adm, lock) = classes();
        vec![
            ev(track, base, EventKind::CtxBegin, ctx, ctx_id),
            ev(track, base, EventKind::LockBegin, adm, 40),
            ev(track, base, EventKind::LockEnd, adm, 0),
            ev(track, base, EventKind::SpanBegin, work, 0),
            ev(track, base + 10, EventKind::LockBegin, lock, 30),
            ev(track, base + 50, EventKind::LockEnd, lock, 0),
            ev(track, base + 60, EventKind::SpanEnd, work, 0),
            ev(track, base + 60, EventKind::CtxEnd, ctx, ctx_id),
        ]
    }

    #[test]
    fn folds_one_envelope_and_prices_the_identity() {
        let events = one_request(0, 7, 100);
        let f = fold(&events);
        assert_eq!(f.trees.len(), 1);
        assert_eq!(f.in_flight, 0);
        assert_eq!(f.malformed, 0);
        let t = &f.trees[0];
        assert_eq!(t.ctx, 7);
        assert_eq!(t.envelope(), 60);
        // admission pair + work span at top level; lock nested.
        assert_eq!(t.children.len(), 2);
        assert_eq!(t.children[1].children.len(), 1);
        let c = RequestCost::of(t);
        assert_eq!(c.latency, 100);
        assert_eq!(c.queue, 40);
        assert_eq!(c.waits["test.why.lock"], 30);
        assert_eq!(c.slack, 0);
        assert_eq!(
            c.latency,
            c.queue + c.service + c.wait_total() + c.slack,
            "the identity must be exact"
        );
    }

    #[test]
    fn open_envelopes_at_stream_end_are_in_flight_not_trees() {
        let (ctx, ..) = classes();
        let mut events = one_request(0, 7, 100);
        events.push(ev(0, 300, EventKind::CtxBegin, ctx, 8));
        let f = fold(&events);
        assert_eq!(f.trees.len(), 1);
        assert_eq!(f.in_flight, 1);
    }

    #[test]
    fn fold_is_track_layout_invariant() {
        // The same two requests, laid out (a) on separate tracks and
        // (b) on swapped track ids with the streams interleaved: the
        // fold must produce identical trees in identical order.
        let mut a = one_request(0, 7, 100);
        a.extend(one_request(1, 9, 90));
        let mut b: Vec<Event> = Vec::new();
        let (r0, r1) = (one_request(4, 7, 100), one_request(2, 9, 90));
        for i in 0..r0.len() {
            b.push(r1[i]);
            b.push(r0[i]);
        }
        assert_eq!(fold(&a).trees, fold(&b).trees);
        // Sorted by (start, ctx): the later-dispatched request is last.
        assert_eq!(fold(&a).trees[0].ctx, 9);
    }

    #[test]
    fn broken_nesting_is_surfaced_not_mispriced() {
        let (ctx, work, _, _) = classes();
        let events = vec![
            ev(0, 0, EventKind::CtxBegin, ctx, 5),
            ev(0, 10, EventKind::SpanBegin, work, 0),
            // Envelope closes while the span is still open.
            ev(0, 20, EventKind::CtxEnd, ctx, 5),
            // And a stray end with no open frame.
            ev(0, 30, EventKind::SpanEnd, work, 0),
        ];
        let f = fold(&events);
        assert_eq!(f.malformed, 2);
        assert_eq!(f.trees.len(), 1, "the envelope still folds");
        assert_eq!(
            f.trees[0].children[0].end, 20,
            "force-closed at the envelope end"
        );
    }

    #[test]
    fn instants_attach_to_the_open_frame_and_orphans_drop() {
        let (ctx, work, _, _) = classes();
        let leak = pk_trace::CTX_LEAK_CLASS.class_id();
        let events = vec![
            // Orphan instant before any envelope: dropped.
            ev(0, 1, EventKind::Instant, work, 0),
            ev(0, 10, EventKind::CtxBegin, ctx, 5),
            ev(0, 12, EventKind::Instant, leak, 99),
            ev(0, 20, EventKind::CtxEnd, ctx, 5),
        ];
        let f = fold(&events);
        assert_eq!(f.trees.len(), 1);
        let kids = &f.trees[0].children;
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].kind, NodeKind::Instant);
        assert_eq!(kids[0].wait, 99);
    }
}
