//! Folding a drained event stream into priced per-request records.
//!
//! The fold is a per-track stack walk, exactly like
//! `pk_trace::Profile::build`, except the unit of output is the
//! *request*: every `CtxBegin`/`CtxEnd` envelope that closes inside
//! the stream becomes one [`RequestTree`]; envelopes still open at the
//! end of the stream (requests in flight at the horizon) are counted
//! and discarded — a partial record would misprice every term of the
//! accounting identity.
//!
//! It is a *pricing pass*: the walk keeps plain-old-data frames and one
//! accumulator per open envelope, and a closing envelope emits a record
//! holding the identity's terms plus the envelope's own events. No span
//! node is built; [`RequestTree::children`] replays one record's events
//! through the same walk to build its span tree, and only the exemplar
//! encoder asks for that. The nesting rules live in [`walk`] alone —
//! pricing and node building are two [`Sink`]s under it.
//!
//! Track layout is erased: what a record prices and materialises
//! carries no track id and the output is sorted by `(start, ctx)`, so
//! renumbering workers or migrating a request's events to a different
//! track (with per-track order preserved) cannot change a byte of it.

use crate::ADMISSION_QUEUE_CLASS;
use pk_trace::{ClassKey, ClassNames, Event, EventKind};
use std::borrow::Cow;
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

/// One node of a request's span tree. Names are resolved when the tree
/// is built (lockdep registry for locks, span intern table otherwise) —
/// trees never carry raw interned ids. Every node of one class in one
/// tree shares that class's single name allocation.
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

/// One complete request: the `CtxBegin..CtxEnd` envelope, priced, with
/// the events it spans. The priced terms are private — a record comes
/// out of [`fold`] or not at all, so it cannot disagree with its events.
#[derive(Debug, Clone)]
pub struct RequestTree<'a> {
    /// The deterministic request id (`pk_trace::request_id`).
    pub ctx: u64,
    /// Resolved name of the context class (`serve.request`).
    pub kind_name: Arc<str>,
    /// Envelope open (dispatch time in the flow engine).
    pub start: u64,
    /// Envelope close (completion).
    pub end: u64,
    /// Σ admission-queue lock waits anywhere under the envelope.
    queue: u64,
    /// Σ widths of the envelope's top-level spans and lock holds.
    covered: u64,
    /// Σ wait per other lock class seen under the envelope (a class
    /// acquired without waiting is listed with 0), in first-seen order.
    waits: Vec<(Arc<str>, u64)>,
    /// The envelope's events, `CtxBegin ..= CtxEnd` on its track:
    /// borrowed from a stream that was already grouped by track, owned
    /// when the fold had to regroup an interleaved one.
    events: Cow<'a, [Event]>,
}

impl RequestTree<'_> {
    /// Envelope width in cycles. The *latency* additionally includes
    /// the admission-queue wait — see [`Self::latency`].
    pub fn envelope(&self) -> u64 {
        self.end - self.start
    }

    /// End-to-end latency: admission wait + envelope width, the
    /// accounting identity's left-hand side ([`RequestCost::latency`]).
    pub fn latency(&self) -> u64 {
        self.queue + self.envelope()
    }

    /// Builds the request's span tree: its top-level children, in
    /// stream order. This is the only place span nodes are allocated;
    /// the fold itself never calls it.
    pub fn children(&self) -> Vec<SpanNode> {
        let mut sink = NodeSink::default();
        walk(&self.events, &mut sink);
        sink.root
    }
}

/// Everything [`fold`] extracted from a stream.
#[derive(Debug, Clone, Default)]
pub struct FoldOutput<'a> {
    /// Complete requests, sorted by `(start, ctx)`.
    pub trees: Vec<RequestTree<'a>>,
    /// Request envelopes still open at the end of the stream (in
    /// flight at the horizon). Not an error.
    pub in_flight: usize,
    /// End events with no matching open frame, and frames the fold had
    /// to force-close because an outer frame ended first. Zero on any
    /// well-formed stream; non-zero means a driver broke span nesting.
    pub malformed: usize,
}

/// An open span, copied out of its begin event: plain data.
#[derive(Clone, Copy)]
struct Frame {
    /// The opening event's class. Ends match on this, not on the name:
    /// both name tables are bijections, so it is the same test.
    key: ClassKey,
    /// `Some(id)` iff this frame is a request envelope.
    ctx: Option<u64>,
    start: u64,
    /// Cycles waited to acquire (`LockBegin`), else 0.
    wait: u64,
    /// Index of the opening event in the track being walked.
    open: usize,
}

/// Whether `e` closes the frame `f`.
fn closes(f: &Frame, e: &Event) -> bool {
    match e.kind {
        EventKind::CtxEnd => f.ctx == Some(e.arg),
        EventKind::LockEnd | EventKind::SpanEnd => f.ctx.is_none() && f.key == ClassKey::of(e),
        _ => false,
    }
}

/// What [`walk`] reports as it matches ends to begins. `'t` is the
/// lifetime of the track walked.
trait Sink<'t> {
    /// A frame opened.
    fn open(&mut self, f: &Frame);
    /// A point event arrived while some frame was open.
    fn point(&mut self, e: &Event);
    /// `f` closed at `end`; `parent` is the frame it was opened in.
    /// `own` is `f`'s events, begin through end, when its own end event
    /// closed it, and `None` when an outer frame's end forced it shut.
    fn close(&mut self, f: &Frame, parent: Option<&Frame>, end: u64, own: Option<&'t [Event]>);
}

/// The nesting rules, for one track's events in stream order. An end
/// closes the innermost open frame of its `(namespace, class id)` — of
/// its `ctx`, for `CtxEnd` — and frames opened inside that one are
/// force-closed at the same timestamp, innermost first. Returns
/// `(malformed, in_flight)`: ends that matched nothing plus frames
/// force-closed, and envelopes still open at the end of the track.
fn walk<'t>(track: &'t [Event], sink: &mut impl Sink<'t>) -> (usize, usize) {
    let mut stack: Vec<Frame> = Vec::new();
    let mut malformed = 0;
    for (i, e) in track.iter().enumerate() {
        match e.kind {
            EventKind::SpanBegin | EventKind::LockBegin | EventKind::CtxBegin => {
                let f = Frame {
                    key: ClassKey::of(e),
                    ctx: (e.kind == EventKind::CtxBegin).then_some(e.arg),
                    start: e.ts,
                    wait: if e.kind == EventKind::LockBegin {
                        e.arg
                    } else {
                        0
                    },
                    open: i,
                };
                sink.open(&f);
                stack.push(f);
            }
            EventKind::SpanEnd | EventKind::LockEnd | EventKind::CtxEnd => {
                let Some(depth) = stack.iter().rposition(|f| closes(f, e)) else {
                    malformed += 1;
                    continue;
                };
                malformed += stack.len() - depth - 1;
                while let Some(f) = stack.pop() {
                    let own = (stack.len() == depth).then(|| &track[f.open..=i]);
                    sink.close(&f, stack.last(), e.ts, own);
                    if own.is_some() {
                        break;
                    }
                }
            }
            EventKind::Instant | EventKind::Counter => {
                if !stack.is_empty() {
                    sink.point(e);
                }
            }
        }
    }
    let in_flight = stack.iter().filter(|f| f.ctx.is_some()).count();
    (malformed, in_flight)
}

/// The identity's terms as they accumulate under one open envelope.
#[derive(Default)]
struct Accumulator {
    queue: u64,
    covered: u64,
    /// `(lock class id, Σ wait)`, first-seen order. A request touches a
    /// handful of classes, so a scan beats any map.
    waits: Vec<(u32, u64)>,
}

impl Accumulator {
    fn add_wait(&mut self, class: u32, wait: u64) {
        match self.waits.iter_mut().find(|w| w.0 == class) {
            Some(w) => w.1 += wait,
            None => self.waits.push((class, wait)),
        }
    }
}

/// The pricing sink: one [`Accumulator`] per open envelope, one
/// [`RequestTree`] record per envelope that closes.
///
/// * A closing lock adds its wait to the innermost open envelope —
///   to `queue` if it is the admission class.
/// * A closing span or lock whose parent frame *is* an envelope adds
///   its width to that envelope's `covered`.
/// * An envelope closed by its own `CtxEnd` emits its record and gives
///   the envelope around it nothing.
/// * An envelope forced shut is a plain span of the envelope around
///   it, which inherits the waits priced under it.
///
/// Anything priced while no envelope is open is dropped: the fold
/// answers per-request questions only.
struct Pricer<'a, K> {
    /// How a record keeps its events: borrow them, or copy them out of
    /// a regrouped stream that will not outlive the fold.
    keep: K,
    names: ClassNames,
    /// `(lock class id, is it the admission class)`, one name
    /// comparison per id. A stream holds a few dozen lock classes at
    /// most (they are static registrations), so this too is a scan.
    lock_classes: Vec<(u32, bool)>,
    /// Accumulators of the open envelopes in `..depth`, innermost
    /// last; the rest are spent ones kept for their capacity.
    accumulators: Vec<Accumulator>,
    depth: usize,
    trees: Vec<RequestTree<'a>>,
}

impl<K> Pricer<'_, K> {
    fn is_admission(&mut self, class: u32) -> bool {
        if let Some(&(_, admission)) = self.lock_classes.iter().find(|c| c.0 == class) {
            return admission;
        }
        let admission = &*self.names.get(ClassKey::Lock(class)) == ADMISSION_QUEUE_CLASS;
        self.lock_classes.push((class, admission));
        admission
    }

    /// The innermost open envelope's accumulator.
    fn innermost(&mut self) -> Option<&mut Accumulator> {
        self.accumulators[..self.depth].last_mut()
    }
}

impl<'t, 'a, K: Fn(&'t [Event]) -> Cow<'a, [Event]>> Sink<'t> for Pricer<'a, K> {
    fn open(&mut self, f: &Frame) {
        if f.ctx.is_none() {
            return;
        }
        if self.depth == self.accumulators.len() {
            self.accumulators.push(Accumulator::default());
        }
        let a = &mut self.accumulators[self.depth];
        (a.queue, a.covered) = (0, 0);
        a.waits.clear();
        self.depth += 1;
    }

    fn point(&mut self, _: &Event) {}

    fn close(&mut self, f: &Frame, parent: Option<&Frame>, end: u64, own: Option<&'t [Event]>) {
        if let Some(ctx) = f.ctx {
            self.depth -= 1;
            let (outer, inner) = self.accumulators.split_at_mut(self.depth);
            let inner = &inner[0];
            if let Some(own) = own {
                self.trees.push(RequestTree {
                    ctx,
                    kind_name: self.names.get(f.key),
                    start: f.start,
                    end,
                    queue: inner.queue,
                    covered: inner.covered,
                    waits: inner
                        .waits
                        .iter()
                        .map(|&(class, wait)| (self.names.get(ClassKey::Lock(class)), wait))
                        .collect(),
                    events: (self.keep)(own),
                });
                return;
            }
            if let Some(outer) = outer.last_mut() {
                outer.queue += inner.queue;
                for &(class, wait) in &inner.waits {
                    outer.add_wait(class, wait);
                }
            }
        } else if let ClassKey::Lock(class) = f.key {
            let admission = self.is_admission(class);
            if let Some(a) = self.innermost() {
                if admission {
                    a.queue += f.wait;
                } else {
                    a.add_wait(class, f.wait);
                }
            }
        }
        if parent.is_some_and(|p| p.ctx.is_some()) {
            let parent = self.innermost().expect("the parent envelope is open");
            parent.covered += end - f.start;
        }
    }
}

/// The node-building sink: one [`SpanNode`] per frame and per point
/// event, nested as the frames were. `root` ends up holding the
/// children of the last envelope closed by its own `CtxEnd`.
#[derive(Default)]
struct NodeSink {
    names: ClassNames,
    open: Vec<SpanNode>,
    root: Vec<SpanNode>,
}

impl Sink<'_> for NodeSink {
    fn open(&mut self, f: &Frame) {
        self.open.push(SpanNode {
            name: self.names.get(f.key),
            kind: match f.key {
                ClassKey::Lock(_) => NodeKind::Lock,
                ClassKey::Span(_) => NodeKind::Span,
            },
            start: f.start,
            end: f.start,
            wait: f.wait,
            children: Vec::new(),
        });
    }

    fn point(&mut self, e: &Event) {
        let top = self.open.last_mut().expect("one node per open frame");
        top.children.push(SpanNode {
            name: self.names.get(ClassKey::of(e)),
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

    fn close(&mut self, f: &Frame, _: Option<&Frame>, end: u64, own: Option<&[Event]>) {
        let mut node = self.open.pop().expect("one node per open frame");
        node.end = end;
        if f.ctx.is_some() && own.is_some() {
            // Its own tree; the envelope around it gets nothing.
            self.root = node.children;
        } else if let Some(parent) = self.open.last_mut() {
            parent.children.push(node);
        }
        // Else a span that opened and closed outside any envelope:
        // not request work, dropped.
    }
}

/// Folds a drained stream into one priced record per complete request.
///
/// Each track is walked on its own, in ascending track order. A drained
/// stream is already grouped that way, and its records borrow their
/// events from it; any other layout is grouped by a stable sort of a
/// copy (each track's stream order survives) and its records own
/// theirs. Events outside any request envelope — the admission track's
/// shed/reject instants, driver spans between requests — are dropped.
///
/// Per event the walk takes no lock and allocates nothing; each class
/// name is resolved once per fold ([`ClassNames`]), and a record costs
/// one allocation, its wait list.
pub fn fold(events: &[Event]) -> FoldOutput<'_> {
    if events.is_sorted_by_key(|e| e.track) {
        price(events, Cow::Borrowed)
    } else {
        let mut grouped = events.to_vec();
        grouped.sort_by_key(|e| e.track);
        price(&grouped, |own| Cow::Owned(own.to_vec()))
    }
}

fn price<'t, 'a>(
    grouped: &'t [Event],
    keep: impl Fn(&'t [Event]) -> Cow<'a, [Event]>,
) -> FoldOutput<'a> {
    let mut pricer = Pricer {
        keep,
        names: ClassNames::new(),
        lock_classes: Vec::new(),
        accumulators: Vec::new(),
        depth: 0,
        trees: Vec::new(),
    };
    let (mut malformed, mut in_flight) = (0, 0);
    for track in grouped.chunk_by(|a, b| a.track == b.track) {
        let (bad, open) = walk(track, &mut pricer);
        malformed += bad;
        in_flight += open;
        // Envelopes left open keep no accumulator into the next track.
        pricer.depth = 0;
    }
    let mut trees = pricer.trees;
    trees.sort_by_key(|t| (t.start, t.ctx));
    FoldOutput {
        trees,
        in_flight,
        malformed,
    }
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
    /// The identity's terms for one request, from what the fold priced.
    pub fn of(tree: &RequestTree) -> Self {
        let mut waits = BTreeMap::new();
        let mut wait_sum = 0;
        for (class, wait) in &tree.waits {
            *waits.entry(class.clone()).or_default() += wait;
            wait_sum += wait;
        }
        Self {
            ctx: tree.ctx,
            latency: tree.latency(),
            queue: tree.queue,
            service: tree.covered.saturating_sub(wait_sum),
            slack: tree.envelope().saturating_sub(tree.covered),
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

    /// Everything a record says about its request, track-free: the
    /// canonical bytes (id, kind, envelope, span tree) and the cost.
    fn shapes(f: &FoldOutput) -> Vec<(Vec<u8>, RequestCost)> {
        f.trees
            .iter()
            .map(|t| {
                let mut bytes = Vec::new();
                crate::encode_tree(t, &mut bytes);
                (bytes, RequestCost::of(t))
            })
            .collect()
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
        let kids = t.children();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[1].children.len(), 1);
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
        // fold must produce identical records in identical order.
        let mut a = one_request(0, 7, 100);
        a.extend(one_request(1, 9, 90));
        let mut b: Vec<Event> = Vec::new();
        let (r0, r1) = (one_request(4, 7, 100), one_request(2, 9, 90));
        for i in 0..r0.len() {
            b.push(r1[i]);
            b.push(r0[i]);
        }
        let (fa, fb) = (fold(&a), fold(&b));
        assert_eq!(shapes(&fa), shapes(&fb));
        // Sorted by (start, ctx): the later-dispatched request is last.
        assert_eq!(fa.trees[0].ctx, 9);
        // Grouped streams lend their events; regrouped ones cannot.
        assert!(fa
            .trees
            .iter()
            .all(|t| matches!(t.events, Cow::Borrowed(_))));
        assert!(fb.trees.iter().all(|t| matches!(t.events, Cow::Owned(_))));
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
            f.trees[0].children()[0].end,
            20,
            "force-closed at the envelope end"
        );
        let c = RequestCost::of(&f.trees[0]);
        assert_eq!((c.service, c.slack), (10, 10), "priced as force-closed");
    }

    #[test]
    fn a_forced_shut_envelope_is_a_span_of_the_one_around_it() {
        let (ctx, work, adm, lock) = classes();
        let events = vec![
            ev(0, 0, EventKind::CtxBegin, ctx, 1),
            ev(0, 0, EventKind::SpanBegin, work, 0),
            ev(0, 5, EventKind::CtxBegin, ctx, 2),
            ev(0, 5, EventKind::LockBegin, adm, 11),
            ev(0, 5, EventKind::LockEnd, adm, 0),
            ev(0, 6, EventKind::LockBegin, lock, 3),
            ev(0, 9, EventKind::LockEnd, lock, 0),
            // The work span ends over the inner envelope's head.
            ev(0, 30, EventKind::SpanEnd, work, 0),
            // An envelope closed in order inside the outer one.
            ev(0, 30, EventKind::CtxBegin, ctx, 3),
            ev(0, 31, EventKind::LockBegin, lock, 100),
            ev(0, 39, EventKind::LockEnd, lock, 0),
            ev(0, 40, EventKind::CtxEnd, ctx, 3),
            ev(0, 50, EventKind::CtxEnd, ctx, 1),
        ];
        let f = fold(&events);
        assert_eq!(f.malformed, 1);
        assert_eq!(f.in_flight, 0);
        let ids: Vec<u64> = f.trees.iter().map(|t| t.ctx).collect();
        assert_eq!(ids, [1, 3], "request 2 never closed: it is no tree");
        let outer = RequestCost::of(&f.trees[0]);
        assert_eq!(outer.queue, 11, "inherited from the forced-shut envelope");
        assert_eq!(
            outer.waits["test.why.lock"], 3,
            "request 3's 100 stay its own"
        );
        assert_eq!(outer.slack, 20, "only the work span covers: 50 - 30");
        let kids = f.trees[0].children();
        assert_eq!(kids.len(), 1, "request 3 is not a child of request 1");
        assert_eq!(kids[0].children[0].kind, NodeKind::Span);
        assert_eq!(kids[0].children[0].children.len(), 2);
        assert_eq!(RequestCost::of(&f.trees[1]).waits["test.why.lock"], 100);
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
        let kids = f.trees[0].children();
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].kind, NodeKind::Instant);
        assert_eq!(kids[0].wait, 99);
    }
}
