//! Folding a drained event stream, per track, through one stack walk
//! ([`walk`]): into priced per-request records ([`fold`]) and into flat
//! per-class cycle totals ([`Profile`]).
//!
//! The request fold's unit of output is the *request*: every
//! `CtxBegin`/`CtxEnd` envelope that closes inside the stream becomes
//! one [`RequestTree`]; envelopes still open at the end of the stream
//! (requests in flight at the horizon) are counted and discarded — a
//! partial record would misprice every term of the accounting identity.
//!
//! It is a *pricing pass*: the walk keeps plain-old-data frames and one
//! accumulator per open envelope, and a closing envelope emits a record
//! holding the identity's terms plus the envelope's own events. No span
//! node is built; [`RequestTree::children`] replays one record's events
//! through the same walk to build its span tree, and only the exemplar
//! encoder asks for that. The nesting rules live in [`walk`] alone —
//! pricing, node building and profiling are three [`Sink`]s under it.
//!
//! Track layout is erased: what a record prices and materialises
//! carries no track id and the output is sorted by `(start, ctx)`, so
//! renumbering workers or migrating a request's events to a different
//! track (with per-track order preserved) cannot change a byte of it.

use pk_trace::{ClassKey, ClassNames, Event, EventKind, ADMISSION_CLASS};
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
}

impl NodeKind {
    /// Canonical one-byte tag for the exemplar encoding.
    pub(crate) fn tag(self) -> u8 {
        match self {
            NodeKind::Span => 0,
            NodeKind::Lock => 1,
            NodeKind::Instant => 2,
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
    /// Lock: cycles waited to acquire. Instant: the payload.
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
///
/// A record holds class *ids*, as its events do; names are resolved
/// only where bytes leave the crate ([`Self::kind_name`],
/// [`RequestCost::waits_by_name`], [`crate::attribute`]).
#[derive(Debug, Clone)]
pub struct RequestTree<'a> {
    /// The deterministic request id (`pk_trace::request_id`).
    pub ctx: u64,
    /// Envelope open (dispatch time in the flow engine).
    pub start: u64,
    /// Envelope close (completion).
    pub end: u64,
    /// Σ admission-queue lock waits anywhere under the envelope.
    queue: u64,
    /// Σ widths of the envelope's top-level spans and lock holds.
    covered: u64,
    /// `(lock class id, Σ wait)` per other lock class seen under the
    /// envelope (a class acquired without waiting is listed with 0), in
    /// first-seen order: the pricer's accumulator, copied at its length.
    waits: Box<[(u32, u64)]>,
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

    /// Resolved name of the context class (`serve.request`), read off
    /// the envelope's `CtxBegin`. It takes the span table's mutex and
    /// allocates: the exemplar encoder calls it once per exemplar.
    pub fn kind_name(&self) -> String {
        ClassKey::of(&self.events[0]).name()
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
            EventKind::Instant => {
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
        let admission = ClassKey::Lock(class).name() == ADMISSION_CLASS.name();
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
                    start: f.start,
                    end,
                    queue: inner.queue,
                    covered: inner.covered,
                    waits: inner.waits.as_slice().into(),
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
            kind: NodeKind::Instant,
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
/// Per event the walk takes no lock and allocates nothing; each lock
/// class name is resolved once per fold, to tell the admission class
/// apart, and a record costs one allocation, its wait list. The record
/// vector is allocated once: every record closes at a `CtxEnd`, so
/// their count bounds it, exactly on a well-formed stream.
pub fn fold(events: &[Event]) -> FoldOutput<'_> {
    let ends = events
        .iter()
        .filter(|e| e.kind == EventKind::CtxEnd)
        .count();
    by_track(
        events,
        |tracks| price(tracks, ends, Cow::Borrowed),
        |tracks| price(tracks, ends, |own| Cow::Owned(own.to_vec())),
    )
}

/// A stream's track groups, in stream order, for as long as their ids
/// ascend — the layout a drain leaves. A group whose id is not above the
/// one before it (a track that repeats, as in an interleaved stream, or
/// any other layout a drain never leaves) ends the iteration and marks
/// the stream for regrouping.
struct Tracks<'t> {
    groups: std::slice::ChunkBy<'t, Event, fn(&Event, &Event) -> bool>,
    last: Option<u32>,
    repeated: bool,
}

impl<'t> Tracks<'t> {
    fn new(events: &'t [Event]) -> Self {
        Self {
            groups: events.chunk_by(|a, b| a.track == b.track),
            last: None,
            repeated: false,
        }
    }
}

impl<'t> Iterator for Tracks<'t> {
    type Item = &'t [Event];

    fn next(&mut self) -> Option<&'t [Event]> {
        let group = self.groups.next()?;
        let track = group[0].track;
        if self.last.is_some_and(|last| track <= last) {
            self.repeated = true;
            return None;
        }
        self.last = Some(track);
        Some(group)
    }
}

/// The one grouping rule of both folds: each track is walked on its
/// own, in ascending track order. A drained stream is already laid out
/// that way, so `in_place` walks its groups in the same pass that finds
/// them, and what it returns may borrow from `events`. Only when the ids
/// stop ascending is that result thrown away and `regrouped` run over a
/// stably sorted copy (each track's stream order survives).
fn by_track<'e, R>(
    events: &'e [Event],
    in_place: impl FnOnce(&mut Tracks<'e>) -> R,
    regrouped: impl FnOnce(&mut Tracks<'_>) -> R,
) -> R {
    let mut tracks = Tracks::new(events);
    let out = in_place(&mut tracks);
    if !tracks.repeated {
        return out;
    }
    drop(out);
    let mut grouped = events.to_vec();
    grouped.sort_by_key(|e| e.track);
    regrouped(&mut Tracks::new(&grouped))
}

/// Prices every track into records; `ends` (the stream's `CtxEnd`
/// count) sizes the record vector.
fn price<'t, 'a>(
    tracks: &mut Tracks<'t>,
    ends: usize,
    keep: impl Fn(&'t [Event]) -> Cow<'a, [Event]>,
) -> FoldOutput<'a> {
    let mut pricer = Pricer {
        keep,
        lock_classes: Vec::new(),
        accumulators: Vec::new(),
        depth: 0,
        trees: Vec::with_capacity(ends),
    };
    let (mut malformed, mut in_flight) = (0, 0);
    for track in tracks {
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
///
/// A cost borrows its record's wait list rather than copying it: it is
/// a view of the [`RequestTree`] it was priced from, and lives no longer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestCost<'t> {
    /// The request id.
    pub ctx: u64,
    /// End-to-end latency: admission wait + envelope width. This is
    /// the same number the engine's latency histogram recorded.
    pub latency: u64,
    /// Cycles queued at admission ([`ADMISSION_CLASS`]) — the
    /// *queue* term, deliberately not part of the lock-class waits.
    pub queue: u64,
    /// Cycles doing work: envelope covered by spans, minus lock waits.
    pub service: u64,
    /// Envelope cycles covered by no top-level span — zero in the DES
    /// flow engine (its spans are contiguous), possibly positive for
    /// functional drivers with untraced gaps.
    pub slack: u64,
    /// `(lock class id, cycles waited)`, admission excluded, one entry
    /// per class in first-seen order: the record's own list.
    pub(crate) waits: &'t [(u32, u64)],
}

impl<'t> RequestCost<'t> {
    /// The identity's terms for one request, from what the fold priced.
    pub fn of(tree: &'t RequestTree<'_>) -> Self {
        let wait_sum: u64 = tree.waits.iter().map(|w| w.1).sum();
        Self {
            ctx: tree.ctx,
            latency: tree.latency(),
            queue: tree.queue,
            service: tree.covered.saturating_sub(wait_sum),
            slack: tree.envelope().saturating_sub(tree.covered),
            waits: &tree.waits,
        }
    }

    /// Σ lock-class waits (admission excluded).
    pub fn wait_total(&self) -> u64 {
        self.waits.iter().map(|w| w.1).sum()
    }

    /// Cycles waited per lock class, admission excluded, keyed by
    /// resolved class name — the shared `pk-lockdep` vocabulary. It
    /// resolves every class it lists, so it is for inspecting a few
    /// costs, not for pooling many: [`crate::attribute`] pools by id.
    pub fn waits_by_name(&self) -> BTreeMap<String, u64> {
        self.waits
            .iter()
            .map(|&(class, wait)| (ClassKey::Lock(class).name(), wait))
            .collect()
    }
}

/// One class's row of a [`Profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassTotals {
    /// Resolved class name.
    pub name: String,
    /// Spans of this class that closed.
    pub count: u64,
    /// Σ (end − begin).
    pub inclusive: u64,
    /// Σ (end − begin − children), the "self time".
    pub exclusive: u64,
}

/// Flat per-class cycle totals of one capture window — the paper's "X%
/// of cycles in function Y" tables (§4). A span's *inclusive* cycles
/// are end − begin; its *exclusive* cycles are that less the inclusive
/// cycles of its direct children, a sampling profiler's self time.
/// Envelopes fold like any span; instant events carry no cycles.
#[derive(Debug, Clone)]
pub struct Profile {
    totals: Vec<ClassTotals>,
    /// Σ inclusive cycles of root spans: the denominator for "% of
    /// cycles".
    pub total_cycles: u64,
}

impl Profile {
    /// Folds a drained stream (any track interleaving; per-track order
    /// is what matters) under the request fold's nesting rules: an end
    /// closes the innermost open frame of its class key — a `CtxEnd`,
    /// the innermost envelope of its id — and force-closes the frames
    /// above it at its timestamp; an end that matches nothing is
    /// ignored. Frames still open at the end of a track close at the
    /// track's last timestamp.
    ///
    /// Every sum saturates: the stream may be external and ragged, and
    /// a 1024-track soak can push cycle sums toward `u64::MAX`, so a
    /// total pins at the ceiling rather than wrapping (or panicking in
    /// a debug build) and every derived percentage stays finite.
    pub fn build(events: &[Event]) -> Profile {
        let sink = by_track(events, ClassSink::fold, ClassSink::fold);
        let mut totals: Vec<ClassTotals> = sink
            .flat
            .into_iter()
            .map(|(key, (count, inclusive, exclusive))| ClassTotals {
                name: key.name(),
                count,
                inclusive,
                exclusive,
            })
            .collect();
        totals.sort_by(|a, b| b.exclusive.cmp(&a.exclusive).then(a.name.cmp(&b.name)));
        Profile {
            totals,
            total_cycles: sink.total,
        }
    }

    /// Per-class totals, ranked by exclusive cycles (descending).
    pub fn totals(&self) -> &[ClassTotals] {
        &self.totals
    }

    /// The top `n` classes by exclusive cycles.
    pub fn top_exclusive(&self, n: usize) -> &[ClassTotals] {
        &self.totals[..n.min(self.totals.len())]
    }
}

/// The profiling sink: per-class `(count, inclusive, exclusive)`, each
/// open frame carrying the Σ inclusive cycles of its closed children.
#[derive(Default)]
struct ClassSink {
    /// `(class, start, Σ children)` per open frame, innermost last.
    open: Vec<(ClassKey, u64, u64)>,
    flat: BTreeMap<ClassKey, (u64, u64, u64)>,
    /// Σ inclusive cycles of root frames.
    total: u64,
}

impl ClassSink {
    /// Walks every track into one sink.
    fn fold(tracks: &mut Tracks) -> Self {
        let mut sink = Self::default();
        for track in tracks {
            walk(track, &mut sink);
            if !sink.open.is_empty() {
                let last = track.iter().map(|e| e.ts).max().unwrap_or(0);
                while !sink.open.is_empty() {
                    sink.shut(last);
                }
            }
        }
        sink
    }

    /// Closes the innermost open frame at `end`.
    fn shut(&mut self, end: u64) {
        let (key, start, children) = self.open.pop().expect("one entry per open frame");
        let inclusive = end.saturating_sub(start);
        let (count, incl, excl) = self.flat.entry(key).or_default();
        *count = count.saturating_add(1);
        *incl = incl.saturating_add(inclusive);
        *excl = excl.saturating_add(inclusive.saturating_sub(children));
        let parent = match self.open.last_mut() {
            Some(parent) => &mut parent.2,
            None => &mut self.total,
        };
        *parent = parent.saturating_add(inclusive);
    }
}

impl Sink<'_> for ClassSink {
    fn open(&mut self, f: &Frame) {
        self.open.push((f.key, f.start, 0));
    }

    fn point(&mut self, _: &Event) {}

    fn close(&mut self, _: &Frame, _: Option<&Frame>, end: u64, _: Option<&[Event]>) {
        self.shut(end);
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
            track,
            kind,
        }
    }

    fn classes() -> (u32, u32, u32, u32) {
        let ctx = pk_trace::REQUEST_CLASS.class_id();
        let work = pk_trace::intern::intern_span("test.why.work");
        let adm = ADMISSION_CLASS.id().raw();
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
    fn shapes<'f>(f: &'f FoldOutput) -> Vec<(Vec<u8>, RequestCost<'f>)> {
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
        assert_eq!(c.waits_by_name()["test.why.lock"], 30);
        assert_eq!(c.slack, 0);
        assert_eq!(
            c.latency,
            c.queue + c.service + c.wait_total() + c.slack,
            "the identity must be exact"
        );
    }

    #[test]
    fn the_record_vector_is_sized_once_to_its_records() {
        let mut events: Vec<Event> = (0..5).flat_map(|r| one_request(0, r, 100 * r)).collect();
        events.extend((5..12).flat_map(|r| one_request(1, r, 100 * r)));
        let f = fold(&events);
        assert_eq!(f.trees.len(), 12);
        assert_eq!(f.trees.capacity(), f.trees.len(), "no doubling slack");
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
            outer.waits_by_name()["test.why.lock"],
            3,
            "request 3's 100 stay its own"
        );
        assert_eq!(outer.slack, 20, "only the work span covers: 50 - 30");
        let kids = f.trees[0].children();
        assert_eq!(kids.len(), 1, "request 3 is not a child of request 1");
        assert_eq!(kids[0].children[0].kind, NodeKind::Span);
        assert_eq!(kids[0].children[0].children.len(), 2);
        assert_eq!(
            RequestCost::of(&f.trees[1]).waits_by_name()["test.why.lock"],
            100
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
        let kids = f.trees[0].children();
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].kind, NodeKind::Instant);
        assert_eq!(kids[0].wait, 99);
    }

    fn class<'p>(p: &'p Profile, name: &str) -> &'p ClassTotals {
        let found = p.totals().iter().find(|t| t.name == name);
        found.unwrap_or_else(|| panic!("missing {name}"))
    }

    #[test]
    fn profile_folds_inclusive_and_exclusive_cycles() {
        let outer = pk_trace::intern::intern_span("test.profile.outer");
        let inner = pk_trace::intern::intern_span("test.profile.inner");
        let events = vec![
            ev(0, 0, EventKind::SpanBegin, outer, 0),
            ev(0, 10, EventKind::SpanBegin, inner, 0),
            ev(0, 30, EventKind::SpanEnd, inner, 0),
            ev(0, 50, EventKind::SpanEnd, outer, 0),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, 50);
        let o = class(&p, "test.profile.outer");
        assert_eq!((o.inclusive, o.exclusive, o.count), (50, 30, 1));
        let i = class(&p, "test.profile.inner");
        assert_eq!((i.inclusive, i.exclusive, i.count), (20, 20, 1));
        assert_eq!(p.top_exclusive(1)[0], *o, "ranked by self time");
    }

    #[test]
    fn profile_tracks_fold_independently_and_sum() {
        let c = pk_trace::intern::intern_span("test.profile.pertrack");
        let interleaved = vec![
            ev(0, 0, EventKind::SpanBegin, c, 0),
            ev(1, 5, EventKind::SpanBegin, c, 0),
            ev(0, 10, EventKind::SpanEnd, c, 0),
            ev(1, 25, EventKind::SpanEnd, c, 0),
        ];
        // The same stream as a drain lays it out, and with its tracks
        // swapped: one profile, however the tracks were grouped.
        let mut grouped = interleaved.clone();
        grouped.sort_by_key(|e| e.track);
        let mut descending = grouped.clone();
        descending.sort_by_key(|e| std::cmp::Reverse(e.track));
        for events in [interleaved, grouped, descending] {
            let p = Profile::build(&events);
            assert_eq!(p.total_cycles, 30);
            let t = &p.totals()[0];
            assert_eq!((t.count, t.inclusive), (2, 30));
        }
    }

    #[test]
    fn profile_closes_ragged_streams() {
        let a = pk_trace::intern::intern_span("test.profile.ragged.a");
        let b = pk_trace::intern::intern_span("test.profile.ragged.b");
        let events = vec![
            ev(0, 0, EventKind::SpanEnd, b, 0), // unmatched end: ignored
            ev(0, 1, EventKind::SpanBegin, a, 0),
            ev(0, 3, EventKind::SpanBegin, b, 0),
            ev(0, 9, EventKind::SpanEnd, a, 0), // closes b at 9, then a
            ev(0, 12, EventKind::SpanBegin, b, 0), // left open: closed at 12
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, 8);
        let a = class(&p, "test.profile.ragged.a");
        assert_eq!((a.count, a.inclusive, a.exclusive), (1, 8, 2));
        let b = class(&p, "test.profile.ragged.b");
        assert_eq!((b.count, b.inclusive, b.exclusive), (2, 6, 6));
    }

    #[test]
    fn profile_totals_saturate_instead_of_wrapping() {
        // Two back-to-back spans whose inclusive cycles sum past
        // u64::MAX. A wrapping fold would report a tiny total (2 +
        // wrap) and every percentage would be garbage; the saturating
        // fold pins class totals and the denominator at the ceiling.
        let c = pk_trace::intern::intern_span("test.profile.saturate");
        let events = vec![
            ev(0, 0, EventKind::SpanBegin, c, 0),
            ev(0, u64::MAX - 1, EventKind::SpanEnd, c, 0),
            ev(0, 0, EventKind::SpanBegin, c, 0),
            ev(0, u64::MAX - 1, EventKind::SpanEnd, c, 0),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, u64::MAX);
        let t = &p.totals()[0];
        assert_eq!((t.count, t.inclusive, t.exclusive), (2, u64::MAX, u64::MAX));
    }

    #[test]
    fn profile_resolves_lock_events_through_the_lockdep_registry() {
        let id = pk_lockdep::register_class(
            "test.profile.lockname",
            "pk-why",
            pk_lockdep::LockKind::Spin,
        );
        let events = vec![
            ev(0, 0, EventKind::LockBegin, id.raw(), 0),
            ev(0, 7, EventKind::LockEnd, id.raw(), 0),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.totals()[0].name, "test.profile.lockname");
        assert_eq!(p.totals()[0].inclusive, 7);
    }

    /// The profile nests by [`walk`]'s rules: a `CtxEnd` closes the
    /// envelope with its id, whatever envelopes of its class are open
    /// above it, and a span end never closes an envelope.
    #[test]
    fn profile_closes_envelopes_by_id() {
        let (ctx, ..) = classes();
        let events = vec![
            ev(0, 0, EventKind::CtxBegin, ctx, 1),
            ev(0, 10, EventKind::CtxBegin, ctx, 2),
            // Closes envelope 1, forcing 2 shut at the same timestamp.
            ev(0, 30, EventKind::CtxEnd, ctx, 1),
            ev(0, 40, EventKind::CtxBegin, ctx, 3),
            // The envelope's class, but a span end: it matches nothing.
            ev(0, 50, EventKind::SpanEnd, ctx, 0),
            ev(0, 60, EventKind::CtxEnd, ctx, 3),
        ];
        let p = Profile::build(&events);
        // 1 = [0, 30] around 2 = [10, 30], then 3 = [40, 60].
        let r = &p.totals()[0];
        assert_eq!((r.count, r.inclusive, r.exclusive), (3, 70, 50));
        assert_eq!(p.total_cycles, 50);
    }

    #[test]
    fn a_traced_des_run_profiles_its_contended_lock() {
        let mut net = pk_sim::Network::new();
        net.push(pk_sim::Station::delay("trace-u", 4_000.0, false));
        net.push(pk_sim::Station::spinlock("trace-lock", 1_000.0, 0.3, true));
        let tracer = pk_trace::Tracer::new(8, 1 << 16);
        let plane = pk_fault::FaultPlane::disabled();
        pk_sim::des::simulate_traced(&net, 8, 1_000, 17, &plane, Some(&tracer));
        assert_eq!(tracer.dropped(), 0, "ring sized for the whole run");

        let profile = Profile::build(&tracer.drain());
        assert!(profile.total_cycles > 0);
        let names: Vec<&str> = profile.totals().iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"trace-lock"), "{names:?}");
        assert!(names.contains(&"trace-lock (wait)"), "contention queued");
        assert!(names.contains(&"des.op"));
        // The contended lock's hold + wait cycles dominate the delay
        // station's self time at this load.
        let lock: u64 = profile
            .totals()
            .iter()
            .filter(|t| t.name.contains("trace-lock"))
            .map(|t| t.exclusive)
            .sum();
        let lock_share = lock as f64 / profile.total_cycles as f64;
        assert!(lock_share > 0.1, "lock_share={lock_share}");
    }
}
