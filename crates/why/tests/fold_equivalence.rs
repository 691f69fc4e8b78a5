//! `fold` prices every request in one pass over plain frames and
//! builds span nodes only when a record is asked for them. This file
//! keeps what it replaced — a fold that resolves the name of every
//! event, compares strings and builds every tree, and a `RequestCost`
//! that walks the tree — as the reference, and checks the two agree on
//! generated streams: well-formed ones (tracks interleaved, envelopes
//! nested in envelopes and closed in order), and ones that break
//! nesting in every way the fold has a rule for (stray ends, ends that
//! skip open frames — envelopes among them — envelopes left open, ends
//! in the wrong namespace).
//!
//! `Profile` folds through the same walk. The profiler's own stack
//! walk, which it replaced, is kept here too, and the two must agree
//! on the same streams wherever their nesting rules do.

use pk_trace::{ClassKey, Event, EventKind};
use pk_why::{
    encode_exemplars, exemplars, fold, ClassTotals, NodeKind, Profile, RequestCost, SpanNode,
    ADMISSION_QUEUE_CLASS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A request as the tree-building fold produced it.
#[derive(Debug, PartialEq)]
struct OracleTree {
    ctx: u64,
    kind_name: Arc<str>,
    start: u64,
    end: u64,
    children: Vec<SpanNode>,
}

#[derive(Default)]
struct OracleFold {
    trees: Vec<OracleTree>,
    in_flight: usize,
    malformed: usize,
}

struct Frame {
    node: SpanNode,
    ctx: Option<u64>,
}

/// The by-name, tree-building fold: one `ClassKey::name()` (table
/// mutex and `String`) per begin and per candidate frame of every end,
/// one heap node per begin and per point event.
fn fold_by_name(events: &[Event]) -> OracleFold {
    let resolve = |e: &Event| ClassKey::of(e).name();
    let matches = |f: &Frame, e: &Event| match e.kind {
        EventKind::CtxEnd => f.ctx == Some(e.arg),
        EventKind::LockEnd => {
            f.ctx.is_none() && f.node.kind == NodeKind::Lock && *f.node.name == *resolve(e)
        }
        EventKind::SpanEnd => {
            f.ctx.is_none() && f.node.kind == NodeKind::Span && *f.node.name == *resolve(e)
        }
        _ => false,
    };
    let leaf = |e: &Event, kind, wait| SpanNode {
        name: resolve(e).into(),
        kind,
        start: e.ts,
        end: e.ts,
        wait,
        children: Vec::new(),
    };

    let mut by_track: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_track.entry(e.track).or_default().push(e);
    }
    let mut out = OracleFold::default();
    for track in by_track.values() {
        let mut stack: Vec<Frame> = Vec::new();
        for &e in track {
            match e.kind {
                EventKind::SpanBegin | EventKind::CtxBegin => stack.push(Frame {
                    node: leaf(e, NodeKind::Span, 0),
                    ctx: (e.kind == EventKind::CtxBegin).then_some(e.arg),
                }),
                EventKind::LockBegin => stack.push(Frame {
                    node: leaf(e, NodeKind::Lock, e.arg),
                    ctx: None,
                }),
                EventKind::SpanEnd | EventKind::LockEnd | EventKind::CtxEnd => {
                    let Some(depth) = stack.iter().rposition(|f| matches(f, e)) else {
                        out.malformed += 1;
                        continue;
                    };
                    out.malformed += stack.len() - depth - 1;
                    while stack.len() > depth + 1 {
                        let mut f = stack.pop().unwrap();
                        f.node.end = e.ts;
                        stack.last_mut().unwrap().node.children.push(f.node);
                    }
                    let mut f = stack.pop().unwrap();
                    f.node.end = e.ts;
                    match (f.ctx, stack.last_mut()) {
                        (Some(ctx), _) => out.trees.push(OracleTree {
                            ctx,
                            kind_name: f.node.name,
                            start: f.node.start,
                            end: f.node.end,
                            children: f.node.children,
                        }),
                        (None, Some(parent)) => parent.node.children.push(f.node),
                        (None, None) => {}
                    }
                }
                EventKind::Instant => {
                    if let Some(top) = stack.last_mut() {
                        top.node.children.push(leaf(e, NodeKind::Instant, e.arg));
                    }
                }
                EventKind::Counter => {
                    if let Some(top) = stack.last_mut() {
                        top.node.children.push(leaf(e, NodeKind::Counter, e.arg));
                    }
                }
            }
        }
        out.in_flight += stack.iter().filter(|f| f.ctx.is_some()).count();
    }
    out.trees.sort_by_key(|t| (t.start, t.ctx));
    out
}

/// A request's cost with its waits keyed by name, as `RequestCost` was
/// when it owned them.
#[derive(Debug, PartialEq)]
struct OracleCost {
    ctx: u64,
    latency: u64,
    queue: u64,
    service: u64,
    slack: u64,
    waits: BTreeMap<String, u64>,
}

impl From<RequestCost<'_>> for OracleCost {
    fn from(c: RequestCost) -> Self {
        Self {
            ctx: c.ctx,
            latency: c.latency,
            queue: c.queue,
            service: c.service,
            slack: c.slack,
            waits: c.waits_by_name(),
        }
    }
}

/// `RequestCost::of` as it stood when it walked the tree.
fn cost_by_walk(tree: &OracleTree) -> OracleCost {
    fn walk(n: &SpanNode, queue: &mut u64, waits: &mut BTreeMap<String, u64>) {
        if n.kind == NodeKind::Lock {
            if &*n.name == ADMISSION_QUEUE_CLASS {
                *queue += n.wait;
            } else {
                *waits.entry(n.name.to_string()).or_default() += n.wait;
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
    let envelope = tree.end - tree.start;
    let wait_sum: u64 = waits.values().sum();
    OracleCost {
        ctx: tree.ctx,
        latency: queue + envelope,
        queue,
        service: covered.saturating_sub(wait_sum),
        slack: envelope.saturating_sub(covered),
        waits,
    }
}

/// `exemplars` + `encode_exemplars` as they stood: price every tree,
/// stable-sort all of them (ties by `pk_fault::mix64`, as `pk-why`
/// ranks them), keep `k`, encode the nodes already built.
fn exemplar_bytes_by_sort(trees: &[OracleTree], k: usize, seed: u64) -> Vec<u8> {
    fn encode_node(n: &SpanNode, out: &mut Vec<u8>) {
        out.push(match n.kind {
            NodeKind::Span => 0,
            NodeKind::Lock => 1,
            NodeKind::Instant => 2,
            NodeKind::Counter => 3,
        });
        out.extend_from_slice(&(n.name.len() as u16).to_le_bytes());
        out.extend_from_slice(n.name.as_bytes());
        out.extend_from_slice(&n.start.to_le_bytes());
        out.extend_from_slice(&n.end.to_le_bytes());
        out.extend_from_slice(&n.wait.to_le_bytes());
        out.extend_from_slice(&(n.children.len() as u32).to_le_bytes());
        for c in &n.children {
            encode_node(c, out);
        }
    }
    let mut keyed: Vec<(u64, u64, &OracleTree)> = trees
        .iter()
        .map(|t| (cost_by_walk(t).latency, pk_fault::mix64(seed ^ t.ctx), t))
        .collect();
    keyed.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    keyed.truncate(k);
    let mut out = (keyed.len() as u32).to_le_bytes().to_vec();
    for (_, _, t) in keyed {
        out.extend_from_slice(&t.ctx.to_le_bytes());
        out.extend_from_slice(&(t.kind_name.len() as u16).to_le_bytes());
        out.extend_from_slice(t.kind_name.as_bytes());
        out.extend_from_slice(&t.start.to_le_bytes());
        out.extend_from_slice(&t.end.to_le_bytes());
        out.extend_from_slice(&(t.children.len() as u32).to_le_bytes());
        for c in &t.children {
            encode_node(c, &mut out);
        }
    }
    out
}

/// `Profile::build` as it stood, with a stack walk of its own: an end
/// closes the innermost open frame of its class key, whatever kind of
/// frame that is — an envelope's `CtxEnd` by class, not by id.
fn profile_by_stack_walk(events: &[Event]) -> (Vec<ClassTotals>, u64) {
    struct Frame {
        key: ClassKey,
        begin: u64,
        children: u64,
    }
    #[derive(Default)]
    struct TrackState {
        stack: Vec<Frame>,
        last_ts: u64,
    }
    fn sat(acc: &mut u64, delta: u64) {
        *acc = acc.saturating_add(delta);
    }

    let mut tracks: BTreeMap<u32, TrackState> = BTreeMap::new();
    let mut flat: BTreeMap<ClassKey, (u64, u64, u64)> = BTreeMap::new();
    let mut total_cycles = 0u64;

    let mut close =
        |state: &mut TrackState, flat: &mut BTreeMap<ClassKey, (u64, u64, u64)>, ts: u64| {
            let frame = state.stack.pop().expect("caller checked non-empty");
            let inclusive = ts.saturating_sub(frame.begin);
            let exclusive = inclusive.saturating_sub(frame.children);
            let entry = flat.entry(frame.key).or_default();
            sat(&mut entry.0, 1);
            sat(&mut entry.1, inclusive);
            sat(&mut entry.2, exclusive);
            match state.stack.last_mut() {
                Some(parent) => sat(&mut parent.children, inclusive),
                None => sat(&mut total_cycles, inclusive),
            }
        };

    for e in events {
        let state = tracks.entry(e.track).or_default();
        state.last_ts = state.last_ts.max(e.ts);
        let key = ClassKey::of(e);
        match e.kind {
            EventKind::SpanBegin | EventKind::LockBegin | EventKind::CtxBegin => {
                state.stack.push(Frame {
                    key,
                    begin: e.ts,
                    children: 0,
                })
            }
            EventKind::SpanEnd | EventKind::LockEnd | EventKind::CtxEnd => {
                if state.stack.iter().any(|f| f.key == key) {
                    while state.stack.last().map(|f| f.key) != Some(key) {
                        close(state, &mut flat, e.ts);
                    }
                    close(state, &mut flat, e.ts);
                }
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    for state in tracks.values_mut() {
        let ts = state.last_ts;
        while !state.stack.is_empty() {
            close(state, &mut flat, ts);
        }
    }

    let mut totals: Vec<ClassTotals> = flat
        .into_iter()
        .map(|(k, (count, inclusive, exclusive))| ClassTotals {
            name: k.name(),
            count,
            inclusive,
            exclusive,
        })
        .collect();
    totals.sort_by(|a, b| b.exclusive.cmp(&a.exclusive).then(a.name.cmp(&b.name)));
    (totals, total_cycles)
}

/// `events` less every end the two profilers' nesting rules would
/// match differently: the reference closes the innermost frame of the
/// end's class key, `walk` the innermost envelope of a `CtxEnd`'s id,
/// or the innermost frame of a span or lock end's key that is not an
/// envelope. Every end kept closes the same frame under both, so a
/// stream stays as ragged as both read alike — stray ends, frames
/// force-closed, frames left open.
fn ends_both_rules_match_alike(events: &[Event]) -> Vec<Event> {
    let mut open: BTreeMap<u32, Vec<(ClassKey, Option<u64>)>> = BTreeMap::new();
    let mut kept = Vec::with_capacity(events.len());
    for e in events {
        let stack = open.entry(e.track).or_default();
        let key = ClassKey::of(e);
        if e.kind.is_begin() {
            stack.push((key, (e.kind == EventKind::CtxBegin).then_some(e.arg)));
        } else if e.kind.is_end() {
            let by_key = stack.iter().rposition(|f| f.0 == key);
            let by_walk = stack.iter().rposition(|f| match e.kind {
                EventKind::CtxEnd => f.1 == Some(e.arg),
                _ => f.1.is_none() && f.0 == key,
            });
            if by_key != by_walk {
                continue;
            }
            if let Some(depth) = by_key {
                stack.truncate(depth);
            }
        }
        kept.push(*e);
    }
    kept
}

/// Class ids to draw from, per namespace: two registered names — one
/// of them spelled the same in both namespaces, so only the namespace
/// tells a span end from a lock end — two ids neither table knows
/// (placeholder names; the second is past `ClassNames`' dense range),
/// and the admission class, which is the *queue* term as a lock and
/// nothing special as a span.
fn class_pools() -> ([u32; 5], [u32; 5]) {
    let spin = pk_lockdep::LockKind::Spin;
    (
        [
            pk_trace::intern::intern_span("test.why.eq.shared"),
            pk_trace::intern::intern_span("test.why.eq.span"),
            0,
            3_000_000_000,
            pk_trace::intern::intern_span(ADMISSION_QUEUE_CLASS),
        ],
        [
            pk_lockdep::register_class("test.why.eq.shared", "pk-why", spin).raw(),
            pk_lockdep::register_class("test.why.eq.lock", "pk-why", spin).raw(),
            0,
            3_000_000_001,
            pk_lockdep::register_class(ADMISSION_QUEUE_CLASS, "pk-why", spin).raw(),
        ],
    )
}

/// Turns generated `(track, op, class, ctx)` tuples into a stream.
/// Ops open a span / lock / envelope, emit a point event, or close the
/// innermost open frame properly. Op 10 is a whole envelope holding
/// one lock, opened and closed in order wherever the track stands —
/// inside another envelope, it is its own request. With `broken` set,
/// op 5 instead closes the *second* innermost frame (force-closing the
/// one above), op 6 emits an end that matches only by accident, and
/// op 11 opens a span, opens an envelope holding one lock inside it,
/// and ends the span over the envelope's head.
fn stream(ops: &[(u32, u8, usize, u64)], broken: bool) -> Vec<Event> {
    let (spans, locks) = class_pools();
    let mut open: BTreeMap<u32, Vec<(EventKind, u32, u64)>> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::with_capacity(ops.len());
    for &(track, op, class, ctx) in ops {
        let mut emit = |kind, class, arg| {
            events.push(Event {
                ts: events.len() as u64 * 3,
                arg,
                class,
                site: 0,
                track,
                kind,
            })
        };
        let lock = locks[(class + 1) % locks.len()];
        let stack = open.entry(track).or_default();
        let (kind, class, arg) = match op {
            0 => (EventKind::SpanBegin, spans[class], 0),
            1 => (EventKind::LockBegin, locks[class], ctx * 7),
            2 => (EventKind::CtxBegin, spans[class], ctx),
            3 => (EventKind::Instant, spans[class], ctx),
            4 => (EventKind::Counter, spans[class], ctx),
            5 if broken && stack.len() >= 2 => stack.remove(stack.len() - 2),
            6 if broken => (
                [EventKind::SpanEnd, EventKind::LockEnd, EventKind::CtxEnd][class % 3],
                spans[class],
                ctx,
            ),
            10 => {
                emit(EventKind::CtxBegin, spans[class], ctx + 10);
                emit(EventKind::LockBegin, lock, ctx * 5 + 1);
                emit(EventKind::LockEnd, lock, 0);
                emit(EventKind::CtxEnd, spans[class], ctx + 10);
                continue;
            }
            11 if broken => {
                emit(EventKind::SpanBegin, spans[class], 0);
                emit(EventKind::CtxBegin, spans[class], ctx + 20);
                emit(EventKind::LockBegin, lock, ctx * 5 + 2);
                emit(EventKind::LockEnd, lock, 0);
                emit(EventKind::SpanEnd, spans[class], 0);
                continue;
            }
            _ => match stack.last() {
                Some(&top) => top,
                None => continue,
            },
        };
        if kind.is_begin() {
            let end = EventKind::from_u8(kind as u8 + 1).expect("every begin has its end");
            stack.push((
                end,
                class,
                if kind == EventKind::CtxBegin { arg } else { 0 },
            ));
        } else if stack.last() == Some(&(kind, class, arg)) {
            stack.pop();
        }
        emit(kind, class, arg);
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pricing_fold_equals_tree_fold(
        ops in proptest::collection::vec((0u32..3, 0u8..12, 0usize..5, 0u64..3), 1..120),
        broken in prop::bool::ANY,
    ) {
        let events = stream(&ops, broken);
        let (new, old) = (fold(&events), fold_by_name(&events));
        prop_assert_eq!(new.trees.len(), old.trees.len());
        for (t, o) in new.trees.iter().zip(&old.trees) {
            let materialised = OracleTree {
                ctx: t.ctx,
                kind_name: t.kind_name().into(),
                start: t.start,
                end: t.end,
                children: t.children(),
            };
            prop_assert_eq!(&materialised, o);
            prop_assert_eq!(OracleCost::from(RequestCost::of(t)), cost_by_walk(o));
        }
        prop_assert_eq!(new.in_flight, old.in_flight);
        prop_assert_eq!(new.malformed, old.malformed);
        if !broken {
            prop_assert_eq!(new.malformed, 0, "the generator's well-formed half is well-formed");
            prop_assert_eq!(new.trees.capacity(), new.trees.len(), "sized once, exactly");
        }
        let n = new.trees.len();
        for k in [0, 1, 4, n, n + 5] {
            prop_assert_eq!(
                encode_exemplars(&exemplars(&new.trees, k, 42)),
                exemplar_bytes_by_sort(&old.trees, k, 42),
                "k = {}", k
            );
        }
    }

    /// With `huge`, timestamps scale toward `u64::MAX` (saturating), so
    /// widths and their sums pin at the ceiling.
    #[test]
    fn profile_equals_the_stack_walk_it_replaced(
        ops in proptest::collection::vec((0u32..3, 0u8..12, 0usize..5, 0u64..3), 1..120),
        broken in prop::bool::ANY,
        huge in prop::bool::ANY,
    ) {
        let scale = if huge { u64::MAX / 64 } else { 1 };
        let mut events = stream(&ops, broken);
        for e in &mut events {
            e.ts = e.ts.saturating_mul(scale);
        }
        let kept = ends_both_rules_match_alike(&events);
        if !broken {
            prop_assert_eq!(kept.len(), events.len(), "well-formed ends match alike");
        }
        let (totals, total_cycles) = profile_by_stack_walk(&kept);
        let p = Profile::build(&kept);
        prop_assert_eq!(p.totals(), &totals[..]);
        prop_assert_eq!(p.total_cycles, total_cycles);
    }
}
