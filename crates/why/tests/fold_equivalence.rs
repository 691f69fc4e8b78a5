//! `fold` matches ends to begins by `(namespace, class id)` and takes
//! each name from a per-fold cache. This file keeps the matcher it
//! replaced — resolve the name of every event, compare strings — as
//! the reference, and checks the two agree on generated streams:
//! well-formed ones, and ones that break nesting in every way the
//! fold has a rule for (stray ends, ends that skip open frames,
//! envelopes left open, ends in the wrong namespace).

use pk_trace::{ClassKey, Event, EventKind};
use pk_why::{encode_exemplars, exemplars, fold, FoldOutput, NodeKind, RequestTree, SpanNode};
use proptest::prelude::*;
use std::collections::BTreeMap;

struct Frame {
    node: SpanNode,
    ctx: Option<u64>,
}

/// The by-name fold, as it stood before ids were compared: one
/// `ClassKey::name()` (table mutex + `String`) per begin and per
/// candidate frame of every end.
fn fold_by_name(events: &[Event]) -> FoldOutput {
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
    let mut out = FoldOutput::default();
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
                        (Some(ctx), _) => out.trees.push(RequestTree {
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

/// Class ids to draw from, per namespace: two registered names — one
/// of them spelled the same in both namespaces, so only the namespace
/// tells a span end from a lock end — and two ids neither table knows
/// (placeholder names; the second is past `ClassNames`' dense range).
fn class_pools() -> ([u32; 4], [u32; 4]) {
    let spin = pk_lockdep::LockKind::Spin;
    (
        [
            pk_trace::intern::intern_span("test.why.eq.shared"),
            pk_trace::intern::intern_span("test.why.eq.span"),
            0,
            3_000_000_000,
        ],
        [
            pk_lockdep::register_class("test.why.eq.shared", "pk-why", spin).raw(),
            pk_lockdep::register_class("test.why.eq.lock", "pk-why", spin).raw(),
            0,
            3_000_000_001,
        ],
    )
}

/// Turns generated `(track, op, class, ctx)` tuples into a stream.
/// Ops open a span / lock / envelope, emit a point event, or close the
/// innermost open frame properly; with `broken` set, two of the close
/// ops instead close the *second* innermost frame (force-closing the
/// one above) and emit an end that matches only by accident.
fn stream(ops: &[(u32, u8, usize, u64)], broken: bool) -> Vec<Event> {
    let (spans, locks) = class_pools();
    let mut open: BTreeMap<u32, Vec<(EventKind, u32, u64)>> = BTreeMap::new();
    let mut events = Vec::with_capacity(ops.len());
    for (i, &(track, op, class, ctx)) in ops.iter().enumerate() {
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
        events.push(Event {
            ts: i as u64 * 3,
            arg,
            class,
            site: 0,
            track,
            kind,
        });
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fold_by_id_equals_fold_by_name(
        ops in proptest::collection::vec((0u32..3, 0u8..10, 0usize..4, 0u64..3), 1..120),
        broken in prop::bool::ANY,
    ) {
        let events = stream(&ops, broken);
        let (new, old) = (fold(&events), fold_by_name(&events));
        prop_assert_eq!(&new.trees, &old.trees);
        prop_assert_eq!(new.in_flight, old.in_flight);
        prop_assert_eq!(new.malformed, old.malformed);
        if !broken {
            prop_assert_eq!(new.malformed, 0, "the generator's well-formed half is well-formed");
        }
        prop_assert_eq!(
            encode_exemplars(&exemplars(&new.trees, 4, 42)),
            encode_exemplars(&exemplars(&old.trees, 4, 42))
        );
    }
}
