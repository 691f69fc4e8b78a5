//! Deterministic exemplars: the K slowest complete requests, encoded
//! as whole span trees so a tail regression comes with its own
//! evidence.
//!
//! Selection ranks by latency (slowest first) with a **seeded
//! tie-break**: equal-latency requests are ordered by the splitmix64
//! finalizer [`mix64`]`(seed ^ ctx)`, so the choice among ties is
//! arbitrary but byte-identical across reruns and across track layouts
//! — never "the one whose worker drained first". A plain `(latency, ctx)` order
//! would also be deterministic, but it would bias ties toward low
//! request ids, i.e. toward early arrivals; the seeded hash keeps the
//! exemplar set unbiased while staying reproducible.
//!
//! The fold already priced every request, so ranking reads one number
//! per record and builds nothing; the encoder is what asks a record
//! for its span tree ([`RequestTree::children`]), once per exemplar.
//!
//! The canonical encoding embeds resolved class *names*, never raw
//! interned ids: intern ids depend on registration order, which any
//! refactor can change without changing behavior. Two captures are the
//! same evidence iff [`encode_exemplars`] agrees byte-for-byte.

use crate::fold::{RequestTree, SpanNode};
use pk_fault::mix64;

/// Selects the `k` slowest requests (by accounting-identity latency,
/// admission wait included), seeded tie-break. Returns references in
/// slowest-first order; fewer than `k` when the capture has fewer
/// complete requests.
///
/// The rank is a total order — latency, then the seeded hash, then the
/// request's position in `trees` — so partitioning out the top `k` and
/// sorting only those gives what a stable sort of everything would.
pub fn exemplars<'t, 'a>(
    trees: &'t [RequestTree<'a>],
    k: usize,
    seed: u64,
) -> Vec<&'t RequestTree<'a>> {
    let k = k.min(trees.len());
    if k == 0 {
        return Vec::new();
    }
    let rank = |a: &(u64, usize), b: &(u64, usize)| {
        b.0.cmp(&a.0)
            .then_with(|| mix64(seed ^ trees[a.1].ctx).cmp(&mix64(seed ^ trees[b.1].ctx)))
            .then(a.1.cmp(&b.1))
    };
    let mut keyed: Vec<(u64, usize)> = trees
        .iter()
        .enumerate()
        .map(|(i, t)| (t.latency(), i))
        .collect();
    if k < keyed.len() {
        keyed.select_nth_unstable_by(k - 1, rank);
        keyed.truncate(k);
    }
    keyed.sort_unstable_by(rank);
    keyed.into_iter().map(|(_, i)| &trees[i]).collect()
}

fn encode_node(n: &SpanNode, out: &mut Vec<u8>) {
    out.push(n.kind.tag());
    let name = n.name.as_bytes();
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&n.start.to_le_bytes());
    out.extend_from_slice(&n.end.to_le_bytes());
    out.extend_from_slice(&n.wait.to_le_bytes());
    out.extend_from_slice(&(n.children.len() as u32).to_le_bytes());
    for c in &n.children {
        encode_node(c, out);
    }
}

/// Appends one request's canonical encoding: ctx id, kind name,
/// envelope, then its span tree depth-first. No track ids, no raw
/// class ids.
pub fn encode_tree(t: &RequestTree, out: &mut Vec<u8>) {
    out.extend_from_slice(&t.ctx.to_le_bytes());
    let name = t.kind_name();
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&t.start.to_le_bytes());
    out.extend_from_slice(&t.end.to_le_bytes());
    let children = t.children();
    out.extend_from_slice(&(children.len() as u32).to_le_bytes());
    for c in &children {
        encode_node(c, out);
    }
}

/// The canonical bytes of an exemplar set, in selection order.
pub fn encode_exemplars(trees: &[&RequestTree]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(trees.len() as u32).to_le_bytes());
    for t in trees {
        encode_tree(t, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold;
    use pk_trace::{Event, EventKind};

    /// One request per `(ctx, start, width)`, each on its own track: an
    /// envelope exactly covered by one span of class `span`.
    fn stream(span: &str, requests: &[(u64, u64, u64)]) -> Vec<Event> {
        let ctx_class = pk_trace::REQUEST_CLASS.class_id();
        let span = pk_trace::intern::intern_span(span);
        let mut events = Vec::new();
        for (track, &(ctx, start, width)) in requests.iter().enumerate() {
            for (ts, kind, class, arg) in [
                (start, EventKind::CtxBegin, ctx_class, ctx),
                (start, EventKind::SpanBegin, span, 0),
                (start + width, EventKind::SpanEnd, span, 0),
                (start + width, EventKind::CtxEnd, ctx_class, ctx),
            ] {
                events.push(Event {
                    ts,
                    arg,
                    class,
                    site: 0,
                    track: track as u32,
                    kind,
                });
            }
        }
        events
    }

    #[test]
    fn selects_the_k_slowest_in_order() {
        let events = stream("test.why.w", &[(1, 0, 10), (2, 0, 50), (3, 0, 30)]);
        let trees = fold(&events).trees;
        let ex = exemplars(&trees, 2, 42);
        assert_eq!(
            ex.iter().map(|t| t.ctx).collect::<Vec<_>>(),
            vec![2, 3],
            "slowest first"
        );
        assert_eq!(exemplars(&trees, 10, 42).len(), 3, "k caps at the capture");
        assert!(exemplars(&trees, 0, 42).is_empty());
    }

    #[test]
    fn ties_break_by_seeded_hash_not_arrival_order() {
        let requests: Vec<(u64, u64, u64)> = (1..=8).map(|i| (i, 0, 10)).collect();
        let events = stream("test.why.w", &requests);
        let trees = fold(&events).trees;
        let a: Vec<u64> = exemplars(&trees, 3, 42).iter().map(|t| t.ctx).collect();
        let b: Vec<u64> = exemplars(&trees, 3, 42).iter().map(|t| t.ctx).collect();
        assert_eq!(a, b, "same seed, same set");
        let c: Vec<u64> = exemplars(&trees, 3, 43).iter().map(|t| t.ctx).collect();
        assert_ne!(a, c, "a different seed must be able to pick different ties");
        assert_ne!(a, vec![1, 2, 3], "not simply the lowest ids");
    }

    #[test]
    fn encoding_embeds_names_and_is_injective_on_shape() {
        let enc = |span: &str| {
            let events = stream(span, &[(1, 0, 10)]);
            let mut v = Vec::new();
            encode_tree(&fold(&events).trees[0], &mut v);
            v
        };
        assert_ne!(enc("test.why.w"), enc("test.why.x"));
        assert!(
            enc("test.why.w").windows(10).any(|w| w == b"test.why.w"),
            "names are embedded, not interned ids"
        );
    }
}
