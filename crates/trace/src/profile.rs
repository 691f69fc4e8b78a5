//! Post-hoc cycle attribution: folds a drained event stream into flat
//! per-class inclusive/exclusive cycle totals — the paper's "X% of
//! cycles in function Y at 48 cores" tables (§4).
//!
//! * **Inclusive** cycles of a span = end − begin.
//! * **Exclusive** cycles = inclusive − Σ inclusive of direct children,
//!   i.e. cycles attributable to the class itself. Exclusive totals are
//!   what the top-functions table ranks, exactly like a sampling
//!   profiler's self time.
//!
//! Lock events (`LockBegin`/`LockEnd`) resolve their names through the
//! always-compiled `pk-lockdep` class registry; span events through the
//! pk-trace intern table. Resolution happens here, never on a hot path.

use crate::event::{ClassKey, Event, EventKind};
use std::collections::BTreeMap;

/// Flat per-class roll-up across all tracks.
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

/// Saturating accumulate. The fold consumes *external* event streams
/// (possibly ragged — see the robustness rules on [`Profile::build`]),
/// and a 1024-track soak can push cycle sums toward `u64::MAX`, so
/// unlike the simulator's internal accumulators a wrap here must not
/// panic even in debug builds: totals pin at the ceiling and every
/// derived percentage stays finite.
#[inline]
fn sat(acc: &mut u64, delta: u64) {
    *acc = acc.saturating_add(delta);
}

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

/// The folded profile of one capture window.
#[derive(Debug, Clone)]
pub struct Profile {
    totals: Vec<ClassTotals>,
    /// Σ inclusive cycles of top-of-stack (root) spans: the denominator
    /// for "% of cycles".
    pub total_cycles: u64,
}

impl Profile {
    /// Folds a drained event stream (any track interleaving; per-track
    /// order is what matters) into a profile.
    ///
    /// Robustness rules for imperfect streams: an `End` with no
    /// matching open frame is ignored; an `End` matching a non-top
    /// frame closes the frames above it at the same timestamp; frames
    /// still open when the stream ends are closed at the track's last
    /// seen timestamp. Instant and counter events carry no cycles and
    /// are skipped.
    pub fn build(events: &[Event]) -> Profile {
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
                // Request contexts fold exactly like spans: the ctx
                // becomes the root frame of its request's subtree.
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

        Profile {
            totals,
            total_cycles,
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

    /// Fraction of total cycles spent *exclusively* in classes whose
    /// name satisfies `pred`. This is the paper's "X% of cycles in Y".
    pub fn share_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let hit: u64 = self
            .totals
            .iter()
            .filter(|t| pred(&t.name))
            .map(|t| t.exclusive)
            .sum();
        hit as f64 / self.total_cycles as f64
    }

    /// Paper-style top-functions table: `% cycles, exclusive,
    /// inclusive, count, class`.
    pub fn table(&self, n: usize) -> String {
        let mut out = String::from("  %cycl  exclusive   inclusive     count  class\n");
        for t in self.top_exclusive(n) {
            let pct = if self.total_cycles == 0 {
                0.0
            } else {
                100.0 * t.exclusive as f64 / self.total_cycles as f64
            };
            out.push_str(&format!(
                "  {pct:5.1}  {:>9}  {:>10}  {:>8}  {}\n",
                t.exclusive, t.inclusive, t.count, t.name
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern;

    fn span(track: u32, ts: u64, kind: EventKind, class: u32) -> Event {
        Event {
            ts,
            arg: 0,
            class,
            site: 0,
            track,
            kind,
        }
    }

    #[test]
    fn inclusive_exclusive_fold_is_correct() {
        let outer = intern::intern_span("test.profile.outer");
        let inner = intern::intern_span("test.profile.inner");
        let events = vec![
            span(0, 0, EventKind::SpanBegin, outer),
            span(0, 10, EventKind::SpanBegin, inner),
            span(0, 30, EventKind::SpanEnd, inner),
            span(0, 50, EventKind::SpanEnd, outer),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, 50);
        let get = |n: &str| {
            p.totals()
                .iter()
                .find(|t| t.name == n)
                .cloned()
                .unwrap_or_else(|| panic!("missing {n}"))
        };
        let o = get("test.profile.outer");
        assert_eq!((o.inclusive, o.exclusive, o.count), (50, 30, 1));
        let i = get("test.profile.inner");
        assert_eq!((i.inclusive, i.exclusive, i.count), (20, 20, 1));
        assert!((p.share_where(|n| n.contains("inner")) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn tracks_fold_independently_and_sum() {
        let c = intern::intern_span("test.profile.pertrack");
        let events = vec![
            span(0, 0, EventKind::SpanBegin, c),
            span(1, 5, EventKind::SpanBegin, c),
            span(0, 10, EventKind::SpanEnd, c),
            span(1, 25, EventKind::SpanEnd, c),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, 30);
        let t = &p.totals()[0];
        assert_eq!((t.count, t.inclusive), (2, 30));
    }

    #[test]
    fn imperfect_streams_do_not_panic() {
        let a = intern::intern_span("test.profile.ragged.a");
        let b = intern::intern_span("test.profile.ragged.b");
        let events = vec![
            span(0, 0, EventKind::SpanEnd, b), // unmatched end: ignored
            span(0, 1, EventKind::SpanBegin, a),
            span(0, 3, EventKind::SpanBegin, b),
            span(0, 9, EventKind::SpanEnd, a), // closes b at 9, then a
            span(0, 12, EventKind::SpanBegin, b), // left open: closed at 12
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, 8);
        let names: Vec<&str> = p.totals().iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"test.profile.ragged.a"));
        assert!(names.contains(&"test.profile.ragged.b"));
    }

    #[test]
    fn huge_cycle_totals_saturate_instead_of_wrapping() {
        // Two back-to-back spans whose inclusive cycles sum past
        // u64::MAX. A wrapping fold would report a tiny total (2 +
        // wrap) and every percentage in `table()` would be garbage;
        // the saturating fold pins class totals and the denominator
        // at the ceiling.
        let c = intern::intern_span("test.profile.saturate");
        let events = vec![
            span(0, 0, EventKind::SpanBegin, c),
            span(0, u64::MAX - 1, EventKind::SpanEnd, c),
            span(0, 0, EventKind::SpanBegin, c),
            span(0, u64::MAX - 1, EventKind::SpanEnd, c),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.total_cycles, u64::MAX);
        let t = &p.totals()[0];
        assert_eq!((t.count, t.inclusive, t.exclusive), (2, u64::MAX, u64::MAX));
        // share_where stays a sane fraction, not >1 or NaN.
        let share = p.share_where(|n| n.contains("saturate"));
        assert!((share - 1.0).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn lock_events_resolve_through_lockdep_registry() {
        let id = pk_lockdep::register_class(
            "test.profile.lockname",
            "pk-trace",
            pk_lockdep::LockKind::Spin,
        );
        let events = vec![
            span(0, 0, EventKind::LockBegin, id.raw()),
            span(0, 7, EventKind::LockEnd, id.raw()),
        ];
        let p = Profile::build(&events);
        assert_eq!(p.totals()[0].name, "test.profile.lockname");
        assert_eq!(p.totals()[0].inclusive, 7);
        let table = p.table(5);
        assert!(table.contains("test.profile.lockname"), "{table}");
    }
}
