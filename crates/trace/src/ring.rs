//! The per-track lock-free event ring.
//!
//! Fixed capacity, append-only between drains: a writer claims a slot
//! with one `fetch_add`, writes the event into four atomic words, and
//! publishes with a release store of the tagged word. When the ring is
//! full further events are **counted and dropped** — a hot path never
//! blocks on the tracer (ISSUE 5 overflow semantics; `pk-obs` exports
//! the drop counter so a truncated trace is always visible).
//!
//! The capacity is a promise, not an allocation: slots live in
//! [`CHUNK`]-slot chunks published on first touch through a
//! `OnceLock`, so a ring costs memory only for the prefix it filled
//! (a traced flow cell fills ≈ 8 % of `flow_ring_capacity`). The one
//! thing a writer can now wait on is another writer of the *same ring*
//! allocating the chunk both landed in — a one-off 64 KB zeroed
//! allocation per chunk, never a drain and never a full ring. Chunks
//! stay allocated across [`reset`](Ring::reset); a refill reuses them.
//!
//! Draining is the pull model: a quiescent reader (the `TraceSink`, a
//! test, the profiler) walks the claimed prefix in slot order and then
//! resets the ring. Slot order *is* program order per track because
//! every track has one logical writer at a time (a core, or a DES
//! customer processed by the deterministic event loop).

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bit set in the tag word when the slot's payload words are visible.
const PUBLISHED: u64 = 1 << 63;

const CHUNK_BITS: u32 = 11;
/// Slots per chunk: 2 048 × 32 bytes = 64 KB.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

#[derive(Default)]
struct Slot {
    ts: AtomicU64,
    arg: AtomicU64,
    ids: AtomicU64, // class | site << 32
    tag: AtomicU64, // track | kind << 32 | PUBLISHED
}

pub(crate) struct Ring {
    next: AtomicUsize,
    dropped: AtomicU64,
    capacity: usize,
    /// `capacity.div_ceil(CHUNK)` cells; the last chunk is short when
    /// `capacity` is not a multiple of [`CHUNK`].
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
}

impl Ring {
    pub(crate) fn new(capacity: usize) -> Self {
        let mut chunks = Vec::new();
        chunks.resize_with(capacity.div_ceil(CHUNK), OnceLock::new);
        Self {
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            capacity,
            chunks: chunks.into_boxed_slice(),
        }
    }

    /// Records one event; returns `false` (and counts it) on overflow.
    pub(crate) fn push(&self, e: Event) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let c = idx >> CHUNK_BITS;
        let chunk = self.chunks[c].get_or_init(|| {
            let mut slots = Vec::new();
            slots.resize_with(CHUNK.min(self.capacity - c * CHUNK), Slot::default);
            slots.into_boxed_slice()
        });
        let slot = &chunk[idx & (CHUNK - 1)];
        slot.ts.store(e.ts, Ordering::Relaxed);
        slot.arg.store(e.arg, Ordering::Relaxed);
        slot.ids.store(
            u64::from(e.class) | u64::from(e.site) << 32,
            Ordering::Relaxed,
        );
        let tag = u64::from(e.track) | (e.kind as u64) << 32 | PUBLISHED;
        slot.tag.store(tag, Ordering::Release);
        true
    }

    /// Number of events recorded (claimed and published) so far.
    pub(crate) fn len(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.capacity)
    }

    /// Events lost to overflow since the last [`reset`](Self::reset).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The claimed prefix, chunk by chunk: each chunk (`None` while a
    /// racing writer is still allocating it) with how many of its
    /// slots are claimed.
    fn claimed(&self) -> impl Iterator<Item = (Option<&[Slot]>, usize)> {
        let n = self.len();
        self.chunks
            .iter()
            .take(n.div_ceil(CHUNK))
            .enumerate()
            .map(move |(c, cell)| {
                let claimed = CHUNK.min(n - c * CHUNK);
                (cell.get().map(|chunk| &chunk[..claimed]), claimed)
            })
    }

    /// Appends the recorded prefix, in slot (= program) order, to `out`
    /// and returns the number of **torn** slots: claimed by a racing
    /// writer but not yet published, hence skipped. Zero at a quiescent
    /// point, which is the only place a drain belongs.
    pub(crate) fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let mut torn = 0;
        for (chunk, claimed) in self.claimed() {
            let Some(chunk) = chunk else {
                torn += claimed as u64;
                continue;
            };
            for slot in chunk {
                let tag = slot.tag.load(Ordering::Acquire);
                if tag & PUBLISHED == 0 {
                    torn += 1;
                    continue;
                }
                let ids = slot.ids.load(Ordering::Relaxed);
                let kind = (tag >> 32 & 0xff) as u8;
                out.push(Event {
                    ts: slot.ts.load(Ordering::Relaxed),
                    arg: slot.arg.load(Ordering::Relaxed),
                    class: ids as u32,
                    site: (ids >> 32) as u32,
                    track: tag as u32,
                    // A published tag always carries a tag we wrote.
                    kind: EventKind::from_u8(kind).unwrap_or(EventKind::Instant),
                });
            }
        }
        torn
    }

    /// Rewinds the ring for the next capture window. Chunks already
    /// published stay allocated.
    pub(crate) fn reset(&self) {
        for slot in self.claimed().filter_map(|(chunk, _)| chunk).flatten() {
            slot.tag.store(0, Ordering::Relaxed);
        }
        self.dropped.store(0, Ordering::Relaxed);
        self.next.store(0, Ordering::Release);
    }

    /// Slots actually allocated so far.
    #[cfg(test)]
    pub(crate) fn resident_slots(&self) -> usize {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|chunk| chunk.len())
            .sum()
    }

    /// Claims the next slot and never publishes it: what a drain sees
    /// of a writer preempted between its `fetch_add` and its tag store.
    #[cfg(test)]
    pub(crate) fn claim_unpublished(&self) {
        self.next.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts,
            arg: ts * 10,
            class: 7,
            site: 9,
            track: 3,
            kind: EventKind::Instant,
        }
    }

    fn drained(r: &Ring) -> Vec<Event> {
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 0, "quiescent drain tears nothing");
        out
    }

    #[test]
    fn push_drain_round_trips_in_order() {
        let r = Ring::new(8);
        for i in 0..5 {
            assert!(r.push(ev(i)));
        }
        let out = drained(&r);
        assert_eq!(out, (0..5).map(ev).collect::<Vec<_>>());
        assert_eq!(r.dropped(), 0);
    }

    /// Every capacity shape — empty, one slot, either side of a chunk
    /// boundary, and a short last chunk — keeps the first `capacity`
    /// events in order and counts exactly the rest.
    #[test]
    fn first_capacity_events_survive_at_every_chunk_shape() {
        for capacity in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37] {
            let r = Ring::new(capacity);
            let pushed = capacity + 5;
            for i in 0..pushed {
                assert_eq!(r.push(ev(i as u64)), i < capacity, "capacity {capacity}");
            }
            assert_eq!(r.len(), capacity);
            assert_eq!(
                drained(&r),
                (0..capacity as u64).map(ev).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
            assert_eq!(r.dropped(), (pushed - capacity) as u64);
            assert_eq!(
                r.resident_slots(),
                capacity,
                "a full ring is fully resident"
            );
        }
    }

    #[test]
    fn chunks_materialise_on_first_touch_only() {
        let r = Ring::new(1 << 16);
        assert_eq!(r.resident_slots(), 0);
        r.push(ev(0));
        assert_eq!(r.resident_slots(), CHUNK);
        for i in 1..=CHUNK as u64 {
            r.push(ev(i));
        }
        assert_eq!(r.resident_slots(), 2 * CHUNK);
    }

    #[test]
    fn reset_reopens_a_full_ring_and_reuses_its_chunks() {
        let r = Ring::new(CHUNK + 2);
        for i in 0..(CHUNK + 5) as u64 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 3);
        r.reset();
        assert_eq!((r.len(), r.dropped()), (0, 0));
        assert_eq!(r.resident_slots(), CHUNK + 2, "reset frees nothing");
        assert!(drained(&r).is_empty(), "stale slots must not resurface");
        for i in 100..(100 + CHUNK as u64 + 1) {
            assert!(r.push(ev(i)));
        }
        assert_eq!(r.resident_slots(), CHUNK + 2, "refill allocates nothing");
        let out = drained(&r);
        assert_eq!(out.len(), CHUNK + 1);
        assert_eq!((out[0].ts, out[CHUNK].ts), (100, 100 + CHUNK as u64));
    }

    #[test]
    fn claimed_but_unpublished_slots_are_torn_not_drained() {
        // Torn inside a published chunk, and torn in a chunk no writer
        // got round to allocating.
        let r = Ring::new(2 * CHUNK);
        r.push(ev(0));
        r.claim_unpublished();
        r.push(ev(2));
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 1);
        assert_eq!(out.iter().map(|e| e.ts).collect::<Vec<_>>(), [0, 2]);

        let r = Ring::new(2 * CHUNK);
        r.claim_unpublished();
        assert_eq!(r.drain_into(&mut Vec::new()), 1);
        r.reset();
        assert!(r.push(ev(9)));
        assert_eq!(drained(&r), [ev(9)]);
    }

    #[test]
    fn concurrent_writers_lose_nothing_across_chunk_boundaries() {
        // 4 × 2 000 events cross three chunk boundaries; at each one
        // the writers race to publish the same chunk.
        const PER_WRITER: usize = 2_000;
        let r = Ring::new(4 * PER_WRITER);
        const { assert!(4 * PER_WRITER > 3 * CHUNK) };
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        assert!(r.push(ev((t * PER_WRITER + i) as u64)));
                    }
                });
            }
        });
        let out = drained(&r);
        assert_eq!(r.dropped(), 0);
        let mut ts: Vec<u64> = out.iter().map(|e| e.ts).collect();
        ts.sort_unstable();
        assert_eq!(ts, (0..4 * PER_WRITER as u64).collect::<Vec<u64>>());
    }
}
