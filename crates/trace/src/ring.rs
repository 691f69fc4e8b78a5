//! The per-track lock-free event ring.
//!
//! Fixed capacity, append-only between drains: a writer claims slots
//! with one `fetch_add` — one slot per [`push`](Ring::push), a whole run
//! per [`push_slice`](Ring::push_slice) — writes each event into four
//! atomic words, and publishes it with a release store of the tagged
//! word. When the ring is full further events are **counted and
//! dropped** — a hot path never blocks on the tracer (ISSUE 5 overflow
//! semantics; `pk-obs` exports the drop counter so a truncated trace is
//! always visible).
//!
//! The capacity is a promise, not an allocation: slots live in
//! [`CHUNK`]-slot chunks published on first touch through a
//! `OnceLock`, so a ring costs memory only for the prefix it filled,
//! rounded up to one chunk. A traced flow cell fills ≈ 8 % of
//! `flow_ring_capacity`, spread over one track per core plus the
//! admission track, so the last, partly filled chunk of every track is
//! what the rounding costs: 16 KB chunks keep it to 8 KB a track on
//! average, where 64 KB chunks wasted ≈ 32 KB. The one thing a writer
//! can wait on is another writer of the *same ring* allocating the
//! chunk both landed in — a one-off 16 KB zeroed allocation per chunk,
//! never a drain and never a full ring. Chunks stay allocated across
//! [`reset`](Ring::reset); a refill reuses them.
//!
//! Draining is the pull model: a quiescent reader (a test, the
//! profiler) walks the claimed prefix in slot order, clearing each tag
//! it reads, and then rewinds the ring. Slot order *is* program order
//! per track because every track has one logical writer at a time (a
//! core, or a DES customer processed by the deterministic event loop).

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bit set in the tag word when the slot's payload words are visible.
const PUBLISHED: u64 = 1 << 63;

const CHUNK_BITS: u32 = 9;
/// Slots per chunk: 512 × 32 bytes = 16 KB.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

#[derive(Default)]
struct Slot {
    ts: AtomicU64,
    arg: AtomicU64,
    class: AtomicU64, // the u32 class id
    tag: AtomicU64,   // track | kind << 32 | PUBLISHED
}

const _: () = assert!(std::mem::size_of::<Slot>() * CHUNK == 16 << 10);

impl Slot {
    /// Writes `e`'s payload, then publishes it.
    #[inline]
    fn publish(&self, e: &Event) {
        self.ts.store(e.ts, Ordering::Relaxed);
        self.arg.store(e.arg, Ordering::Relaxed);
        self.class.store(u64::from(e.class), Ordering::Relaxed);
        let tag = u64::from(e.track) | (e.kind as u64) << 32 | PUBLISHED;
        self.tag.store(tag, Ordering::Release);
    }
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

    /// Chunk `c`, allocated by whichever writer touches it first.
    #[inline]
    fn chunk(&self, c: usize) -> &[Slot] {
        self.chunks[c].get_or_init(|| {
            let mut slots = Vec::new();
            slots.resize_with(CHUNK.min(self.capacity - c * CHUNK), Slot::default);
            slots.into_boxed_slice()
        })
    }

    /// Records one event; returns `false` (and counts it) on overflow.
    pub(crate) fn push(&self, e: Event) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.chunk(idx >> CHUNK_BITS)[idx & (CHUNK - 1)].publish(&e);
        true
    }

    /// Records a run of events with one claim: a single `fetch_add`
    /// takes `events.len()` consecutive slots, and each is published as
    /// [`push`](Self::push) publishes one. On overflow the first events
    /// that fit are kept and the rest counted, so the ring ends up
    /// exactly as one `push` per event, in slice order, would leave it.
    /// Returns how many were kept.
    pub(crate) fn push_slice(&self, events: &[Event]) -> usize {
        if events.is_empty() {
            return 0;
        }
        let first = self.next.fetch_add(events.len(), Ordering::Relaxed);
        let kept = events.len().min(self.capacity.saturating_sub(first));
        if kept < events.len() {
            self.dropped
                .fetch_add((events.len() - kept) as u64, Ordering::Relaxed);
        }
        let (mut idx, mut rest) = (first, &events[..kept]);
        while !rest.is_empty() {
            let at = idx & (CHUNK - 1);
            let n = rest.len().min(CHUNK - at);
            let slots = &self.chunk(idx >> CHUNK_BITS)[at..at + n];
            for (slot, e) in slots.iter().zip(&rest[..n]) {
                slot.publish(e);
            }
            (idx, rest) = (idx + n, &rest[n..]);
        }
        kept
    }

    /// Number of events recorded (claimed and published) so far.
    pub(crate) fn len(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.capacity)
    }

    /// Events lost to overflow since the last [`reset`](Self::reset).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends the recorded prefix, in slot (= program) order, to `out`,
    /// clearing each published tag as it reads it, and returns the
    /// number of **torn** slots: claimed by a racing writer but not yet
    /// published, hence skipped. Zero at a quiescent point, which is the
    /// only place a drain belongs.
    pub(crate) fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let n = self.len();
        let mut torn = 0;
        for (c, cell) in self.chunks.iter().take(n.div_ceil(CHUNK)).enumerate() {
            let claimed = CHUNK.min(n - c * CHUNK);
            let Some(chunk) = cell.get() else {
                // A racing writer is still allocating it.
                torn += claimed as u64;
                continue;
            };
            for slot in &chunk[..claimed] {
                let tag = slot.tag.load(Ordering::Acquire);
                if tag & PUBLISHED == 0 {
                    torn += 1;
                    continue;
                }
                slot.tag.store(0, Ordering::Relaxed);
                let kind = (tag >> 32 & 0xff) as u8;
                out.push(Event {
                    ts: slot.ts.load(Ordering::Relaxed),
                    arg: slot.arg.load(Ordering::Relaxed),
                    class: slot.class.load(Ordering::Relaxed) as u32,
                    track: tag as u32,
                    // A published tag always carries a tag we wrote.
                    kind: EventKind::from_u8(kind).unwrap_or(EventKind::Instant),
                });
            }
        }
        torn
    }

    /// Rewinds the ring for the next capture window: the counters only.
    /// Chunks already published stay allocated, and their tags were
    /// cleared by the [`drain_into`](Self::drain_into) that precedes a
    /// reset — a torn slot was never published, so it reads clear too.
    pub(crate) fn reset(&self) {
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

    /// Cuts `0..n` into consecutive runs of seeded random length
    /// (1..=`max`; splitmix64 steps, so the cuts replay).
    fn splits(n: usize, max: usize, mut seed: u64) -> Vec<std::ops::Range<usize>> {
        let mut runs = Vec::new();
        let mut at = 0;
        while at < n {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ z >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            let len = (1 + (z ^ z >> 31) as usize % max).min(n - at);
            runs.push(at..at + len);
            at += len;
        }
        runs
    }

    /// Every capacity shape — empty, one slot, either side of a chunk
    /// boundary, and a short last chunk — keeps the first `capacity`
    /// events in order and counts exactly the rest, whether the events
    /// go in one `push` at a time or as seeded random `push_slice` runs
    /// (some straddling a chunk boundary or the capacity itself).
    #[test]
    fn first_capacity_events_survive_at_every_chunk_shape() {
        for capacity in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37] {
            let pushed = capacity + 5;
            let events: Vec<Event> = (0..pushed as u64).map(ev).collect();
            let single = Ring::new(capacity);
            for (i, &e) in events.iter().enumerate() {
                assert_eq!(single.push(e), i < capacity, "capacity {capacity}");
            }
            let expect = (
                drained(&single),
                single.dropped(),
                single.len(),
                single.resident_slots(),
            );
            assert_eq!(expect.0, events[..capacity], "capacity {capacity}");
            assert_eq!(expect.1, (pushed - capacity) as u64);
            assert_eq!(expect.2, capacity);
            assert_eq!(expect.3, capacity, "a full ring is fully resident");
            for (seed, max) in [(1, 1), (2, 7), (3, 64), (4, 700), (5, 3 * CHUNK)] {
                let batched = Ring::new(capacity);
                for run in splits(pushed, max, seed) {
                    let fit = run.end.min(capacity).saturating_sub(run.start);
                    assert_eq!(batched.push_slice(&events[run]), fit);
                }
                let got = (
                    drained(&batched),
                    batched.dropped(),
                    batched.len(),
                    batched.resident_slots(),
                );
                assert_eq!(got, expect, "capacity {capacity}, runs of ≤ {max}");
            }
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

    /// What a partly filled track costs: the events it holds, rounded
    /// up to one chunk, however they were pushed.
    #[test]
    fn resident_slots_round_up_to_one_chunk() {
        for n in [1, 37, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 300] {
            let events: Vec<Event> = (0..n as u64).map(ev).collect();
            let single = Ring::new(1 << 20);
            for &e in &events {
                single.push(e);
            }
            let batched = Ring::new(1 << 20);
            for run in splits(n, 700, n as u64) {
                batched.push_slice(&events[run]);
            }
            for r in [single, batched] {
                assert!(r.resident_slots() <= n.next_multiple_of(CHUNK), "n = {n}");
                assert!(r.resident_slots() >= n, "n = {n}");
            }
        }
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

        // The drain cleared the tags it read, so after the reset a
        // reclaimed slot that never publishes is torn, not a stale event.
        r.reset();
        r.claim_unpublished();
        assert!(r.push(ev(10)));
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 1);
        assert_eq!(out, [ev(10)]);
    }

    #[test]
    fn concurrent_writers_lose_nothing_across_chunk_boundaries() {
        // 4 × 2 000 events cross fifteen chunk boundaries; at each one
        // the writers race to publish the same chunk. Writers push one
        // event at a time, then claim seeded runs of 1..=300 slots with
        // one `push_slice` each, runs straddling the boundaries: nothing
        // is lost, and every run comes out as one contiguous block.
        const PER_WRITER: usize = 2_000;
        const { assert!(4 * PER_WRITER > 3 * CHUNK) };
        for max_run in [1, 300] {
            let r = Ring::new(4 * PER_WRITER);
            let runs: Vec<_> = (0..4)
                .map(|t| splits(PER_WRITER, max_run, 77 + t as u64))
                .collect();
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for (t, runs) in runs.iter().enumerate() {
                    let (r, start) = (&r, &start);
                    s.spawn(move || {
                        let base = (t * PER_WRITER) as u64;
                        let events: Vec<Event> =
                            (0..PER_WRITER as u64).map(|i| ev(base + i)).collect();
                        start.wait();
                        for run in runs {
                            if max_run == 1 {
                                assert!(r.push(events[run.start]));
                            } else {
                                assert_eq!(r.push_slice(&events[run.clone()]), run.len());
                            }
                        }
                    });
                }
            });
            let out = drained(&r);
            assert_eq!(r.dropped(), 0);
            let mut ts: Vec<u64> = out.iter().map(|e| e.ts).collect();
            for (t, runs) in runs.iter().enumerate() {
                for run in runs {
                    let first = (t * PER_WRITER + run.start) as u64;
                    let at = ts.iter().position(|&x| x == first).expect("run landed");
                    let block: Vec<u64> = (first..first + run.len() as u64).collect();
                    assert_eq!(ts[at..at + run.len()], block, "writer {t}, run {run:?}");
                }
            }
            ts.sort_unstable();
            assert_eq!(ts, (0..4 * PER_WRITER as u64).collect::<Vec<u64>>());
        }
    }
}
