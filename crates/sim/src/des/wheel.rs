//! The calendar-queue event wheel: the event queue behind the closed
//! DES (`des::run`) and both open-loop engines (`open`, `flow`). The
//! closed DES queues every event in it. The open engines queue their
//! workers' events in it, and keep their next arrival beside it: the
//! front end holds that arrival under the `(time, seq)` key
//! [`EventWheel::take_seq`] gives it, and pops the wheel through
//! [`EventWheel::pop_before`] that key, which keeps the order a wheel
//! holding the arrival would give.
//!
//! A classic binary heap costs `O(log n)` comparisons per push/pop and
//! scatters events across the heap array. The calendar queue instead
//! hashes each event by time into a ring of buckets (`bucket = (t >>
//! shift) & mask`), so a push is a slab-slot link and a pop amortizes
//! to a few comparisons: the queue drains one *window* — the slice of
//! simulated time one bucket covers — at a time, sorts that handful of
//! events once, and pops them off as a batch (the synchronization
//! horizon; see `DESIGN.md` §11). All of that is private: callers see
//! [`EventWheel::push`] and [`EventWheel::pop`], and the two calls an
//! event held outside needs, and nothing else.
//!
//! Event storage: every filed event lives in one slab, and each bucket
//! is an intrusive index-linked chain through it (`heads[bucket]`, then
//! `next[slot]`), with freed slots on a free list — the idiom `des::Hot`
//! uses for station FIFOs. The ring costs one `u32` per bucket instead
//! of a heap buffer per bucket, and the slab never holds more slots
//! than the peak number of filed events. A drain unlinks the due events
//! of its window and leaves later-rotation ones chained in place.
//!
//! Ordering contract: `push(t, id)` stamps the event with the next
//! value of a FIFO sequence counter and `pop` returns events in
//! ascending `(time, seq)` order — FIFO among simultaneous events,
//! exactly the canonical tie-break the heap engine pins. `seq` is
//! unique, so the order is total and independent of bucket layout.
//! `take_seq` takes a value of the same counter without filing an
//! event, so a held event sorts among the filed ones as if pushed.
//! Callers never push earlier than the time of the last pop.
//!
//! Sizing is a pure function of `(max service demand, lanes)`, so the
//! wheel introduces no nondeterminism: width ≈ `max_demand / lanes`
//! (for the closed DES, the mean spacing between completions when every
//! core is busy on the slowest station) rounded to a power of two, and
//! `2·lanes` buckets so the wheel's span covers about two full service
//! times. The open engines pass the mean arrival gap × `lanes` instead,
//! for one-gap buckets (`open::event_queue`).
//! Events beyond the span stay in their bucket and are skipped until
//! their rotation comes around; if a whole rotation finds nothing due
//! (a rare lull, e.g. after a preemption fault pushes the only event
//! 50 k cycles out), the wheel jumps straight to the earliest event.

/// One pending event: `(time, sequence, id)`.
type WheelEvent = (u64, u64, u32);

/// End of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// Soft cap on events per drained batch. Pushes that land below the
/// horizon are merged into the live batch by a back-scan plus
/// `Vec::insert`, and they are most pushes at 48 cores, so a short
/// batch keeps that merge to a few entries; four still amortizes the
/// refill and sort over a dense schedule (`DESIGN.md` §11 has the
/// before/after).
const TARGET_BATCH: usize = 4;

/// A calendar queue over `(time, seq, id)` events.
#[derive(Debug)]
pub struct EventWheel {
    /// First slab slot of each bucket's chain, or [`NIL`].
    heads: Vec<u32>,
    /// Filed events; a slot is live while linked from `heads`/`next`.
    slab: Vec<WheelEvent>,
    /// Chain link per slab slot: the next slot in the same bucket, or
    /// the next free slot for slots on the free list.
    next: Vec<u32>,
    /// Head of the free-slot list, or [`NIL`].
    free: u32,
    /// `nbuckets - 1`; bucket index = `(t >> shift) & mask`.
    mask: usize,
    /// log2 of the bucket width in cycles.
    shift: u32,
    /// Bucket holding the current window.
    cursor: usize,
    /// Inclusive start of the current window (aligned to the width).
    win_start: u64,
    /// Events filed in buckets (the live batch is not counted).
    len: usize,
    /// One bit per bucket, set while the bucket holds any event (of
    /// any rotation). The drain skips runs of empty buckets in word
    /// steps instead of probing each chain head — under heavy
    /// contention events sit far apart (a serialized lock spaces
    /// completions by the full inflated service time), and probing
    /// every bucket in between used to dominate the whole engine.
    occupied: Vec<u64>,
    /// The live batch: every pending event below `horizon`, sorted by
    /// `(time, seq)`. `pos` walks it; pushes landing below the horizon
    /// are merged in at their sorted position.
    batch: Vec<WheelEvent>,
    pos: usize,
    /// Exclusive upper bound of the time the buckets have been drained
    /// to: everything still in a bucket is at or past it.
    horizon: u64,
    /// Next FIFO sequence number.
    seq: u64,
}

impl EventWheel {
    /// Builds a wheel sized for `lanes` concurrent events spaced by
    /// service times up to `max_demand_cycles`. Both inputs are known
    /// before the run starts, so the geometry is deterministic — and it
    /// only shapes buckets: the pop order is the total `(time, seq)`
    /// order whatever the sizing.
    pub fn new(max_demand_cycles: f64, lanes: usize) -> Self {
        let spacing = max_demand_cycles.max(1.0) / lanes.max(1) as f64;
        // `as u64` saturates on overflow, and `next_power_of_two` on a
        // saturated value would wrap to 0 — clamp to 2^40 cycles, far
        // past any demand the models use.
        let width = (spacing as u64).clamp(1, 1 << 40).next_power_of_two();
        let nbuckets = (2 * lanes + 16).next_power_of_two();
        Self {
            heads: vec![NIL; nbuckets],
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            mask: nbuckets - 1,
            shift: width.trailing_zeros(),
            cursor: 0,
            win_start: 0,
            len: 0,
            occupied: vec![0; nbuckets.div_ceil(64)],
            batch: Vec::new(),
            pos: 0,
            horizon: 0,
            seq: 0,
        }
    }

    /// Schedules event `id` at time `t`, behind every event already
    /// scheduled for `t`.
    ///
    /// Three routes, cheapest first:
    ///
    /// * **Singleton bypass** — the batch is exhausted and the buckets
    ///   are empty, so this event is provably the only one pending (the
    ///   shape of a fully serialized network: one lock holder, everyone
    ///   else in a station FIFO). It becomes the next batch directly;
    ///   the window fast-forwards so later pushes stay ahead of it.
    /// * **Batch merge** — below the horizon the window it belongs to
    ///   has already been drained, so it is merged into the sorted live
    ///   batch (pushes are never earlier than the last pop, so the
    ///   insertion point is at or past `pos`).
    /// * **Bucket insert** — at or beyond the horizon it goes into the
    ///   ring.
    #[inline]
    pub fn push(&mut self, t: u64, id: u32) {
        debug_assert!(
            self.pos == 0 || t >= self.batch[self.pos - 1].0,
            "event scheduled before the last pop"
        );
        let e = (t, self.take_seq(), id);
        if self.pos == self.batch.len() && self.len == 0 {
            self.batch.clear();
            self.pos = 0;
            self.batch.push(e);
            if t >= self.horizon {
                self.horizon = t.saturating_add(1);
                self.advance_to(t);
            }
        } else if t < self.horizon {
            // Scan back from the end for the insertion point. This is
            // rarely an append (a push below the horizon lands last
            // 0–6 % of the time), which is why the batch is short.
            let mut at = self.batch.len();
            while at > self.pos && (self.batch[at - 1].0, self.batch[at - 1].1) > (t, e.1) {
                at -= 1;
            }
            self.batch.insert(at, e);
        } else {
            self.insert(e);
        }
    }

    /// Removes and returns the earliest pending event as `(time, id)`;
    /// `None` when nothing is pending.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        self.pop_before((u64::MAX, u64::MAX))
    }

    /// Takes the next FIFO sequence number for an event the caller
    /// keeps outside the wheel: its `(time, seq)` key is the one
    /// [`Self::push`] would have given it at this moment.
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Removes and returns the earliest pending event as `(time, id)`
    /// if its `(time, seq)` key is below `key`, the key of an event
    /// held outside the wheel; `None` when that event comes first or
    /// nothing is pending. Popping that way keeps the total `(time,
    /// seq)` order of a schedule pushed wholly into the wheel.
    #[inline]
    pub fn pop_before(&mut self, key: (u64, u64)) -> Option<(u64, u32)> {
        if self.pos == self.batch.len() {
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            let horizon = self.next_batch(&mut batch);
            self.batch = batch;
            self.pos = 0;
            self.horizon = horizon?;
        }
        let (t, seq, id) = self.batch[self.pos];
        if (t, seq) > key {
            return None;
        }
        self.pos += 1;
        Some((t, id))
    }

    /// Bucket width in cycles (the batching horizon's granularity).
    fn width(&self) -> u64 {
        1 << self.shift
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t >> self.shift) as usize) & self.mask
    }

    /// Files an event at the head of its bucket's chain, reusing a
    /// free slab slot when there is one. `e.0` must not precede the
    /// current window ([`Self::push`] routes events due inside the
    /// already-drained window into the live batch instead).
    #[inline]
    fn insert(&mut self, e: WheelEvent) {
        debug_assert!(e.0 >= self.win_start, "event scheduled in the past");
        let b = self.bucket_of(e.0);
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.slab[slot as usize] = e;
            slot
        } else {
            self.slab.push(e);
            self.next.push(NIL);
            (self.slab.len() - 1) as u32
        };
        self.next[slot as usize] = self.heads[b];
        self.heads[b] = slot;
        self.occupied[b >> 6] |= 1u64 << (b & 63);
        self.len += 1;
    }

    /// Fast-forwards the **empty** ring so its window starts at `t`'s
    /// bucket: the singleton bypass hands the only pending event
    /// straight to the batch without a bucket round-trip, and this
    /// keeps the ring position consistent so later pushes land ahead
    /// of the cursor.
    #[inline]
    fn advance_to(&mut self, t: u64) {
        debug_assert_eq!(self.len, 0, "advance_to on a non-empty wheel");
        self.win_start = t & !(self.width() - 1);
        self.cursor = self.bucket_of(t);
    }

    /// Distance (in buckets, 0 = the cursor itself) to the nearest
    /// occupied bucket at or after the cursor, wrapping around the
    /// ring. Word-at-a-time bit scan over the occupancy bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the wheel is empty (callers check `len` first).
    #[inline]
    fn next_occupied_offset(&self) -> usize {
        let nbuckets = self.mask + 1;
        // `nbuckets` is a power of two, so the word count is too (or 1)
        // and the ring wrap is a mask, not a division.
        let wmask = self.occupied.len() - 1;
        let mut w = self.cursor >> 6;
        // First word: only bits at or above the cursor's position.
        let mut cur = self.occupied[w] & (!0u64 << (self.cursor & 63));
        for _ in 0..=wmask + 1 {
            if cur != 0 {
                let b = (w << 6) + cur.trailing_zeros() as usize;
                return (b + nbuckets - self.cursor) & self.mask;
            }
            w = (w + 1) & wmask;
            cur = self.occupied[w];
        }
        unreachable!("len > 0 but the occupancy bitmap is empty");
    }

    /// Moves every event of bucket `b` due by `win_last` into `out`,
    /// returning their slots to the free list; later-rotation events
    /// stay chained in their original order.
    #[inline]
    fn drain_bucket(&mut self, b: usize, win_last: u64, out: &mut Vec<WheelEvent>) {
        let mut prev = NIL;
        let mut slot = self.heads[b];
        while slot != NIL {
            let i = slot as usize;
            let after = self.next[i];
            if self.slab[i].0 <= win_last {
                out.push(self.slab[i]);
                if prev == NIL {
                    self.heads[b] = after;
                } else {
                    self.next[prev as usize] = after;
                }
                self.next[i] = self.free;
                self.free = slot;
            } else {
                prev = slot;
            }
            slot = after;
        }
        if self.heads[b] == NIL {
            self.occupied[b >> 6] &= !(1u64 << (b & 63));
        }
    }

    /// Earliest time filed in any bucket, visiting only occupied ones;
    /// the wheel must hold an event (`u64::MAX` is a time, not "none").
    fn min_filed_time(&self) -> u64 {
        let mut min_t = u64::MAX;
        for (wi, &word) in self.occupied.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let b = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let mut slot = self.heads[b];
                while slot != NIL {
                    min_t = min_t.min(self.slab[slot as usize].0);
                    slot = self.next[slot as usize];
                }
            }
        }
        min_t
    }

    /// Drains the next batch of due events into `out` (sorted ascending
    /// by `(time, seq)`) and returns the batch's exclusive time horizon.
    /// Returns `None` when no events are pending.
    ///
    /// A batch coalesces consecutive windows — up to [`TARGET_BATCH`]
    /// events, and never more than one full rotation of the ring — so
    /// the per-batch costs (the refill call, the sort) amortize over
    /// several events when the schedule is dense, without revisiting a
    /// bucket whose later-rotation events are not yet due.
    ///
    /// The returned horizon is the batching contract: every pending
    /// event with `t < horizon` is in `out`, and any event scheduled
    /// before the horizon must be merged into that batch, not filed
    /// back in a bucket.
    fn next_batch(&mut self, out: &mut Vec<WheelEvent>) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let width = self.width();
        let start = out.len();
        let mut advanced = 0usize;
        loop {
            let drained = out.len() - start;
            if drained == self.len {
                break; // the wheel is fully drained
            }
            // Jump over empty buckets: windows map 1:1 to buckets
            // within a rotation, so skipping an empty bucket skips a
            // provably eventless window.
            let skip = self.next_occupied_offset();
            if drained > 0 && (drained >= TARGET_BATCH || advanced + skip > self.mask) {
                break; // batch full, or the next event is a rotation out
            }
            // Saturating: the last window ends at `u64::MAX` inclusive.
            self.cursor = (self.cursor + skip) & self.mask;
            self.win_start = self.win_start.saturating_add(skip as u64 * width);
            advanced += skip;

            let win_last = self.win_start.saturating_add(width - 1);
            self.drain_bucket(self.cursor, win_last, out);
            self.cursor = (self.cursor + 1) & self.mask;
            self.win_start = win_last.saturating_add(1);
            advanced += 1;
            if out.len() == start && advanced > self.mask {
                // A full rotation with nothing due: every pending
                // event is at least one wheel-span away. Jump the
                // window straight to the earliest one.
                let min_t = self.min_filed_time();
                self.win_start = min_t & !(width - 1);
                self.cursor = self.bucket_of(min_t);
                advanced = 0;
            }
        }
        self.len -= out.len() - start;
        out[start..].sort_unstable();
        Some(self.win_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The whole queue contract, differentially: any interleaving
        /// of pushes (never earlier than the last pop) and pops yields
        /// exactly what a `(time, seq)` min-heap yields, whatever the
        /// geometry — from 1-cycle buckets, where every push lands
        /// several rotations out, to buckets wider than the whole
        /// near-term schedule (up to 2^23 cycles against at most
        /// 300 × 24), where it all falls in one window.
        #[test]
        fn push_pop_interleavings_match_a_binary_heap(
            ops in proptest::collection::vec((0u8..8, 0u64..24, 1u64..4), 1..300),
            width_bits in 0u32..24,
            stretch in 1.0f64..2.0,
            lanes in 1usize..64,
        ) {
            let max_demand = lanes as f64 * (1u64 << width_bits) as f64 * stretch;
            let mut w = EventWheel::new(max_demand, lanes);
            let rotation = w.width() * (w.mask as u64 + 1);
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq, mut last_push) = (0u64, 0u64, 0u64);
            let mut routes = [0u32; 3];
            let mut peak_pending = 0usize;
            for (kind, near, rotations) in ops {
                let t = match kind {
                    // At `now` itself or just past it: below the live
                    // horizon whenever a batch is in flight.
                    0..=2 => now + near,
                    // The same timestamp as the previous push.
                    3 => last_push.max(now),
                    // More than one rotation of the ring ahead.
                    4 => now + rotations * rotation + near,
                    _ => {
                        let expect = heap.pop().map(|Reverse((t, _, id))| (t, id));
                        prop_assert_eq!(w.pop(), expect);
                        now = expect.map_or(now, |(t, _)| t);
                        continue;
                    }
                };
                routes[if w.pos == w.batch.len() && w.len == 0 {
                    0 // drained empty: the singleton bypass
                } else if t < w.horizon {
                    1 // merged into the live batch
                } else {
                    2 // filed in a bucket
                }] += 1;
                w.push(t, seq as u32);
                heap.push(Reverse((t, seq, seq as u32)));
                seq += 1;
                last_push = t;
                peak_pending = peak_pending.max(heap.len());
                // Freed slots are reused before the slab grows.
                prop_assert!(w.slab.len() <= peak_pending, "slab {} > peak {peak_pending}", w.slab.len());
            }
            while let Some(Reverse((t, _, id))) = heap.pop() {
                prop_assert_eq!(w.pop(), Some((t, id)));
            }
            prop_assert_eq!(w.pop(), None);
            // Long cases must have taken every route through `push`.
            prop_assert!(seq < 100 || routes.iter().all(|&n| n > 0), "routes {routes:?}");
        }

        /// The open engines' arrival stream, differentially: a source
        /// kept outside the wheel — keyed by `take_seq` when it is
        /// scheduled, merged by `pop_before` — pops in exactly the
        /// `(time, seq)` order of the same schedule pushed wholly into
        /// the wheel, events on one time included.
        #[test]
        fn a_source_held_outside_pops_in_the_wholly_pushed_order(
            steps in proptest::collection::vec((0u64..3, 0u8..8, 0u64..4), 1..400),
            width_bits in 0u32..12,
            lanes in 1usize..64,
        ) {
            const SOURCE: u32 = u32::MAX;
            let max_demand = lanes as f64 * (1u64 << width_bits) as f64;
            let mut whole = EventWheel::new(max_demand, lanes);
            let mut split = EventWheel::new(max_demand, lanes);
            let rotation = whole.width() * (whole.mask as u64 + 1);
            // One pop of the split schedule: the wheel's event if its
            // key is below the held one's, else the held event.
            let pop_split = |split: &mut EventWheel, held: &mut Option<(u64, u64)>| match *held {
                Some(key) => split.pop_before(key).or_else(|| {
                    *held = None;
                    Some((key.0, SOURCE))
                }),
                None => split.pop(),
            };
            whole.push(0, SOURCE);
            let mut held = Some((0, split.take_seq()));
            let (mut ties, mut last) = (0u32, (u64::MAX, 0u32));
            for (id, &(gap, kind, near)) in steps.iter().enumerate() {
                let want = whole.pop();
                prop_assert_eq!(pop_split(&mut split, &mut held), want);
                let (now, popped) = want.expect("the source is always pending");
                ties += u32::from(now == last.0 && (popped == SOURCE || last.1 == SOURCE));
                last = (now, popped);
                // A worker event at `now` or just past it, or several
                // rotations out, pushed before or after the source
                // schedules its next event (which it does at its own
                // pop, `gap` cycles on).
                let t = match kind {
                    0..=3 => Some(now + near),
                    4 => Some(now + rotation * (1 + near) + near),
                    _ => None,
                };
                let worker_first = kind % 2 == 1;
                for turn in [worker_first, !worker_first] {
                    if turn {
                        if let Some(t) = t {
                            whole.push(t, id as u32);
                            split.push(t, id as u32);
                        }
                    } else if popped == SOURCE {
                        whole.push(now + gap, SOURCE);
                        held = Some((now + gap, split.take_seq()));
                    }
                }
            }
            loop {
                let want = whole.pop();
                prop_assert_eq!(pop_split(&mut split, &mut held), want);
                if want.is_none() {
                    break;
                }
            }
            prop_assert!(steps.len() < 100 || ties > 0, "no same-time pop beside the source");
        }
    }

    #[test]
    fn pop_before_on_an_empty_wheel_is_none() {
        let mut w = EventWheel::new(32.0, 4);
        assert_eq!(w.pop_before((u64::MAX, u64::MAX)), None);
        assert_eq!(w.pop_before((0, 0)), None);
        // The wheel stays usable, and the held key still decides.
        let held = (7, w.take_seq());
        w.push(7, 1);
        assert_eq!(
            w.pop_before(held),
            None,
            "the held event keeps its lower seq"
        );
        assert_eq!(w.pop_before((7, held.1 + 2)), Some((7, 1)));
        assert_eq!(w.pop_before((u64::MAX, u64::MAX)), None);
    }

    #[test]
    fn a_push_below_the_horizon_after_a_refill_by_pop_before_merges() {
        let mut w = EventWheel::new(32.0, 4);
        assert_eq!(w.width(), 8);
        w.push(5, 0);
        w.push(20, 1);
        w.push(40, 2);
        assert_eq!(w.pop(), Some((5, 0)));
        // The batch is spent: this call refills it from the buckets,
        // and the held event at 12 still comes first.
        let held = (12, w.take_seq());
        assert_eq!(w.pop_before(held), None);
        assert_eq!((w.pos, w.batch.len(), w.len, w.horizon), (0, 2, 0, 48));
        // The caller handles its held event at 12 and pushes one below
        // the new horizon: it joins the live batch, in order.
        w.push(30, 3);
        assert_eq!((w.batch.len(), w.len), (3, 0), "merged, not filed");
        assert_eq!(w.pop(), Some((20, 1)));
        assert_eq!(w.pop(), Some((30, 3)));
        assert_eq!(w.pop(), Some((40, 2)));
        assert_eq!(w.pop(), None);
    }

    fn drain_all(wheel: &mut EventWheel) -> Vec<WheelEvent> {
        let mut all = Vec::new();
        let mut batch = Vec::new();
        while wheel.next_batch(&mut batch).is_some() {
            all.append(&mut batch);
        }
        all
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = EventWheel::new(100.0, 4);
        w.insert((50, 3, 0));
        w.insert((10, 1, 1));
        w.insert((50, 0, 2));
        w.insert((10, 2, 3));
        let order = drain_all(&mut w);
        assert_eq!(order, [(10, 1, 1), (10, 2, 3), (50, 0, 2), (50, 3, 0)]);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn simultaneous_events_pop_fifo_by_seq() {
        // The tie-break regression guard at the data-structure layer:
        // equal times must come out in push (sequence) order even
        // though head insertion reverses the bucket chain.
        let mut w = EventWheel::new(1.0, 2);
        for seq in 0..16u64 {
            w.insert((7, seq, seq as u32));
        }
        let order = drain_all(&mut w);
        let seqs: Vec<u64> = order.iter().map(|e| e.1).collect();
        assert_eq!(seqs, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_survive_wrapping() {
        // An event many wheel-spans out (a preempted holder) shares a
        // bucket with near events; it must pop last, not early.
        let mut w = EventWheel::new(64.0, 2);
        let span = w.width() * (w.mask as u64 + 1);
        w.insert((5, 0, 0));
        w.insert((5 + 3 * span, 1, 1)); // same bucket, three rotations out
        w.insert((9, 2, 2));
        let order = drain_all(&mut w);
        assert_eq!(order[0].0, 5);
        assert_eq!(order[1].0, 9);
        assert_eq!(order[2].0, 5 + 3 * span);
    }

    #[test]
    fn empty_lulls_jump_to_the_next_event() {
        let mut w = EventWheel::new(8.0, 1);
        w.insert((1_000_000, 0, 0));
        let mut batch = Vec::new();
        let horizon = w.next_batch(&mut batch).expect("one event pending");
        assert_eq!(batch, [(1_000_000, 0, 0)]);
        assert!(horizon > 1_000_000);
        assert!(w.next_batch(&mut batch).is_none());
    }

    #[test]
    fn events_file_and_pop_at_the_top_of_the_clock() {
        // The last window ends at `u64::MAX` inclusive; pushes there,
        // through the buckets and the batch, keep `(time, seq)` order.
        let mut w = EventWheel::new(1_000.0, 4);
        w.push(5, 0);
        w.push(u64::MAX, 1);
        w.push(u64::MAX - 3, 2);
        assert_eq!(w.pop(), Some((5, 0)));
        w.push(u64::MAX, 3);
        assert_eq!(w.pop(), Some((u64::MAX - 3, 2)));
        assert_eq!(w.pop(), Some((u64::MAX, 1)));
        w.push(u64::MAX, 4);
        assert_eq!(w.pop(), Some((u64::MAX, 3)));
        assert_eq!(w.pop(), Some((u64::MAX, 4)));
        assert_eq!(w.pop(), None);
        w.push(u64::MAX, 5);
        w.push(u64::MAX, 6);
        assert_eq!(w.pop(), Some((u64::MAX, 5)));
        assert_eq!(w.pop(), Some((u64::MAX, 6)));
    }

    #[test]
    fn interleaved_push_and_drain_keeps_global_order() {
        let mut w = EventWheel::new(32.0, 4);
        assert_eq!(w.width(), 8, "spacing 32/4 rounds to an 8-cycle bucket");
        w.insert((3, 0, 0));
        w.insert((40, 1, 1));
        let mut batch = Vec::new();
        let horizon = w.next_batch(&mut batch).unwrap();
        assert_eq!(
            batch,
            [(3, 0, 0), (40, 1, 1)],
            "nearby windows coalesce into one batch"
        );
        assert_eq!(horizon, 48, "horizon is the last drained window's end");
        batch.clear();
        // New events at or past the horizon go back into the wheel and
        // still drain in global time order.
        w.insert((horizon + 2, 2, 2));
        w.insert((horizon + 9, 3, 3));
        assert_eq!(
            drain_all(&mut w),
            [(50, 2, 2), (57, 3, 3)],
            "post-horizon pushes drain in time order"
        );
    }

    #[test]
    fn batches_cap_at_target_and_stop_at_the_rotation_boundary() {
        // 40 events in consecutive windows: the first batch takes
        // TARGET_BATCH of them, the rest arrive in the next batch.
        let mut w = EventWheel::new(4.0, 4);
        for i in 0..40u64 {
            w.insert((i * w.width(), i, i as u32));
        }
        let mut batch = Vec::new();
        w.next_batch(&mut batch).unwrap();
        assert_eq!(batch.len(), TARGET_BATCH);
        assert_eq!(w.len, 40 - TARGET_BATCH);

        // An event a full rotation out never rides along in a batch
        // with a due event, even though its bucket is nearby in ring
        // order: the rotation boundary closes the batch first.
        let mut w = EventWheel::new(4.0, 4);
        let span = w.width() * (w.mask as u64 + 1);
        w.insert((0, 0, 0));
        w.insert((span + 1, 1, 1));
        let mut batch = Vec::new();
        w.next_batch(&mut batch).unwrap();
        assert_eq!(batch, [(0, 0, 0)]);
        batch.clear();
        w.next_batch(&mut batch).unwrap();
        assert_eq!(batch, [(span + 1, 1, 1)]);
    }

    /// Whether bucket `b`'s occupancy bit is set.
    fn occupied(w: &EventWheel, b: usize) -> bool {
        w.occupied[b >> 6] & (1u64 << (b & 63)) != 0
    }

    #[test]
    fn drain_unlinks_due_events_anywhere_in_a_chain() {
        // Events are filed at the head of their chain, so inserting
        // due, later, due, later, due leaves the due events at the
        // chain's head, middle and tail with later-rotation events
        // between them.
        let mut w = EventWheel::new(64.0, 2);
        let span = w.width() * (w.mask as u64 + 1);
        let b = w.bucket_of(5);
        w.insert((7, 0, 0)); // tail once the chain is built
        w.insert((5 + span, 1, 1));
        w.insert((5, 2, 2)); // middle
        w.insert((6 + 2 * span, 3, 3));
        w.insert((6, 4, 4)); // head
        assert!(occupied(&w, b));

        let mut batch = Vec::new();
        w.next_batch(&mut batch).unwrap();
        assert_eq!(batch, [(5, 2, 2), (6, 4, 4), (7, 0, 0)]);
        assert_eq!(w.len, 2);
        assert!(
            occupied(&w, b),
            "later-rotation events keep the bucket occupied"
        );

        batch.clear();
        w.next_batch(&mut batch).unwrap();
        assert_eq!(batch, [(5 + span, 1, 1)]);
        assert!(occupied(&w, b), "one event is still chained");

        batch.clear();
        w.next_batch(&mut batch).unwrap();
        assert_eq!(batch, [(6 + 2 * span, 3, 3)]);
        assert!(!occupied(&w, b), "the bit clears when the chain empties");
        assert!(w.next_batch(&mut batch).is_none());
    }

    #[test]
    fn slab_never_outgrows_the_pending_peak() {
        // 10 k steps of a closed loop with `k` lanes: each pop schedules
        // its successor a few windows to several rotations out, so the
        // ring wraps many times while at most `k` events are pending.
        let k = 16usize;
        let mut w = EventWheel::new(64.0, 4);
        let span = w.width() * (w.mask as u64 + 1);
        for lane in 0..k as u32 {
            w.push(u64::from(lane), lane);
        }
        let mut last = 0;
        for step in 0..10_000u64 {
            let (t, id) = w.pop().expect("k events stay pending");
            assert!(t >= last, "pop order regressed at step {step}");
            last = t;
            let gap = (step * 7919 + u64::from(id) * 31) % (3 * span) + 1;
            w.push(t + gap, id);
            assert!(
                w.slab.len() <= k,
                "slab grew to {} at step {step}",
                w.slab.len()
            );
        }
        assert!(last > 100 * span, "the run spans many rotations");
    }
}
