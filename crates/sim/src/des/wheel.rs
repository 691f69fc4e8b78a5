//! The calendar-queue event wheel: the one event queue behind the
//! closed DES (`des::run`) and both open-loop engines (`open`, `flow`).
//!
//! A classic binary heap costs `O(log n)` comparisons per push/pop and
//! scatters events across the heap array. The calendar queue instead
//! hashes each event by time into a ring of buckets (`bucket = (t >>
//! shift) & mask`), so a push is a `Vec::push` and a pop amortizes to
//! a few comparisons: the queue drains one *window* — the slice of
//! simulated time one bucket covers — at a time, sorts that handful of
//! events once, and pops them off as a batch (the synchronization
//! horizon; see `DESIGN.md` §11). All of that is private: callers see
//! [`EventWheel::push`] and [`EventWheel::pop`] and nothing else.
//!
//! Ordering contract: `push(t, id)` stamps the event with the next
//! value of a FIFO sequence counter and `pop` returns events in
//! ascending `(time, seq)` order — FIFO among simultaneous events,
//! exactly the canonical tie-break the heap engine pins. `seq` is
//! unique, so the order is total and independent of bucket layout.
//! Callers never push earlier than the time of the last pop.
//!
//! Sizing is a pure function of `(max service demand, lanes)`, so the
//! wheel introduces no nondeterminism: width ≈ `max_demand / lanes`
//! (the mean spacing between completions when every core is busy on
//! the slowest station) rounded to a power of two, and `2·lanes`
//! buckets so the wheel's span covers about two full service times.
//! Events beyond the span stay in their bucket and are skipped until
//! their rotation comes around; if a whole rotation finds nothing due
//! (a rare lull, e.g. after a preemption fault pushes the only event
//! 50 k cycles out), the wheel jumps straight to the earliest event.

/// One pending event: `(time, sequence, id)`.
type WheelEvent = (u64, u64, u32);

/// Soft cap on events per drained batch. Large enough to amortize the
/// refill and sort over a dense schedule, small enough that the
/// in-batch merge inserts (pushes landing before the horizon) stay a
/// sub-cache-line memmove.
const TARGET_BATCH: usize = 32;

/// A calendar queue over `(time, seq, id)` events.
#[derive(Debug)]
pub struct EventWheel {
    buckets: Vec<Vec<WheelEvent>>,
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
    /// steps instead of probing each `Vec` — under heavy contention
    /// events sit far apart (a serialized lock spaces completions by
    /// the full inflated service time), and probing every bucket in
    /// between used to dominate the whole engine.
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
            buckets: vec![Vec::new(); nbuckets],
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
        let e = (t, self.seq, id);
        self.seq += 1;
        if self.pos == self.batch.len() && self.len == 0 {
            self.batch.clear();
            self.pos = 0;
            self.batch.push(e);
            if t >= self.horizon {
                self.horizon = t + 1;
                self.advance_to(t);
            }
        } else if t < self.horizon {
            // Scan back from the end for the insertion point. This is
            // rarely an append: counted over the 14-cell roster, a push
            // below the horizon lands last only 0–6 % of the time, so
            // the usual case is a scan plus a `Vec::insert` (DESIGN §11
            // has the numbers and the untried smaller batch).
            let mut at = self.batch.len();
            while at > self.pos && (self.batch[at - 1].0, self.batch[at - 1].1) > (t, e.1) {
                at -= 1;
            }
            if at == self.batch.len() {
                self.batch.push(e);
            } else {
                self.batch.insert(at, e);
            }
        } else {
            self.insert(e);
        }
    }

    /// Removes and returns the earliest pending event as `(time, id)`;
    /// `None` when nothing is pending.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        if self.pos == self.batch.len() {
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            let horizon = self.next_batch(&mut batch);
            self.batch = batch;
            self.pos = 0;
            self.horizon = horizon?;
        }
        let (t, _, id) = self.batch[self.pos];
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

    /// Files an event in its bucket. `e.0` must not precede the current
    /// window ([`Self::push`] routes events due inside the
    /// already-drained window into the live batch instead).
    #[inline]
    fn insert(&mut self, e: WheelEvent) {
        debug_assert!(e.0 >= self.win_start, "event scheduled in the past");
        let b = self.bucket_of(e.0);
        self.buckets[b].push(e);
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

    /// Drains the next batch of due events into `out` (sorted ascending
    /// by `(time, seq)`) and returns the batch's exclusive time horizon.
    /// Returns `None` when no events are pending.
    ///
    /// A batch coalesces consecutive windows — up to [`TARGET_BATCH`]
    /// events, and never more than one full rotation of the ring — so
    /// the per-batch costs (the refill call, the sort) amortize over
    /// many events when the schedule is dense, without revisiting a
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
            self.cursor = (self.cursor + skip) & self.mask;
            self.win_start += skip as u64 * width;
            advanced += skip;

            let win_end = self.win_start + width;
            let bucket = &mut self.buckets[self.cursor];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].0 < win_end {
                    out.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if bucket.is_empty() {
                self.occupied[self.cursor >> 6] &= !(1u64 << (self.cursor & 63));
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.win_start = win_end;
            advanced += 1;
            if out.len() == start && advanced > self.mask {
                // A full rotation with nothing due: every pending
                // event is at least one wheel-span away. Jump the
                // window straight to the earliest one, visiting only
                // occupied buckets to find it.
                let mut min_t = u64::MAX;
                for (wi, &word) in self.occupied.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let b = (wi << 6) + word.trailing_zeros() as usize;
                        word &= word - 1;
                        for e in &self.buckets[b] {
                            min_t = min_t.min(e.0);
                        }
                    }
                }
                debug_assert_ne!(min_t, u64::MAX, "len > 0 but no events in any bucket");
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
        /// exactly what a `(time, seq)` min-heap yields.
        #[test]
        fn push_pop_interleavings_match_a_binary_heap(
            ops in proptest::collection::vec((0u8..8, 0u64..24, 1u64..4), 1..300),
        ) {
            let mut w = EventWheel::new(32.0, 4);
            let rotation = w.width() * (w.mask as u64 + 1);
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq, mut last_push) = (0u64, 0u64, 0u64);
            let mut routes = [0u32; 3];
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
            }
            while let Some(Reverse((t, _, id))) = heap.pop() {
                prop_assert_eq!(w.pop(), Some((t, id)));
            }
            prop_assert_eq!(w.pop(), None);
            // Long cases must have taken every route through `push`.
            prop_assert!(seq < 100 || routes.iter().all(|&n| n > 0), "routes {routes:?}");
        }
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
        // though swap_remove scrambles the bucket internally.
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
}
