//! The tracer: per-track rings plus the deterministic virtual clock.
//!
//! Two clock domains (DESIGN.md §10):
//!
//! * **Driver domain** — each track owns a monotone op counter; every
//!   recorded event advances it by one, so a span's width is "events
//!   that happened inside it". Deterministic for the single-threaded
//!   functional drivers because each thread records only on its own
//!   registered core's track.
//! * **Sim domain** — `pk-sim` stamps events with explicit DES cycles
//!   via [`Tracer::record_at`]; the tick clock is bypassed entirely.
//!   A simulation owns every track of its local tracer, so it records
//!   through one [`TraceWriter`], which claims ring slots a batch at a
//!   time instead of one `fetch_add` per event.
//!
//! Rings are capacity promises backed by on-demand chunks (see
//! [`crate::ring`]), so `Tracer::new` costs a few words per chunk and a
//! track that records nothing allocates nothing.
//!
//! A `Tracer` can be a local instance (the DES harness makes one per
//! simulation) or the process-wide default used by the macros and the
//! lock/RCU/syscall hooks ([`install_global`]). The global default does
//! not exist until installed, so untraced programs pay one atomic load
//! per hook.

use crate::event::{Event, EventKind};
use crate::ring::Ring;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default slots per track for the global tracer.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Events a [`TraceWriter`] buffers per track before claiming ring
/// slots for all of them with one `fetch_add`. Chosen by measurement on
/// the traced `serving_tail` chain: 32 to 256 were within noise of each
/// other, 16 gave part of the gain back.
const BATCH: usize = 64;

/// A set of per-track event rings sharing one enabled switch.
pub struct Tracer {
    rings: Box<[Ring]>,
    ticks: Box<[pk_percpu::CacheAligned<AtomicU64>]>,
    out_of_range: AtomicU64,
    torn: AtomicU64,
    enabled: AtomicBool,
}

impl Tracer {
    /// Creates a tracer with `tracks` rings of `capacity` slots each,
    /// initially enabled.
    pub fn new(tracks: usize, capacity: usize) -> Self {
        let mut rings = Vec::with_capacity(tracks);
        rings.resize_with(tracks, || Ring::new(capacity));
        let mut ticks = Vec::with_capacity(tracks);
        ticks.resize_with(tracks, || pk_percpu::CacheAligned::new(AtomicU64::new(0)));
        Self {
            rings: rings.into_boxed_slice(),
            ticks: ticks.into_boxed_slice(),
            out_of_range: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Number of tracks this tracer records.
    pub fn tracks(&self) -> usize {
        self.rings.len()
    }

    /// Whether recording is live. Checked (one relaxed load) by every
    /// hook before doing any other work.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. In-flight events may still land.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Records an event in the **driver domain**: the timestamp is the
    /// track's next tick. Overflow is counted-and-dropped.
    #[inline]
    pub fn record(&self, track: usize, kind: EventKind, class: u32, arg: u64) {
        let Some(tick) = self.ticks.get(track) else {
            self.out_of_range.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let ts = tick.fetch_add(1, Ordering::Relaxed);
        self.record_at(track, ts, kind, class, arg);
    }

    /// Records an event with an explicit timestamp (**sim domain**).
    #[inline]
    pub fn record_at(&self, track: usize, ts: u64, kind: EventKind, class: u32, arg: u64) {
        let Some(ring) = self.rings.get(track) else {
            self.out_of_range.fetch_add(1, Ordering::Relaxed);
            return;
        };
        ring.push(Event {
            ts,
            arg,
            class,
            track: track as u32,
            kind,
        });
    }

    /// A batching writer for a caller that owns every track of this
    /// tracer — a simulation recording into its local tracer. See
    /// [`TraceWriter`].
    pub fn writer(&self) -> TraceWriter<'_> {
        TraceWriter {
            tracer: self,
            pending: self.rings.iter().map(|_| Vec::new()).collect(),
        }
    }

    /// Events currently buffered across all tracks.
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.len() as u64).sum()
    }

    /// Events lost to ring overflow (plus out-of-range tracks) since
    /// the last drain.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(Ring::dropped).sum::<u64>()
            + self.out_of_range.load(Ordering::Relaxed)
    }

    /// Per-track drop counts since the last drain, indexed by track id.
    /// Out-of-range records have no track to charge and are excluded;
    /// see [`Tracer::dropped`] for the total. A non-zero entry means
    /// that track's span trees in this capture window are incomplete.
    pub fn dropped_by_track(&self) -> Vec<u64> {
        self.rings.iter().map(Ring::dropped).collect()
    }

    /// Slots a drain found claimed but not yet published, over the
    /// tracer's lifetime. Unlike [`dropped`](Self::dropped) this is
    /// *not* reset by [`drain`](Self::drain): the drain that tears a
    /// trace is the only place the loss can be seen, so the count must
    /// outlive it. Zero unless a drain raced a writer.
    pub fn torn(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }

    /// Drains every ring at a quiescent point, returning the events in
    /// canonical order — by track, then per-track program order — and
    /// resetting the rings, the drop counts and the tick clocks for the
    /// next capture window.
    ///
    /// The canonical order makes a drain deterministic regardless of
    /// how OS threads interleaved *across* tracks: only per-track order
    /// matters, and each track has a single logical writer.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.recorded() as usize);
        let mut torn = 0;
        for ring in self.rings.iter() {
            torn += ring.drain_into(&mut out);
            ring.reset();
        }
        self.torn.fetch_add(torn, Ordering::Relaxed);
        for tick in self.ticks.iter() {
            tick.store(0, Ordering::Relaxed);
        }
        self.out_of_range.store(0, Ordering::Relaxed);
        out
    }
}

/// The single-owner writer of a sim-domain run: [`record_at`] buffers
/// each track's events, hands a full buffer of 64 events to the track's
/// ring in one claim, and hands over every non-empty buffer when the
/// writer drops — at the end of the run, or as a panic unwinds it.
///
/// Per-event [`Tracer::record`] pays a locked read-modify-write on the
/// ring's claim counter, which waits for the slot stores ahead of it to
/// drain; one claim per batch takes that off the engines' hot loop.
/// What lands is byte-for-byte what per-event `record_at` calls in the
/// same order would leave: per-track order is call order, and on
/// overflow the first events that fit are kept and the rest counted.
/// Buffered events are not yet visible to [`Tracer::recorded`] or a
/// drain, and a track written both through a writer and directly would
/// interleave out of order — so every event of the run goes through
/// one writer. A track's buffer is allocated by its first event.
///
/// [`record_at`]: TraceWriter::record_at
pub struct TraceWriter<'a> {
    tracer: &'a Tracer,
    pending: Box<[Vec<Event>]>,
}

impl TraceWriter<'_> {
    /// [`Tracer::record_at`], buffered.
    #[inline]
    pub fn record_at(&mut self, track: usize, ts: u64, kind: EventKind, class: u32, arg: u64) {
        let Some(pending) = self.pending.get_mut(track) else {
            self.tracer.out_of_range.fetch_add(1, Ordering::Relaxed);
            return;
        };
        pending.push(Event {
            ts,
            arg,
            class,
            track: track as u32,
            kind,
        });
        if pending.len() == BATCH {
            self.tracer.rings[track].push_slice(pending);
            pending.clear();
        }
    }
}

impl Drop for TraceWriter<'_> {
    fn drop(&mut self) {
        for (ring, pending) in self.tracer.rings.iter().zip(self.pending.iter()) {
            ring.push_slice(pending);
        }
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// Installs (or returns) the process-wide default tracer used by the
/// span macros and the lock/RCU/syscall/fault hooks. One track per
/// possible core ([`pk_percpu::MAX_CORES`]); rings are `capacity`
/// slots, allocated as the cores that record fill them. Idempotent —
/// the first caller's capacity wins.
pub fn install_global(capacity: usize) -> &'static Tracer {
    GLOBAL.get_or_init(|| Tracer::new(pk_percpu::MAX_CORES, capacity))
}

/// The global tracer, if some harness installed one. Hooks call this
/// first; `None` (an untraced process) costs one atomic load.
#[inline]
pub fn global() -> Option<&'static Tracer> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_domain_ticks_are_per_track() {
        let t = Tracer::new(2, 16);
        t.record(0, EventKind::Instant, 1, 0);
        t.record(0, EventKind::Instant, 1, 0);
        t.record(1, EventKind::Instant, 1, 0);
        let events = t.drain();
        assert_eq!(
            events.iter().map(|e| (e.track, e.ts)).collect::<Vec<_>>(),
            [(0, 0), (0, 1), (1, 0)]
        );
    }

    #[test]
    fn drain_resets_clocks_and_rings() {
        let t = Tracer::new(1, 2);
        t.record(0, EventKind::Instant, 1, 0);
        t.record(0, EventKind::Instant, 1, 0);
        t.record(0, EventKind::Instant, 1, 0); // overflow
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.dropped_by_track(), vec![1]);
        assert_eq!(t.drain().len(), 2);
        assert_eq!(t.dropped(), 0);
        t.record(0, EventKind::Instant, 1, 0);
        let again = t.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].ts, 0, "tick clock must rewind on drain");
    }

    #[test]
    fn a_torn_drain_is_counted_and_the_count_survives_the_drain() {
        let t = Tracer::new(2, 8);
        t.record(1, EventKind::Instant, 1, 0);
        t.rings[1].claim_unpublished();
        assert_eq!(t.torn(), 0);
        assert_eq!(t.drain().len(), 1);
        assert_eq!(t.torn(), 1);
        assert_eq!(t.dropped(), 0, "a torn slot is not an overflow");
        assert!(t.drain().is_empty());
        assert_eq!(t.torn(), 1, "lifetime counter: a clean drain keeps it");
    }

    #[test]
    fn an_idle_track_allocates_nothing() {
        // The global tracer's shape: every possible core gets a 2 MB
        // promise, and only the cores that record pay for a chunk.
        let t = Tracer::new(pk_percpu::MAX_CORES, 1 << 16);
        let resident = |t: &Tracer| t.rings.iter().map(Ring::resident_slots).sum::<usize>();
        assert_eq!(resident(&t), 0);
        for i in 0..10 {
            t.record(i % 3, EventKind::Instant, 1, 0);
        }
        assert_eq!(resident(&t), 3 * crate::ring::CHUNK);
        assert_eq!(t.drain().len(), 10);
    }

    #[test]
    fn out_of_range_track_is_counted_not_panicking() {
        let t = Tracer::new(1, 4);
        t.record(9, EventKind::Instant, 1, 0);
        t.record_at(9, 5, EventKind::Instant, 1, 0);
        t.writer().record_at(9, 5, EventKind::Instant, 1, 0);
        assert_eq!(t.dropped(), 3);
        assert!(t.drain().is_empty());
    }

    /// A writer leaves the tracer exactly as per-event `record_at` calls
    /// in the same order do — streams, drops per track, lengths — over
    /// full batches, partial ones and an overflowing track.
    #[test]
    fn a_writer_records_what_per_event_calls_record() {
        let calls: Vec<(usize, u64)> = (0..5 * BATCH as u64 + 17)
            .map(|i| ((i * 7 % 3) as usize, i))
            .collect();
        let direct = Tracer::new(3, BATCH + 5);
        let batched = Tracer::new(3, BATCH + 5);
        {
            let mut w = batched.writer();
            for &(track, ts) in &calls {
                direct.record_at(track, ts, EventKind::Instant, 1, ts * 3);
                w.record_at(track, ts, EventKind::Instant, 1, ts * 3);
            }
            assert!(
                batched.recorded() < direct.recorded(),
                "buffered until drop"
            );
        }
        assert_eq!(batched.recorded(), direct.recorded());
        assert_eq!(batched.dropped_by_track(), direct.dropped_by_track());
        assert!(direct.dropped() > 0, "the run overflows a track");
        assert_eq!(batched.drain(), direct.drain());
    }

    #[test]
    fn a_writer_flushes_as_a_panic_unwinds() {
        let t = Tracer::new(2, 16);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = t.writer();
            w.record_at(1, 4, EventKind::Instant, 1, 0);
            panic!("engine bug");
        }));
        assert!(unwound.is_err());
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn disable_is_advisory_recording_still_works() {
        // The enabled flag is checked by the *hooks*; Tracer::record
        // itself stays unconditional so local harnesses can't lose
        // events to a stale flag.
        let t = Tracer::new(1, 4);
        t.disable();
        assert!(!t.is_enabled());
        t.record(0, EventKind::Instant, 1, 0);
        assert_eq!(t.drain().len(), 1);
    }
}
