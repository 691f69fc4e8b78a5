//! Property tests for trace determinism (the tentpole contract): the
//! drained, encoded event stream is a pure function of the per-track
//! record sequences — never of which OS thread delivered them or how
//! the scheduler interleaved the tracks.
//!
//! Thread migration is modelled the way it happens in the functional
//! drivers: a logical track's events arrive in program order, but the
//! thread doing the recording changes between stages. Stages are
//! separated by a barrier (the happens-before a real driver gets from
//! handing a connection to another worker), while *different* tracks
//! race freely within a stage.

use pk_trace::{encode_stream, Event, EventKind, Tracer, ENCODED_EVENT_BYTES};
use proptest::prelude::*;
use std::sync::Barrier;
use std::thread;

/// Splitmix64: deterministic event content from (seed, track, stage, i).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn kind_of(x: u64) -> EventKind {
    match x % 4 {
        0 => EventKind::SpanBegin,
        1 => EventKind::SpanEnd,
        _ => EventKind::Instant,
    }
}

/// Replays the same logical plan: `stages × per_stage` events per
/// track, with track `k`'s stage `s` recorded by thread
/// `(k + s) % threads` — so every track migrates across every thread —
/// and returns the canonical encoded stream plus the drop count.
fn run_plan(
    tracks: usize,
    threads: usize,
    stages: usize,
    per_stage: u64,
    seed: u64,
    capacity: usize,
) -> (Vec<u8>, u64) {
    let tracer = Tracer::new(tracks, capacity);
    let barrier = Barrier::new(threads);
    thread::scope(|s| {
        for t in 0..threads {
            let tracer = &tracer;
            let barrier = &barrier;
            s.spawn(move || {
                for stage in 0..stages {
                    barrier.wait();
                    for k in 0..tracks {
                        if (k + stage) % threads != t {
                            continue;
                        }
                        for i in 0..per_stage {
                            let x = mix(seed ^ ((k as u64) << 40) ^ ((stage as u64) << 20) ^ i);
                            tracer.record(k, kind_of(x), (x >> 8) as u32 % 64, x >> 32);
                        }
                    }
                }
            });
        }
    });
    let dropped = tracer.dropped(); // drain() resets the drop counter
    let events: Vec<Event> = tracer.drain();
    (encode_stream(&events), dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two runs of the same plan from racing, migrating threads drain
    /// byte-identical streams with identical drop accounting.
    #[test]
    fn same_seed_drains_byte_identical_streams(
        tracks in 1..5usize,
        threads in 1..4usize,
        stages in 1..4usize,
        per_stage in 0..60u64,
        seed in any::<u64>(),
    ) {
        let capacity = (stages as u64 * per_stage).max(1) as usize;
        let a = run_plan(tracks, threads, stages, per_stage, seed, capacity);
        let b = run_plan(tracks, threads, stages, per_stage, seed, capacity);
        prop_assert_eq!(&a.0, &b.0, "streams diverged");
        prop_assert_eq!(a.1, b.1, "drop counts diverged");
        prop_assert_eq!(a.1, 0, "capacity covers the plan");
        prop_assert_eq!(
            a.0.len(),
            tracks * stages * per_stage as usize * ENCODED_EVENT_BYTES
        );
    }

    /// Overflow is deterministic too: the same undersized ring drops
    /// the same events, and the drop count equals the excess.
    #[test]
    fn overflow_is_counted_and_reproducible(
        per_stage in 1..80u64,
        capacity in 1..32usize,
        seed in any::<u64>(),
    ) {
        let a = run_plan(2, 2, 2, per_stage, seed, capacity);
        let b = run_plan(2, 2, 2, per_stage, seed, capacity);
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(a.1, b.1);
        let per_track = 2 * per_stage;
        let expect_dropped = 2 * per_track.saturating_sub(capacity as u64);
        prop_assert_eq!(a.1, expect_dropped);
        let kept = (per_track.min(capacity as u64) * 2) as usize;
        prop_assert_eq!(a.0.len(), kept * ENCODED_EVENT_BYTES);
    }
}

/// `trace-off` contract: the macros and hooks compile to nothing — no
/// events reach an installed, enabled tracer, and the RAII guard has
/// no size (so a span in a hot struct costs zero bytes).
#[cfg(feature = "trace-off")]
mod trace_off {
    #[test]
    fn macros_record_nothing_and_guard_is_zero_sized() {
        assert_eq!(
            std::mem::size_of::<pk_trace::SpanGuard>(),
            0,
            "SpanGuard must be a ZST under trace-off"
        );
        let t = pk_trace::install_global(pk_trace::DEFAULT_RING_CAPACITY);
        t.enable();
        {
            let _g = pk_trace::trace_span!("off.outer");
            pk_trace::trace_instant!("off.tick");
        }
        let cell = pk_lockdep::ClassCell::new();
        cell.set_class(pk_lockdep::register_class(
            "off.lock",
            "pk-trace",
            pk_lockdep::LockKind::Spin,
        ));
        pk_trace::lock_acquired(&cell, pk_lockdep::LockKind::Spin, 1);
        pk_trace::lock_released(&cell, pk_lockdep::LockKind::Spin);
        assert_eq!(t.recorded(), 0, "hooks must not record");
        assert_eq!(t.dropped(), 0);
        assert!(t.drain().is_empty(), "no events under trace-off");
    }
}
