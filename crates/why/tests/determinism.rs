//! The determinism and exactness contracts of the fold, over *real*
//! traced flow runs (DESIGN.md §15):
//!
//! 1. **Rerun identity** — same seed, same workload: folded requests,
//!    exemplar bytes, and attribution tables are byte-identical.
//! 2. **Migration invariance** — permuting track ids and re-interleaving
//!    the stream (what thread migration / worker renumbering does to a
//!    capture) changes nothing, as long as per-track order survives.
//!    Records keep their track-bound events, so requests are compared
//!    in materialised form: canonical bytes and cost.
//! 3. **Exactness** — every folded request satisfies
//!    `latency = queue + service + Σ waits + slack` with `slack = 0`
//!    in the flow engine, and the fold recovers exactly the requests
//!    the engine says completed.

use pk_fault::FaultPlane;
use pk_sim::{
    flow_ring_capacity, simulate_flow, ArrivalPattern, ClientMix, Network, OverloadPolicy, Station,
};
use pk_trace::{Event, Tracer};
use pk_why::{attribute, encode_exemplars, encode_tree, exemplars, fold, FoldOutput, RequestCost};
use proptest::prelude::*;

fn toy_network() -> Network {
    let mut n = Network::new();
    n.push(Station::delay("user", 600.0, false))
        .push(Station::queue("handoff", 40.0, true))
        .push(Station::spinlock("hot", 120.0, 0.3, true));
    n
}

fn traced_run(seed: u64) -> (u64, Vec<Event>) {
    let cores = 4;
    let net = toy_network();
    let tracer = Tracer::new(cores + 1, flow_ring_capacity(4_000, cores, 3));
    let r = simulate_flow(
        &net,
        cores,
        ArrivalPattern::Poisson {
            mean_interarrival_cycles: 400.0,
        },
        ClientMix {
            population: 100_000,
            mean_session_requests: 8,
            connect_cycles: 200,
            slow_per_mille: 20,
            stall_cycles: 3_000,
        },
        OverloadPolicy::observe(20_000),
        1_500_000,
        seed,
        Some(&tracer),
        &FaultPlane::disabled(),
    );
    assert_eq!(tracer.dropped(), 0, "sizing rule must hold");
    (r.completed, tracer.drain())
}

/// Everything the fold says about each request, with no track in it:
/// the canonical bytes (id, kind, envelope, span tree) and the cost.
fn materialise<'f>(f: &'f FoldOutput) -> Vec<(Vec<u8>, RequestCost<'f>)> {
    f.trees
        .iter()
        .map(|t| {
            let mut bytes = Vec::new();
            encode_tree(t, &mut bytes);
            (bytes, RequestCost::of(t))
        })
        .collect()
}

/// Relabels track `t` as `perm[t]` and re-interleaves the stream
/// round-robin across tracks: per-track order is preserved, everything
/// else about the layout changes.
fn migrate(events: &[Event], perm: &[u32]) -> Vec<Event> {
    let mut lanes: Vec<Vec<Event>> = vec![Vec::new(); perm.len()];
    for e in events {
        let mut e = *e;
        let from = e.track as usize;
        e.track = perm[from];
        lanes[from].push(e);
    }
    let mut out = Vec::with_capacity(events.len());
    let mut idx = vec![0usize; lanes.len()];
    loop {
        let mut any = false;
        for (lane, i) in lanes.iter().zip(idx.iter_mut()) {
            if *i < lane.len() {
                out.push(lane[*i]);
                *i += 1;
                any = true;
            }
        }
        if !any {
            return out;
        }
    }
}

#[test]
fn fold_recovers_exactly_the_completed_requests_with_zero_slack() {
    let (completed, events) = traced_run(42);
    let f = fold(&events);
    assert_eq!(f.trees.len() as u64, completed);
    assert_eq!(f.malformed, 0);
    assert!(completed > 500, "the run must exercise the engine");
    for t in &f.trees {
        let c = RequestCost::of(t);
        assert_eq!(c.slack, 0, "flow spans are contiguous");
        assert_eq!(
            c.latency,
            c.queue + c.service + c.wait_total() + c.slack,
            "identity must be exact for ctx {:#x}",
            t.ctx
        );
    }
}

#[test]
fn rerun_produces_byte_identical_exemplars_and_attribution() {
    let (_, ea) = traced_run(42);
    let (_, eb) = traced_run(42);
    let (fa, fb) = (fold(&ea), fold(&eb));
    assert_eq!(materialise(&fa), materialise(&fb));
    assert_eq!(
        encode_exemplars(&exemplars(&fa.trees, 5, 42)),
        encode_exemplars(&exemplars(&fb.trees, 5, 42))
    );
    let costs_a: Vec<RequestCost> = fa.trees.iter().map(RequestCost::of).collect();
    let costs_b: Vec<RequestCost> = fb.trees.iter().map(RequestCost::of).collect();
    assert_eq!(attribute(&costs_a, 0.999), attribute(&costs_b, 0.999));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forced thread migration: an arbitrary rotation of track ids
    /// plus a full re-interleave of the stream must not change a byte
    /// of the folded trees or the exemplar encoding.
    #[test]
    fn fold_is_invariant_under_track_permutation(seed in 1u64..64, rot in 1u32..5) {
        let (_, events) = traced_run(seed);
        let perm: Vec<u32> = (0..5u32).map(|t| (t + rot) % 5).collect();
        let migrated = migrate(&events, &perm);
        let (a, b) = (fold(&events), fold(&migrated));
        prop_assert_eq!(materialise(&a), materialise(&b));
        prop_assert_eq!(a.in_flight, b.in_flight);
        prop_assert_eq!(
            encode_exemplars(&exemplars(&a.trees, 5, seed)),
            encode_exemplars(&exemplars(&b.trees, 5, seed))
        );
    }

    /// The exemplar set is a deterministic function of (trees, k, seed)
    /// and always the K slowest by identity latency.
    #[test]
    fn exemplars_are_the_k_slowest(seed in 1u64..32, k in 1usize..8) {
        let (_, events) = traced_run(seed);
        let trees = fold(&events).trees;
        let ex = exemplars(&trees, k, seed);
        prop_assert_eq!(ex.len(), k.min(trees.len()));
        let floor = ex.iter().map(|t| RequestCost::of(t).latency).min().unwrap();
        let below = trees.iter().filter(|t| RequestCost::of(t).latency > floor).count();
        prop_assert!(below < k, "a slower-than-floor tree was left out");
    }
}
