//! Request-flow serving: the open-loop engine with *real* station
//! queues, built for per-request causal tracing (DESIGN.md §15).
//!
//! [`simulate_open`](crate::open::simulate_open) answers capacity
//! questions with a lumped service model: each request draws one total
//! service time, inflated by the in-service count, and a worker sleeps
//! through it. That is the right fidelity for shed/SLO sweeps, but it
//! cannot say *where* a slow request's cycles went — the inflation
//! spreads queueing uniformly across every station, while on the real
//! machine (and in the closed DES) queueing concentrates at the
//! saturated station. §5.2.1 of the paper is exactly that distinction:
//! 97% of stock Exim's cycles sat in one lock, not 97% spread evenly.
//!
//! The open side is not this engine's: arrivals, client hashing,
//! admission, shedding, deadlines and degradation all come from the
//! front end in `open.rs` (`FrontEnd`), the same object
//! `simulate_open` drives, so the two engines see one offered stream
//! and one policy by construction. What this engine adds is the
//! service side: each admitted request *traverses the station list
//! through per-station FIFOs* with the closed engine's service rules:
//!
//! * `Delay` stations never queue (perfectly parallel work);
//! * `Queue` stations serve one request at a time, FCFS;
//! * `NonScalable` stations additionally inflate the service mean at
//!   service start by `1 + collapse × waiters` — the §4.1 collapse
//!   (`StationKind::service_mean`, shared with the closed DES).
//!
//! At most `cores` requests are in the network at once (one per worker
//! slot); the admission queue holds the rest. Each slot is a trace
//! track, and when a [`Tracer`] is supplied the engine emits the full
//! causal record per request: a `CtxBegin`/`CtxEnd` envelope carrying
//! the deterministic request id, a zero-width admission-wait lock pair,
//! per-station span + wait-span + lock-hold events (lock classes from
//! the shared `pk-lockdep` registry), connect and stall spans. Folded
//! by `pk-why`, those events satisfy the accounting identity
//! `latency = admission wait + service + Σ station waits` exactly.
//!
//! Determinism contract: identical to `simulate_open` — every output,
//! including the trace stream, is a pure function of the inputs.

use crate::des::Draws;
use crate::mva::{Network, StationKind};
use crate::open::{
    scale_pct, schedule, ArrivalPattern, ClientMix, Event, Fate, FrontEnd, OpenLoopResult,
    OverloadPolicy, Request,
};
use pk_fault::FaultPlane;
use pk_trace::{EventKind, TraceWriter, Tracer};
use std::collections::VecDeque;

/// Span class for connection-establishment work (churned arrivals).
pub const CONNECT_CLASS: &str = "serve.connect";
/// Span class for slow-client stalls after service completes.
pub const STALL_CLASS: &str = "serve.stall";
/// Instant classes recorded on the admission track, `arg` = request id.
pub const REJECT_CLASS: &str = "serve.reject";
/// See [`REJECT_CLASS`].
pub const CANCEL_CLASS: &str = "serve.cancel";
/// See [`REJECT_CLASS`].
pub const NIC_DROP_CLASS: &str = "serve.nic_drop";

/// Ring capacity per track that guarantees a lossless capture of a
/// `requests`-arrival flow run (the sizing rule `pk-bench report tail` applies,
/// DESIGN.md §15): each request emits at most `8 + 6·stations` events
/// (ctx pair, admission pair, connect pair, stall pair, and per station
/// a span pair, a wait pair, and a lock pair), requests spread
/// round-robin across `cores` slot tracks, and the ×2 slack covers the
/// admission track — which sees one instant per shed/cancelled arrival
/// — and any residual imbalance from uneven request lifetimes.
pub fn flow_ring_capacity(requests: u64, cores: usize, stations: usize) -> usize {
    let per_request = 8 + 6 * stations as u64;
    let per_track = requests.div_ceil(cores.max(1) as u64).max(1);
    (per_track * per_request * 2).max(64) as usize
}

/// Where a request is in its traversal. A slot's scheduled event
/// always refers to the end of the phase it is currently *in*; waiting
/// requests have no scheduled event (their next event is created when
/// the station's server frees).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Paying connection-establishment cycles before station 0.
    Connect,
    /// In station `i`'s FIFO (serialized stations only).
    Waiting(usize),
    /// In service at station `i`.
    InService(usize),
    /// Paying the slow-client stall after the last station.
    Stalling,
}

/// One in-network request, owned by its worker slot.
#[derive(Debug, Clone, Copy)]
struct FlowReq {
    ctx: u64,
    arrival: u64,
    degraded: bool,
    /// Slow-client stall owed after the last station; 0 for none.
    stall_cycles: u64,
    phase: Phase,
    /// When the request entered its current station's FIFO.
    enqueued_at: u64,
}

/// Per-station serialization state (`Queue`/`NonScalable` only).
struct StationQueue {
    /// Whether a request is in service.
    busy: bool,
    /// Waiting slots, FCFS.
    fifo: VecDeque<u32>,
}

/// Resolved trace ids for one station.
#[derive(Clone, Copy)]
struct StationIds {
    span: u32,
    wait: u32,
    /// Lockdep class for serialized stations; `None` for delay.
    lock: Option<u32>,
}

/// Trace emitter: all recording funnels here so an untraced run costs
/// one branch per would-be event. The run owns every track of its
/// tracer, so it records through one batching [`TraceWriter`], which
/// flushes when the emitter drops at the end of the run.
struct Emit<'a> {
    writer: Option<TraceWriter<'a>>,
}

impl Emit<'_> {
    #[inline]
    fn rec(&mut self, track: u32, ts: u64, kind: EventKind, class: u32, arg: u64) {
        if let Some(w) = &mut self.writer {
            w.record_at(track as usize, ts, kind, class, arg);
        }
    }
}

/// Runs an open-loop request-flow simulation: `pattern` offers requests
/// exactly as [`simulate_open`](crate::open::simulate_open) does, under
/// the same `policy` and the same `net.rx_drop` fault point, but
/// admitted requests traverse `network`'s stations through real FIFOs
/// (see the module docs), and — when `tracer` is `Some` — every
/// request's path is recorded as a causal span tree on its worker
/// slot's track. The tracer needs at least `cores + 1` tracks: track
/// `cores` carries admission-side instants (sheds, rejects, cancels,
/// NIC drops).
///
/// Request ids are `pk_trace::request_id(seed, user, arrival_seq)`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_flow(
    network: &Network,
    cores: usize,
    pattern: ArrivalPattern,
    clients: ClientMix,
    policy: OverloadPolicy,
    horizon_cycles: u64,
    seed: u64,
    tracer: Option<&Tracer>,
    faults: &FaultPlane,
) -> OpenLoopResult {
    assert!(cores > 0, "request-flow serving needs at least one worker");
    assert!(
        !network.stations().is_empty(),
        "request-flow serving needs at least one station"
    );
    if let Some(t) = tracer {
        assert!(
            t.tracks() > cores,
            "tracer needs cores+1 tracks ({} for {cores} cores)",
            t.tracks()
        );
    }
    let stations = network.stations();
    let mut draws = Draws::new(seed);
    let (mut front, mut events) = FrontEnd::new(
        cores,
        pattern,
        clients,
        policy,
        horizon_cycles,
        seed,
        faults,
    );

    // Resolve every class id up front; zero ring work on the hot path.
    let ctx_class = pk_trace::REQUEST_CLASS.class_id();
    let admission_lock = pk_trace::ADMISSION_CLASS.id().raw();
    let connect_span = pk_trace::intern::intern_span(CONNECT_CLASS);
    let stall_span = pk_trace::intern::intern_span(STALL_CLASS);
    let reject_i = pk_trace::intern::intern_span(REJECT_CLASS);
    let cancel_i = pk_trace::intern::intern_span(CANCEL_CLASS);
    let nic_i = pk_trace::intern::intern_span(NIC_DROP_CLASS);
    let st_ids: Vec<StationIds> = stations
        .iter()
        .map(|st| StationIds {
            span: pk_trace::intern::intern_span(st.name),
            wait: pk_trace::intern::intern_span(&format!("{} (wait)", st.name)),
            lock: match st.kind {
                StationKind::Delay => None,
                StationKind::Queue | StationKind::NonScalable { .. } => Some(
                    pk_lockdep::register_class(
                        st.class.unwrap_or(st.name),
                        "pk-sim",
                        pk_lockdep::LockKind::Spin,
                    )
                    .raw(),
                ),
            },
        })
        .collect();
    let mut emit = Emit {
        writer: tracer.map(Tracer::writer),
    };
    let ctx_of = |req: &Request| pk_trace::request_id(seed, req.user, req.index);
    // A request that never reaches a worker leaves one instant on the
    // admission track (track `cores`), `arg` = its request id.
    let turned_away = |emit: &mut Emit, now: u64, class: u32, req: &Request| -> Option<Request> {
        emit.rec(cores as u32, now, EventKind::Instant, class, ctx_of(req));
        None
    };

    let mut slots: Vec<Option<FlowReq>> = vec![None; cores];
    // Round-robin slot reuse spreads requests evenly across trace
    // tracks (the ring-sizing rule in `flow_ring_capacity` relies on
    // it); the lumped engine reuses LIFO, but slot choice is invisible
    // to every OpenLoopResult field.
    let mut free: VecDeque<u32> = (0..cores as u32).collect();
    let mut st_q: Vec<StationQueue> = stations
        .iter()
        .map(|_| StationQueue {
            busy: false,
            fifo: VecDeque::new(),
        })
        .collect();

    // Draws one station service, applying degradation. Inflation is
    // applied to the *mean* (`StationKind::service_mean`), not the
    // drawn value, so the exponential shape is preserved.
    let draw = |draws: &mut Draws, mean: f64, degraded: bool| -> u64 {
        let s = draws.service(mean);
        if degraded {
            scale_pct(s, policy.degrade_demand_pct).max(1)
        } else {
            s
        }
    };

    // Starts service for `slot` at station `si` at time `now`. The
    // caller has already removed it from the FIFO / kept it out.
    macro_rules! start_service {
        ($slot:expr, $si:expr, $now:expr) => {{
            let slot = $slot;
            let si = $si;
            let now = $now;
            let req = slots[slot as usize]
                .as_mut()
                .expect("service on empty slot");
            let waited = now - req.enqueued_at;
            let mean = stations[si]
                .kind
                .service_mean(stations[si].demand_cycles, st_q[si].fifo.len());
            let svc = draw(&mut draws, mean, req.degraded);
            // A request that queued opened a wait span at entry; close
            // it even when the wait was zero-width (dequeued the same
            // cycle), or the stream leaves an unbalanced span.
            if matches!(req.phase, Phase::Waiting(_)) {
                emit.rec(slot, now, EventKind::SpanEnd, st_ids[si].wait, 0);
            }
            if let Some(lock) = st_ids[si].lock {
                emit.rec(slot, now, EventKind::LockBegin, lock, waited);
            }
            req.phase = Phase::InService(si);
            st_q[si].busy = true;
            schedule(&mut events, horizon_cycles, now, svc, slot);
        }};
    }

    // Moves `slot` into station `si` at time `now`.
    macro_rules! enter_station {
        ($slot:expr, $si:expr, $now:expr) => {{
            let slot: u32 = $slot;
            let si: usize = $si;
            let now: u64 = $now;
            let req = slots[slot as usize].as_mut().expect("enter on empty slot");
            emit.rec(slot, now, EventKind::SpanBegin, st_ids[si].span, 0);
            req.enqueued_at = now;
            match stations[si].kind {
                StationKind::Delay => {
                    let svc = draw(&mut draws, stations[si].demand_cycles, req.degraded);
                    req.phase = Phase::InService(si);
                    schedule(&mut events, horizon_cycles, now, svc, slot);
                }
                StationKind::Queue | StationKind::NonScalable { .. } => {
                    if st_q[si].busy {
                        emit.rec(slot, now, EventKind::SpanBegin, st_ids[si].wait, 0);
                        req.phase = Phase::Waiting(si);
                        st_q[si].fifo.push_back(slot);
                    } else {
                        start_service!(slot, si, now);
                    }
                }
            }
        }};
    }

    while let Some((now, event)) = front.next_event(&mut events) {
        // Either arm may hand a request to a free worker slot.
        let next = match event {
            Event::Arrival(req, Fate::Dispatch) => Some(req),
            Event::Arrival(_, Fate::Queued) => None,
            Event::Arrival(req, Fate::NicDropped) => turned_away(&mut emit, now, nic_i, &req),
            Event::Arrival(req, Fate::Rejected) => turned_away(&mut emit, now, reject_i, &req),
            // A slot's current phase ended.
            Event::Slot(slot) => {
                let req = *slots[slot as usize].as_ref().expect("event for empty slot");
                let finished = match req.phase {
                    Phase::Connect => {
                        emit.rec(slot, now, EventKind::SpanEnd, connect_span, 0);
                        enter_station!(slot, 0, now);
                        false
                    }
                    Phase::Waiting(_) => unreachable!("waiting requests have no scheduled event"),
                    Phase::InService(si) => {
                        if let Some(lock) = st_ids[si].lock {
                            emit.rec(slot, now, EventKind::LockEnd, lock, 0);
                        }
                        emit.rec(slot, now, EventKind::SpanEnd, st_ids[si].span, 0);
                        if st_ids[si].lock.is_some() {
                            st_q[si].busy = false;
                            if let Some(next) = st_q[si].fifo.pop_front() {
                                start_service!(next, si, now);
                            }
                        }
                        if si + 1 < stations.len() {
                            enter_station!(slot, si + 1, now);
                            false
                        } else if req.stall_cycles > 0 {
                            emit.rec(slot, now, EventKind::SpanBegin, stall_span, 0);
                            slots[slot as usize].as_mut().unwrap().phase = Phase::Stalling;
                            schedule(&mut events, horizon_cycles, now, req.stall_cycles, slot);
                            false
                        } else {
                            true
                        }
                    }
                    Phase::Stalling => {
                        emit.rec(slot, now, EventKind::SpanEnd, stall_span, 0);
                        true
                    }
                };
                if !finished {
                    continue;
                }
                // Retire the request and pull the next admitted one.
                slots[slot as usize] = None;
                free.push_back(slot);
                emit.rec(slot, now, EventKind::CtxEnd, ctx_class, req.ctx);
                front.complete(now, req.arrival, |q| {
                    turned_away(&mut emit, now, cancel_i, q);
                })
            }
        };
        if let Some(p) = next {
            // Dispatch an admitted request into the network.
            let charge = front.dispatch(&p);
            let slot = free.pop_front().expect("dispatch with no free worker");
            let ctx = ctx_of(&p);
            slots[slot as usize] = Some(FlowReq {
                ctx,
                arrival: p.arrival,
                degraded: charge.degraded,
                stall_cycles: charge.stall_cycles,
                phase: Phase::Connect,
                enqueued_at: now,
            });
            emit.rec(slot, now, EventKind::CtxBegin, ctx_class, ctx);
            // Admission wait rides as a zero-width lock pair at entry,
            // `arg` = cycles queued, so the fold attributes it without
            // needing a backdated span (track timestamps stay monotone).
            emit.rec(
                slot,
                now,
                EventKind::LockBegin,
                admission_lock,
                now - p.arrival,
            );
            emit.rec(slot, now, EventKind::LockEnd, admission_lock, 0);
            if charge.connect_cycles > 0 {
                emit.rec(slot, now, EventKind::SpanBegin, connect_span, 0);
                schedule(
                    &mut events,
                    horizon_cycles,
                    now,
                    charge.connect_cycles,
                    slot,
                );
            } else {
                enter_station!(slot, 0, now);
            }
        }
    }
    front.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::Station;
    use pk_trace::encode_stream;

    fn toy_network() -> Network {
        let mut n = Network::new();
        n.push(Station::delay("user", 800.0, false))
            .push(Station::queue("handoff", 40.0, true))
            .push(Station::spinlock("lock", 60.0, 0.3, true));
        n
    }

    fn poisson(gap: f64) -> ArrivalPattern {
        ArrivalPattern::Poisson {
            mean_interarrival_cycles: gap,
        }
    }

    fn run_traced(seed: u64) -> (OpenLoopResult, Vec<pk_trace::Event>) {
        let net = toy_network();
        let tracer = Tracer::new(5, flow_ring_capacity(5_000, 4, 3));
        let r = simulate_flow(
            &net,
            4,
            poisson(500.0),
            ClientMix {
                population: 1_000_000,
                mean_session_requests: 8,
                connect_cycles: 300,
                slow_per_mille: 20,
                stall_cycles: 5_000,
            },
            OverloadPolicy::observe(20_000),
            2_000_000,
            seed,
            Some(&tracer),
            &FaultPlane::disabled(),
        );
        assert_eq!(tracer.dropped(), 0, "ring sizing rule must hold");
        (r, tracer.drain())
    }

    #[test]
    fn deterministic_including_the_trace_stream() {
        let (a, ea) = run_traced(42);
        let (b, eb) = run_traced(42);
        assert_eq!(a.latency.buckets, b.latency.buckets);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completed, b.completed);
        assert_eq!(encode_stream(&ea), encode_stream(&eb));
        // Pinned: a reordered, lost or extra event changes the digest.
        assert_eq!(ea.len(), 59_482, "event count");
        assert_eq!(
            crate::stream_digest(&ea),
            0xb3f8_26db_cc91_1357,
            "stream digest"
        );
    }

    #[test]
    fn accounting_identity_holds_bounded_and_unbounded() {
        let net = toy_network();
        for cap in [0u32, 8] {
            let policy = if cap == 0 {
                OverloadPolicy::observe(10_000)
            } else {
                OverloadPolicy::shedding(cap, 10_000, 100, 100)
            };
            let r = simulate_flow(
                &net,
                2,
                poisson(300.0),
                ClientMix::uniform(1000),
                policy,
                1_000_000,
                7,
                None,
                &FaultPlane::disabled(),
            );
            assert_eq!(r.accounted(), r.arrivals, "identity broken at cap={cap}");
        }
    }

    #[test]
    fn arrival_side_matches_the_lumped_engine_under_every_policy_and_plane() {
        // Same seed, same pattern, same client mix, same plane: both
        // engines drive one front end, so they must see the identical
        // offered stream — arrivals, users, churn, slow clients, NIC
        // drops — whatever the admission policy, because the service side
        // must never perturb the arrival side in either engine. And
        // every arrival the front end turns away must leave exactly
        // one instant on the traced run's admission track.
        let net = toy_network();
        let clients = ClientMix {
            population: 1_000_000,
            mean_session_requests: 8,
            connect_cycles: 300,
            slow_per_mille: 20,
            stall_cycles: 5_000,
        };
        let plane = |drops: bool| {
            if !drops {
                return FaultPlane::disabled();
            }
            let plane = FaultPlane::with_seed(42);
            plane.set("net.rx_drop", pk_fault::FaultSchedule::EveryNth(10));
            plane.enable();
            plane
        };
        let mut cancels = 0;
        for cap in [0u32, 8] {
            for drops in [false, true] {
                let policy = if cap == 0 {
                    OverloadPolicy::observe(4_000)
                } else {
                    OverloadPolicy::shedding(cap, 4_000, 100, 100)
                };
                let case = format!("cap={cap} drops={drops}");
                let tracer = Tracer::new(3, 1 << 18);
                let f = simulate_flow(
                    &net,
                    2,
                    poisson(300.0),
                    clients,
                    policy,
                    1_000_000,
                    7,
                    Some(&tracer),
                    &plane(drops),
                );
                let o = crate::open::simulate_open(
                    &net,
                    2,
                    poisson(300.0),
                    clients,
                    policy,
                    1_000_000,
                    7,
                    &plane(drops),
                );
                assert_eq!(f.arrivals, o.arrivals, "{case}");
                assert_eq!(f.distinct_users, o.distinct_users, "{case}");
                assert_eq!(f.new_connections, o.new_connections, "{case}");
                assert_eq!(f.slow_requests, o.slow_requests, "{case}");
                assert_eq!(f.nic_dropped, o.nic_dropped, "{case}");
                assert_eq!(f.accounted(), f.arrivals, "{case}: flow leaked");
                assert_eq!(o.accounted(), o.arrivals, "{case}: open leaked");
                assert_eq!(f.nic_dropped > 0, drops, "{case}");

                assert_eq!(tracer.dropped(), 0, "{case}: ring overflow");
                let events = tracer.drain();
                let instants = |class: &str| {
                    let class = pk_trace::intern::intern_span(class);
                    events
                        .iter()
                        .filter(|e| {
                            e.track == 2 && e.kind == EventKind::Instant && e.class == class
                        })
                        .count() as u64
                };
                assert_eq!(instants(NIC_DROP_CLASS), f.nic_dropped, "{case}");
                assert_eq!(instants(REJECT_CLASS), f.rejected, "{case}");
                assert_eq!(instants(CANCEL_CLASS), f.deadline_cancelled, "{case}");
                cancels += f.deadline_cancelled;
                // The overloaded rows must actually exercise their path.
                assert_eq!(f.rejected > 0, cap > 0, "{case}");
            }
        }
        assert!(cancels > 0, "no row propagated a deadline");
    }

    #[test]
    fn trace_stream_is_balanced_and_ctx_enveloped() {
        let (r, events) = run_traced(42);
        let begins = events.iter().filter(|e| e.kind.is_begin()).count();
        let ends = events.iter().filter(|e| e.kind.is_end()).count();
        // In-flight requests at the horizon leave their envelope open.
        assert!(begins >= ends);
        let ctx_begin = events
            .iter()
            .filter(|e| e.kind == EventKind::CtxBegin)
            .count() as u64;
        let ctx_end = events
            .iter()
            .filter(|e| e.kind == EventKind::CtxEnd)
            .count() as u64;
        assert_eq!(ctx_end, r.completed, "one CtxEnd per completion");
        assert!(ctx_begin >= ctx_end);
        // Every ctx id is unique per direction: no cross-request reuse.
        let mut ids: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::CtxBegin)
            .map(|e| e.arg)
            .collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "request ids must be unique");
    }

    #[test]
    fn waits_concentrate_at_the_bottleneck_station() {
        // Saturate a network whose collapse lock dominates: nearly all
        // lock-wait cycles must attribute to it, not spread uniformly
        // (the property the lumped engine cannot express).
        let mut net = Network::new();
        net.push(Station::delay("user", 200.0, false))
            .push(Station::queue("fast", 10.0, true))
            .push(Station::spinlock("hot", 400.0, 0.3, true));
        let tracer = Tracer::new(5, 1 << 18);
        let r = simulate_flow(
            &net,
            4,
            poisson(150.0),
            ClientMix::uniform(1_000),
            OverloadPolicy::observe(0),
            2_000_000,
            42,
            Some(&tracer),
            &FaultPlane::disabled(),
        );
        assert!(r.completed > 100);
        let events = tracer.drain();
        // Admission wait is the "queue" term of the accounting
        // identity, not a lock-class wait — exclude it from the pool
        // (pk-why does the same).
        let adm = pk_trace::ADMISSION_CLASS.id().raw();
        let mut by_class: std::collections::BTreeMap<u32, u64> = Default::default();
        for e in &events {
            if e.kind == EventKind::LockBegin && e.class != adm {
                *by_class.entry(e.class).or_default() += e.arg;
            }
        }
        let hot = pk_lockdep::register_class("hot", "pk-sim", pk_lockdep::LockKind::Spin).raw();
        let total: u64 = by_class.values().sum();
        let hot_wait = by_class.get(&hot).copied().unwrap_or(0);
        assert!(
            hot_wait as f64 > 0.9 * total as f64,
            "bottleneck wait share {hot_wait}/{total}"
        );
    }

    #[test]
    fn huge_demands_saturate_in_both_engines() {
        // Every draw, connect and stall saturates at `u64::MAX` cycles:
        // completions land past any horizon, so the workers stay busy
        // to the end instead of wrapping to a time before `now`.
        let mut net = Network::new();
        net.push(Station::delay("huge", 1e20, false));
        let clients = ClientMix {
            population: 1000,
            mean_session_requests: 1,
            connect_cycles: u64::MAX,
            slow_per_mille: 1000,
            stall_cycles: u64::MAX,
        };
        let plane = FaultPlane::disabled();
        for policy in [
            OverloadPolicy::observe(0),
            OverloadPolicy::shedding(4, 1_000, 60, 50),
        ] {
            let (gap, horizon) = (poisson(500.0), 1_000_000);
            let flow = simulate_flow(&net, 2, gap, clients, policy, horizon, 42, None, &plane);
            let open =
                crate::open::simulate_open(&net, 2, gap, clients, policy, horizon, 42, &plane);
            for r in [flow, open] {
                assert_eq!(r.completed, 0, "{policy:?}");
                assert_eq!(r.in_flight_end, 2, "{policy:?}");
                assert_eq!(r.accounted(), r.arrivals, "{policy:?}");
            }
        }
        // Slow clients stall a worker for `u64::MAX` cycles, so the
        // queue fills behind them and degraded dispatches scale that
        // stall.
        let mut net = Network::new();
        net.push(Station::delay("fast", 2_000.0, false));
        let clients = ClientMix {
            population: 1000,
            mean_session_requests: 0,
            connect_cycles: 0,
            slow_per_mille: 300,
            stall_cycles: u64::MAX,
        };
        let policy = OverloadPolicy::shedding(4, 1_000_000_000, 60, 50);
        let (gap, horizon) = (poisson(500.0), 2_000_000);
        let flow = simulate_flow(&net, 8, gap, clients, policy, horizon, 42, None, &plane);
        let open = crate::open::simulate_open(&net, 8, gap, clients, policy, horizon, 42, &plane);
        for r in [flow, open] {
            assert!(r.degraded > 0, "{r:?}");
            assert_eq!(r.accounted(), r.arrivals);
        }
        assert_eq!(
            scale_pct(u64::MAX, 60),
            (u128::from(u64::MAX) * 3 / 5) as u64
        );
        assert_eq!(scale_pct(u64::MAX, 200), u64::MAX);
        assert_eq!(scale_pct(1_777, 60), 1_777 * 60 / 100);
    }

    #[test]
    fn ring_capacity_rule_covers_the_event_budget() {
        // 3 stations, 1000 requests, 4 cores: per-request budget is
        // 8 + 18 = 26 events; 250 requests/track; rule gives 2x slack.
        assert_eq!(flow_ring_capacity(1000, 4, 3), 250 * 26 * 2);
        assert!(flow_ring_capacity(0, 4, 3) >= 64);
    }
}
