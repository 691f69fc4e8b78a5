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
//! This engine keeps the open side of `simulate_open` byte-for-byte in
//! spirit — same arrival processes, same client hashing, same
//! admission/shed/deadline/degradation policy decisions in the same
//! order — but each admitted request then *traverses the station list
//! through per-station FIFOs* with the closed engine's service rules:
//!
//! * `Delay` stations never queue (perfectly parallel work);
//! * `Queue` stations serve one request at a time, FCFS;
//! * `NonScalable` stations additionally inflate the service mean at
//!   service start by `1 + collapse × waiters` — the §4.1 collapse.
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

use crate::des::wheel::{EventWheel, WheelEvent};
use crate::mva::{Network, StationKind};
use crate::open::{ArrivalPattern, ClientMix, OpenLoopResult, OverloadPolicy, ShedPolicy};
use pk_fault::FaultPlane;
use pk_trace::{EventKind, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Lock-class name charged for time spent in the admission queue.
pub const ADMISSION_CLASS: &str = "serve.admission_queue";
/// Span class for connection-establishment work (churned arrivals).
pub const CONNECT_CLASS: &str = "serve.connect";
/// Span class for slow-client stalls after service completes.
pub const STALL_CLASS: &str = "serve.stall";
/// Instant classes recorded on the admission track, `arg` = request id.
pub const SHED_CLASS: &str = "serve.shed";
/// See [`SHED_CLASS`].
pub const REJECT_CLASS: &str = "serve.reject";
/// See [`SHED_CLASS`].
pub const CANCEL_CLASS: &str = "serve.cancel";
/// See [`SHED_CLASS`].
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

/// SplitMix64 finalizer — must match `open.rs` exactly so the two
/// engines agree on which arrival is which user / slow / churned.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Single-event pop adapter over the batch-draining [`EventWheel`];
/// same shape as the one in `open.rs` (completions scheduled from
/// mid-batch must merge into the live sorted batch).
struct WheelQueue {
    wheel: EventWheel,
    buf: Vec<WheelEvent>,
    pos: usize,
    horizon: u64,
}

impl WheelQueue {
    fn new(max_service_cycles: f64, lanes: usize) -> Self {
        Self {
            wheel: EventWheel::new(max_service_cycles, lanes),
            buf: Vec::new(),
            pos: 0,
            horizon: 0,
        }
    }

    fn push(&mut self, t: u64, seq: u64, id: u32) {
        if t < self.horizon {
            let at =
                self.buf[self.pos..].partition_point(|&(bt, bs, _)| (bt, bs) < (t, seq)) + self.pos;
            self.buf.insert(at, (t, seq, id));
        } else {
            self.wheel.push(t, seq, id);
        }
    }

    fn pop(&mut self) -> Option<WheelEvent> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.horizon = self.wheel.next_batch(&mut self.buf)?;
        }
        let e = self.buf[self.pos];
        self.pos += 1;
        Some(e)
    }
}

const ARRIVAL: u32 = u32::MAX;

/// Where a request is in its traversal. A slot's scheduled wheel event
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
    slow: bool,
    degraded: bool,
    phase: Phase,
    /// When the request entered its current station's FIFO.
    enqueued_at: u64,
}

/// A queued (admitted but not yet in-network) request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    ctx: u64,
    arrival: u64,
    new_connection: bool,
    slow: bool,
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
/// one branch per would-be event.
struct Emit<'a> {
    tracer: Option<&'a Tracer>,
}

impl Emit<'_> {
    #[inline]
    fn rec(&self, track: u32, ts: u64, kind: EventKind, class: u32, arg: u64) {
        if let Some(t) = self.tracer {
            t.record_at(track as usize, ts, kind, class, 0, arg);
        }
    }
}

/// Runs an open-loop request-flow simulation: `pattern` offers requests
/// exactly as [`simulate_open`](crate::open::simulate_open) does, under
/// the same `policy`, but admitted requests traverse `network`'s
/// stations through real FIFOs (see the module docs), and — when
/// `tracer` is `Some` — every request's path is recorded as a causal
/// span tree on its worker slot's track. The tracer needs at least
/// `cores + 1` tracks: track `cores` carries admission-side instants
/// (sheds, rejects, cancels, NIC drops).
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
) -> OpenLoopResult {
    simulate_flow_with_faults(
        network,
        cores,
        pattern,
        clients,
        policy,
        horizon_cycles,
        seed,
        tracer,
        &FaultPlane::disabled(),
    )
}

/// [`simulate_flow`] with a fault plane: consults `net.rx_drop` on
/// every arrival before admission, same as
/// [`simulate_open_with_faults`](crate::open::simulate_open_with_faults);
/// dropped arrivals record a `serve.nic_drop` instant on the admission
/// track.
#[allow(clippy::too_many_arguments)]
pub fn simulate_flow_with_faults(
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
    let mut svc_rng = SmallRng::seed_from_u64(seed);
    let mut arr_rng = SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_1234_5678);
    let rx_drop = faults.point("net.rx_drop");

    // Resolve every class id up front; zero ring work on the hot path.
    let ctx_class = pk_trace::REQUEST_CLASS.class_id();
    let admission_lock =
        pk_lockdep::register_class(ADMISSION_CLASS, "pk-sim", pk_lockdep::LockKind::Ticket).raw();
    let connect_span = pk_trace::intern::intern_span(CONNECT_CLASS);
    let stall_span = pk_trace::intern::intern_span(STALL_CLASS);
    let shed_i = pk_trace::intern::intern_span(SHED_CLASS);
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
    let emit = Emit { tracer };
    let adm_track = cores as u32;

    let max_demand = stations
        .iter()
        .map(|s| s.demand_cycles)
        .fold(0.0_f64, f64::max);
    let mut events = WheelQueue::new(max_demand.max(1.0) * cores as f64, cores + 1);
    let mut seq = 0u64;

    let mut slots: Vec<Option<FlowReq>> = vec![None; cores];
    // Round-robin slot reuse spreads requests evenly across trace
    // tracks (the ring-sizing rule in `flow_ring_capacity` relies on
    // it); `open.rs` uses LIFO, but slot choice is invisible to every
    // OpenLoopResult field, so the engines still agree on semantics.
    let mut free: VecDeque<u32> = (0..cores as u32).collect();
    let mut in_network = 0usize;
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut st_q: Vec<StationQueue> = stations
        .iter()
        .map(|_| StationQueue {
            busy: false,
            fifo: VecDeque::new(),
        })
        .collect();

    let hist = pk_obs::Histogram::new(cores);
    let mut users = std::collections::HashSet::new();
    let mut r = OpenLoopResult {
        latency: pk_obs::HistogramSnapshot {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
        },
        arrivals: 0,
        completed: 0,
        slo_violations: 0,
        rejected: 0,
        shed_oldest: 0,
        shed_probabilistic: 0,
        deadline_cancelled: 0,
        nic_dropped: 0,
        degraded: 0,
        distinct_users: 0,
        new_connections: 0,
        slow_requests: 0,
        queue_depth_end: 0,
        queue_depth_peak: 0,
        in_flight_end: 0,
        horizon_cycles,
    };

    // Draws one station service, applying degradation. Inflation is
    // applied to the *mean* (matching the closed engine's
    // `service_params`), not the drawn value, so the exponential shape
    // is preserved.
    let draw = |rng: &mut SmallRng, mean: f64, degraded: bool| -> u64 {
        let s = crate::des::service(rng, mean);
        if degraded {
            (s * policy.degrade_demand_pct as u64 / 100).max(1)
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
            let mean = match stations[si].kind {
                StationKind::NonScalable { collapse } => {
                    stations[si].demand_cycles * (1.0 + collapse * st_q[si].fifo.len() as f64)
                }
                _ => stations[si].demand_cycles,
            };
            let svc = draw(&mut svc_rng, mean, req.degraded);
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
            events.push(now + svc, seq, slot);
            seq += 1;
        }};
    }

    // Moves `slot` into station `si` (or finishes if past the last) at
    // time `now`.
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
                    let svc = draw(&mut svc_rng, stations[si].demand_cycles, req.degraded);
                    req.phase = Phase::InService(si);
                    events.push(now + svc, seq, slot);
                    seq += 1;
                }
                StationKind::Queue | StationKind::NonScalable { .. } => {
                    if st_q[si].busy {
                        emit.rec(slot, now, EventKind::SpanBegin, st_ids[si].wait, 0);
                        slots[slot as usize].as_mut().unwrap().phase = Phase::Waiting(si);
                        st_q[si].fifo.push_back(slot);
                    } else {
                        start_service!(slot, si, now);
                    }
                }
            }
        }};
    }

    // Dispatches an admitted request into the network at `now`.
    macro_rules! dispatch {
        ($p:expr, $now:expr) => {{
            let p: Pending = $p;
            let now: u64 = $now;
            let degraded =
                policy.degrade_watermark > 0 && queue.len() >= policy.degrade_watermark as usize;
            if degraded {
                r.degraded += 1;
            }
            in_network += 1;
            let slot = free.pop_front().expect("dispatch with no free worker");
            slots[slot as usize] = Some(FlowReq {
                ctx: p.ctx,
                arrival: p.arrival,
                slow: p.slow,
                degraded,
                phase: Phase::Connect,
                enqueued_at: now,
            });
            emit.rec(slot, now, EventKind::CtxBegin, ctx_class, p.ctx);
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
            if p.new_connection && clients.connect_cycles > 0 {
                emit.rec(slot, now, EventKind::SpanBegin, connect_span, 0);
                events.push(now + clients.connect_cycles, seq, slot);
                seq += 1;
            } else {
                enter_station!(slot, 0, now);
            }
        }};
    }

    // Retires `slot`'s request at `now`, then pulls the next admitted
    // request (cancelling any whose deadline already passed — deadline
    // propagation, same order as open.rs).
    macro_rules! complete {
        ($slot:expr, $now:expr) => {{
            let slot: u32 = $slot;
            let now: u64 = $now;
            let req = slots[slot as usize].take().expect("complete on empty slot");
            in_network -= 1;
            free.push_back(slot);
            emit.rec(slot, now, EventKind::CtxEnd, ctx_class, req.ctx);
            let latency = now - req.arrival;
            hist.record(pk_percpu::CoreId(slot as usize % cores), latency);
            r.completed += 1;
            if policy.slo_budget_cycles > 0 && latency > policy.slo_budget_cycles {
                r.slo_violations += 1;
            }
            while let Some(q) = queue.pop_front() {
                if policy.deadline_propagation
                    && policy.slo_budget_cycles > 0
                    && now - q.arrival > policy.slo_budget_cycles
                {
                    r.deadline_cancelled += 1;
                    emit.rec(adm_track, now, EventKind::Instant, cancel_i, q.ctx);
                    continue;
                }
                dispatch!(q, now);
                break;
            }
        }};
    }

    let first = pattern.next_after(0, &mut arr_rng);
    if first < horizon_cycles {
        events.push(first, seq, ARRIVAL);
        seq += 1;
    }

    while let Some((now, _, id)) = events.pop() {
        if now >= horizon_cycles {
            break;
        }
        if id == ARRIVAL {
            // Next arrival first: the arrival RNG stream must never
            // depend on admission decisions (same rule as open.rs).
            let next = pattern.next_after(now, &mut arr_rng);
            if next < horizon_cycles {
                events.push(next, seq, ARRIVAL);
                seq += 1;
            }
            let i = r.arrivals;
            r.arrivals += 1;

            let h = mix64(seed ^ mix64(i.wrapping_add(0x5eed_c11e)));
            let user = h % clients.population.max(1);
            users.insert(user);
            let new_connection = clients.mean_session_requests > 0
                && mix64(h ^ 1).is_multiple_of(clients.mean_session_requests as u64);
            let slow =
                clients.slow_per_mille > 0 && (mix64(h ^ 2) % 1000) < clients.slow_per_mille as u64;
            if new_connection {
                r.new_connections += 1;
            }
            if slow {
                r.slow_requests += 1;
            }
            let ctx = pk_trace::request_id(seed, user, i);
            let p = Pending {
                ctx,
                arrival: now,
                new_connection,
                slow,
            };

            if rx_drop.should_inject() {
                r.nic_dropped += 1;
                emit.rec(adm_track, now, EventKind::Instant, nic_i, ctx);
                continue;
            }

            if in_network < cores {
                dispatch!(p, now);
            } else {
                let depth = queue.len() as u64;
                let cap = policy.admission_cap as u64;
                if cap > 0 && depth >= cap {
                    match policy.shed {
                        ShedPolicy::DropNewest | ShedPolicy::Probabilistic => {
                            r.rejected += 1;
                            emit.rec(adm_track, now, EventKind::Instant, reject_i, ctx);
                        }
                        ShedPolicy::DropOldest => {
                            if let Some(old) = queue.pop_front() {
                                r.shed_oldest += 1;
                                emit.rec(adm_track, now, EventKind::Instant, shed_i, old.ctx);
                            }
                            queue.push_back(p);
                        }
                    }
                } else if cap > 0
                    && policy.shed == ShedPolicy::Probabilistic
                    && (mix64(h ^ 3) % cap) < depth
                {
                    r.shed_probabilistic += 1;
                    emit.rec(adm_track, now, EventKind::Instant, shed_i, ctx);
                } else {
                    queue.push_back(p);
                    r.queue_depth_peak = r.queue_depth_peak.max(queue.len() as u64);
                }
            }
        } else {
            // A slot's current phase ended.
            let slot = id;
            let req = *slots[slot as usize].as_ref().expect("event for empty slot");
            match req.phase {
                Phase::Connect => {
                    emit.rec(slot, now, EventKind::SpanEnd, connect_span, 0);
                    enter_station!(slot, 0, now);
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
                    } else if req.slow {
                        let stall = if req.degraded {
                            clients.stall_cycles * policy.degrade_stall_pct as u64 / 100
                        } else {
                            clients.stall_cycles
                        };
                        if stall > 0 {
                            emit.rec(slot, now, EventKind::SpanBegin, stall_span, 0);
                            slots[slot as usize].as_mut().unwrap().phase = Phase::Stalling;
                            events.push(now + stall, seq, slot);
                            seq += 1;
                        } else {
                            complete!(slot, now);
                        }
                    } else {
                        complete!(slot, now);
                    }
                }
                Phase::Stalling => {
                    emit.rec(slot, now, EventKind::SpanEnd, stall_span, 0);
                    complete!(slot, now);
                }
            }
        }
    }

    r.queue_depth_end = queue.len() as u64;
    r.in_flight_end = in_network as u64;
    r.distinct_users = users.len() as u64;
    r.latency = hist.snapshot();
    r
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
    }

    #[test]
    fn accounting_identity_holds_under_every_shed_policy() {
        let net = toy_network();
        for &(cap, shed) in &[
            (0u32, ShedPolicy::DropNewest),
            (8, ShedPolicy::DropNewest),
            (8, ShedPolicy::DropOldest),
            (8, ShedPolicy::Probabilistic),
        ] {
            let policy = if cap == 0 {
                OverloadPolicy::observe(10_000)
            } else {
                OverloadPolicy::shedding(cap, shed, 10_000)
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
            );
            assert_eq!(
                r.accounted(),
                r.arrivals,
                "identity broken under {shed:?} cap={cap}"
            );
        }
    }

    #[test]
    fn arrival_stream_matches_the_lumped_engine() {
        // Same seed, same pattern, same client mix: the two engines
        // must see the identical offered stream — arrivals, users,
        // churn, slow clients — because the service side must never
        // perturb the arrival side in either engine.
        let net = toy_network();
        let clients = ClientMix {
            population: 1_000_000,
            mean_session_requests: 8,
            connect_cycles: 300,
            slow_per_mille: 20,
            stall_cycles: 5_000,
        };
        let f = simulate_flow(
            &net,
            4,
            poisson(500.0),
            clients,
            OverloadPolicy::observe(20_000),
            2_000_000,
            42,
            None,
        );
        let o = crate::open::simulate_open(
            &net,
            4,
            poisson(500.0),
            clients,
            OverloadPolicy::observe(20_000),
            2_000_000,
            42,
        );
        assert_eq!(f.arrivals, o.arrivals);
        assert_eq!(f.distinct_users, o.distinct_users);
        assert_eq!(f.new_connections, o.new_connections);
        assert_eq!(f.slow_requests, o.slow_requests);
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
        );
        assert!(r.completed > 100);
        let events = tracer.drain();
        // Admission wait is the "queue" term of the accounting
        // identity, not a lock-class wait — exclude it from the pool
        // (pk-why does the same).
        let adm =
            pk_lockdep::register_class(ADMISSION_CLASS, "pk-sim", pk_lockdep::LockKind::Ticket)
                .raw();
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
    fn ring_capacity_rule_covers_the_event_budget() {
        // 3 stations, 1000 requests, 4 cores: per-request budget is
        // 8 + 18 = 26 events; 250 requests/track; rule gives 2x slack.
        assert_eq!(flow_ring_capacity(1000, 4, 3), 250 * 26 * 2);
        assert!(flow_ring_capacity(0, 4, 3) >= 64);
    }
}
