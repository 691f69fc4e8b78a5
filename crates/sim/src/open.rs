//! Open-loop serving: seeded arrival processes driving the closed
//! queueing networks as *servers* instead of saturated clients.
//!
//! Every other entry point in this crate is closed-loop — `cores`
//! customers cycle forever, so the system can never be *overloaded*,
//! only slow. Real front ends (Exim, memcached, Apache — §5 of the
//! paper) face the opposite regime: requests arrive whether or not
//! capacity exists, queues grow without bound past saturation, and
//! the interesting metric is the latency *tail*, not the throughput
//! mean. This module adds that regime:
//!
//! * [`ArrivalPattern`] — deterministic seeded arrival processes
//!   (Poisson, bursty on/off, diurnal phase schedules);
//! * [`ClientMix`] — a client-population abstraction: millions of
//!   distinct users hashed statelessly from the request sequence
//!   number, with connection churn and slow-client stalls;
//! * [`OverloadPolicy`] / [`ShedPolicy`] — bounded admission queues,
//!   load shedding, per-request deadline propagation, and graceful
//!   degradation, all `Copy + Eq` so `KernelConfig` can carry them
//!   as a sweepable axis like every other knob;
//! * [`simulate_open`] — the engine: an M/G/c-style discrete-event
//!   loop over the calendar-queue [`EventWheel`](crate::des::wheel),
//!   drawing per-request service from the same exponential stream the
//!   closed engines use, with closed-MVA-style inflation (`Queue`
//!   stations serialize, `NonScalable` stations collapse) so a stock
//!   kernel's tail degrades *faster* than PK's as load climbs.
//!
//! Determinism contract: every output of [`simulate_open`] is a pure
//! function of `(network, cores, pattern, clients, policy,
//! horizon_cycles, seed, fault plane)` — byte-identical across runs,
//! platforms, and opt levels, like the closed engines.

use crate::des::wheel::{EventWheel, WheelEvent};
use crate::mva::{Network, StationKind};
use pk_fault::FaultPlane;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// SplitMix64 finalizer — the stateless hash behind client-population
/// draws and probabilistic shedding. Same construction as
/// `pk-fault`'s schedule hashing, local so the engine has no hidden
/// coupling to the plane's internals.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic seeded arrival process. All rates are expressed as
/// mean interarrival gaps in cycles, so patterns compose with any
/// machine clock without unit juggling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals: exponential gaps with the given mean.
    Poisson {
        /// Mean cycles between arrivals.
        mean_interarrival_cycles: f64,
    },
    /// Bursty on/off source: Poisson at `mean_interarrival_cycles`
    /// during `on_cycles`-long bursts, silent for `off_cycles`
    /// between them. Arrivals that would land in an off window are
    /// deferred to the next burst start — the thundering herd a
    /// keepalive-timeout stampede produces.
    OnOff {
        /// Mean cycles between arrivals while the source is on.
        mean_interarrival_cycles: f64,
        /// Length of each on (burst) window, cycles.
        on_cycles: u64,
        /// Length of each off (silent) window, cycles.
        off_cycles: u64,
    },
    /// Diurnal phase schedule: alternating peak/trough Poisson phases
    /// of `phase_cycles` each — a day/night cycle compressed to
    /// simulation scale.
    Diurnal {
        /// Mean interarrival during peak phases, cycles.
        peak_interarrival_cycles: f64,
        /// Mean interarrival during trough phases, cycles.
        trough_interarrival_cycles: f64,
        /// Length of each phase, cycles.
        phase_cycles: u64,
    },
}

impl ArrivalPattern {
    /// The pattern with every rate scaled by `load` (interarrival
    /// gaps divided by it): `scaled(2.0)` doubles the offered load —
    /// the 2× overload axis of `pk-bench report latency`.
    #[must_use]
    pub fn scaled(self, load: f64) -> Self {
        match self {
            Self::Poisson {
                mean_interarrival_cycles,
            } => Self::Poisson {
                mean_interarrival_cycles: mean_interarrival_cycles / load,
            },
            Self::OnOff {
                mean_interarrival_cycles,
                on_cycles,
                off_cycles,
            } => Self::OnOff {
                mean_interarrival_cycles: mean_interarrival_cycles / load,
                on_cycles,
                off_cycles,
            },
            Self::Diurnal {
                peak_interarrival_cycles,
                trough_interarrival_cycles,
                phase_cycles,
            } => Self::Diurnal {
                peak_interarrival_cycles: peak_interarrival_cycles / load,
                trough_interarrival_cycles: trough_interarrival_cycles / load,
                phase_cycles,
            },
        }
    }

    /// Long-run mean interarrival gap, cycles — the normalizing
    /// constant callers use to size horizons (`requests × mean gap`).
    pub fn mean_interarrival_cycles(&self) -> f64 {
        match *self {
            Self::Poisson {
                mean_interarrival_cycles,
            } => mean_interarrival_cycles,
            // The source emits at the burst rate only for the on
            // fraction of each period.
            Self::OnOff {
                mean_interarrival_cycles,
                on_cycles,
                off_cycles,
            } => {
                let period = (on_cycles + off_cycles) as f64;
                mean_interarrival_cycles * period / on_cycles.max(1) as f64
            }
            Self::Diurnal {
                peak_interarrival_cycles,
                trough_interarrival_cycles,
                ..
            } => {
                // Equal phase lengths: the mean *rate* is the average
                // of the two phase rates.
                let rate = 0.5 / peak_interarrival_cycles + 0.5 / trough_interarrival_cycles;
                1.0 / rate
            }
        }
    }

    /// Draws the next arrival time strictly after `now`. Shared with
    /// the request-flow engine (`flow.rs`) so both draw identical
    /// arrival streams from the same seed.
    pub(crate) fn next_after(&self, now: u64, rng: &mut SmallRng) -> u64 {
        match *self {
            Self::Poisson {
                mean_interarrival_cycles,
            } => now + crate::des::service(rng, mean_interarrival_cycles),
            Self::OnOff {
                mean_interarrival_cycles,
                on_cycles,
                off_cycles,
            } => {
                let t = now + crate::des::service(rng, mean_interarrival_cycles);
                let period = on_cycles + off_cycles;
                if period == 0 || on_cycles == 0 {
                    return t;
                }
                let pos = t % period;
                if pos < on_cycles {
                    t
                } else {
                    // Landed in the silent window: defer to the next
                    // burst start (the whole backlog of the off window
                    // stampedes in together).
                    t - pos + period
                }
            }
            Self::Diurnal {
                peak_interarrival_cycles,
                trough_interarrival_cycles,
                phase_cycles,
            } => {
                let mean = if phase_cycles == 0 || (now / phase_cycles).is_multiple_of(2) {
                    peak_interarrival_cycles
                } else {
                    trough_interarrival_cycles
                };
                now + crate::des::service(rng, mean)
            }
        }
    }
}

/// The client population behind an arrival stream. Users are hashed
/// statelessly from the request sequence number, so "millions of
/// distinct users" costs no per-user state: request `i` belongs to
/// user `hash(i) % population`, opens a fresh connection with
/// probability `1/mean_session_requests` (connection churn), and is a
/// slow client with probability `slow_per_mille/1000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientMix {
    /// Distinct simulated users.
    pub population: u64,
    /// Mean requests per connection before the client reconnects
    /// (0 = no churn, every request rides one warm connection).
    pub mean_session_requests: u32,
    /// Extra service cycles charged on a new connection (TCP + TLS
    /// handshake work the accept path does).
    pub connect_cycles: u64,
    /// Per-mille of requests issued by slow clients (trickled writes,
    /// high-RTT links) that stall a worker.
    pub slow_per_mille: u32,
    /// Worker cycles a slow client holds beyond its service demand.
    pub stall_cycles: u64,
}

impl ClientMix {
    /// A uniform, frictionless population: one fast user per request
    /// with no churn and no stalls.
    pub const fn uniform(population: u64) -> Self {
        Self {
            population,
            mean_session_requests: 0,
            connect_cycles: 0,
            slow_per_mille: 0,
            stall_cycles: 0,
        }
    }
}

/// Which request a bounded admission queue sacrifices when it must.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedPolicy {
    /// Reject the arriving request (classic bounded backlog).
    DropNewest,
    /// Evict the oldest queued request in favor of the arrival — it
    /// has burned the most SLO budget, so it is the likeliest to miss
    /// its deadline anyway.
    DropOldest,
    /// Shed the arrival with probability `depth/cap` — pressure rises
    /// smoothly instead of cliff-edging at the cap.
    Probabilistic,
}

impl ShedPolicy {
    /// Stable lower-case label used in reports and sweep tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::DropNewest => "drop-newest",
            Self::DropOldest => "drop-oldest",
            Self::Probabilistic => "probabilistic",
        }
    }
}

/// Overload-survival policy: every knob the serving layer exposes,
/// integer-valued so the struct stays `Copy + Eq` and can ride inside
/// `KernelConfig` like the fix bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverloadPolicy {
    /// Bound on the admission queue (requests waiting for a worker);
    /// 0 = unbounded (stock behaviour: accept everything, queue
    /// forever).
    pub admission_cap: u32,
    /// What to do when the admission queue is full.
    pub shed: ShedPolicy,
    /// Per-request latency budget in cycles; 0 = no SLO. Completions
    /// slower than this count as SLO violations whether or not
    /// deadline propagation is on.
    pub slo_budget_cycles: u64,
    /// When true, a request that has already exhausted its SLO budget
    /// while queued is cancelled at dispatch instead of occupying a
    /// worker to produce a useless late reply.
    pub deadline_propagation: bool,
    /// Queue depth at which graceful degradation engages; 0 = never
    /// degrade.
    pub degrade_watermark: u32,
    /// Percentage of normal service demand charged while degraded
    /// (e.g. 60 = memcached stale-ok reads skip the lease check).
    pub degrade_demand_pct: u8,
    /// Percentage of slow-client stall cycles charged while degraded
    /// (e.g. 0 = Apache shrinks keepalive and hangs up on slow
    /// clients under pressure).
    pub degrade_stall_pct: u8,
}

impl OverloadPolicy {
    /// No overload handling at all: unbounded queue, no SLO, no
    /// shedding, no degradation — the stock serving posture.
    pub const NONE: Self = Self {
        admission_cap: 0,
        shed: ShedPolicy::DropNewest,
        slo_budget_cycles: 0,
        deadline_propagation: false,
        degrade_watermark: 0,
        degrade_demand_pct: 100,
        degrade_stall_pct: 100,
    };

    /// Measure against an SLO but keep the unbounded queue — the
    /// "no-shed" arm of the overload experiments.
    pub const fn observe(slo_budget_cycles: u64) -> Self {
        Self {
            slo_budget_cycles,
            ..Self::NONE
        }
    }

    /// Full overload survival: a bounded queue shedding by `shed`,
    /// deadline propagation on, degradation at half the cap.
    pub const fn shedding(admission_cap: u32, shed: ShedPolicy, slo_budget_cycles: u64) -> Self {
        Self {
            admission_cap,
            shed,
            slo_budget_cycles,
            deadline_propagation: true,
            degrade_watermark: admission_cap / 2,
            degrade_demand_pct: 100,
            degrade_stall_pct: 100,
        }
    }

    /// The same policy with degradation hooks: at `watermark` queued
    /// requests, service demand drops to `demand_pct`% and slow-client
    /// stalls to `stall_pct`%.
    #[must_use]
    pub const fn with_degradation(mut self, watermark: u32, demand_pct: u8, stall_pct: u8) -> Self {
        self.degrade_watermark = watermark;
        self.degrade_demand_pct = demand_pct;
        self.degrade_stall_pct = stall_pct;
        self
    }

    /// Whether any overload handling beyond observation is enabled.
    pub const fn is_bounded(&self) -> bool {
        self.admission_cap > 0
    }
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self::NONE
    }
}

/// Everything one open-loop run produces. The counters satisfy the
/// accounting identity checked by [`OpenLoopResult::accounted`]: every
/// arrival is exactly one of completed / rejected / shed / cancelled /
/// NIC-dropped / still queued / still in flight.
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// Per-request end-to-end latency (arrival → completion), cycles,
    /// in `pk-obs` log2 buckets. Only completed requests record.
    pub latency: pk_obs::HistogramSnapshot,
    /// Requests the arrival process offered.
    pub arrivals: u64,
    /// Requests served to completion inside the horizon.
    pub completed: u64,
    /// Completions slower than the SLO budget.
    pub slo_violations: u64,
    /// Arrivals refused at a full admission queue (drop-newest and
    /// the deterministic floor of probabilistic shed).
    pub rejected: u64,
    /// Queued requests evicted by a later arrival (drop-oldest).
    pub shed_oldest: u64,
    /// Arrivals shed probabilistically below the cap.
    pub shed_probabilistic: u64,
    /// Requests cancelled at dispatch because their deadline had
    /// already passed (deadline propagation).
    pub deadline_cancelled: u64,
    /// Arrivals lost to the injected NIC before admission
    /// (`net.rx_drop`).
    pub nic_dropped: u64,
    /// Requests served in degraded mode.
    pub degraded: u64,
    /// Distinct users observed across all arrivals.
    pub distinct_users: u64,
    /// Arrivals that opened a fresh connection (churn).
    pub new_connections: u64,
    /// Arrivals from slow clients.
    pub slow_requests: u64,
    /// Requests still queued when the horizon closed — the divergence
    /// signal for unbounded queues past saturation.
    pub queue_depth_end: u64,
    /// Peak admission-queue depth over the run.
    pub queue_depth_peak: u64,
    /// Requests still on a worker at the horizon.
    pub in_flight_end: u64,
    /// Observation window, cycles.
    pub horizon_cycles: u64,
}

impl OpenLoopResult {
    /// Completions within the SLO budget (all completions when no SLO
    /// is set).
    pub fn goodput_ops(&self) -> u64 {
        self.completed - self.slo_violations
    }

    /// Goodput as ops/cycle over the horizon — comparable to an MVA
    /// solve's `ops_per_cycle` saturation estimate.
    pub fn goodput_ops_per_cycle(&self) -> f64 {
        self.goodput_ops() as f64 / self.horizon_cycles.max(1) as f64
    }

    /// Offered load as ops/cycle over the horizon.
    pub fn offered_ops_per_cycle(&self) -> f64 {
        self.arrivals as f64 / self.horizon_cycles.max(1) as f64
    }

    /// Sum of all per-arrival dispositions; equals [`Self::arrivals`]
    /// by construction, asserted in tests and the chaos harness.
    pub fn accounted(&self) -> u64 {
        self.completed
            + self.rejected
            + self.shed_oldest
            + self.shed_probabilistic
            + self.deadline_cancelled
            + self.nic_dropped
            + self.queue_depth_end
            + self.in_flight_end
    }
}

/// One queued request.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: u64,
    new_connection: bool,
    slow: bool,
}

/// Single-event pop adapter over the batch-draining [`EventWheel`].
///
/// The wheel's contract says any event pushed *below* the horizon of
/// the current batch must be merged into that batch, not pushed back
/// (the window has already been drained). The closed engines satisfy
/// it by construction; the open engine schedules completions from
/// mid-batch dispatches, so this adapter keeps the live batch as a
/// sorted buffer and insert-sorts sub-horizon pushes into it.
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
            // Below the live batch's horizon: merge, keeping the
            // remaining tail sorted by (time, seq).
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

/// Sentinel customer id for arrival events; worker completions use
/// their slot index.
const ARRIVAL: u32 = u32::MAX;

/// Runs an open-loop serving simulation with no fault plane.
/// See [`simulate_open_with_faults`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_open(
    network: &Network,
    cores: usize,
    pattern: ArrivalPattern,
    clients: ClientMix,
    policy: OverloadPolicy,
    horizon_cycles: u64,
    seed: u64,
) -> OpenLoopResult {
    simulate_open_with_faults(
        network,
        cores,
        pattern,
        clients,
        policy,
        horizon_cycles,
        seed,
        &FaultPlane::disabled(),
    )
}

/// Runs an open-loop serving simulation: `pattern` offers requests to
/// a `cores`-worker server whose per-request service is drawn from
/// `network`'s stations, under `policy`'s admission/shedding/deadline
/// rules, until the horizon closes. Consults the plane's
/// `net.rx_drop` point on every arrival (a dropped arrival never
/// reaches admission), so chaos runs can cross overload with packet
/// loss.
///
/// Service model: each request draws an exponential service time per
/// station; `Queue` stations serialize (`× n` in-service requests)
/// and `NonScalable` stations collapse (`× n × (1 + collapse·(n−1))`)
/// — the open-loop analogue of the closed MVA residence formulas, so
/// a stock network's workers slow each other down under load exactly
/// the way its closed curves collapse.
#[allow(clippy::too_many_arguments)]
pub fn simulate_open_with_faults(
    network: &Network,
    cores: usize,
    pattern: ArrivalPattern,
    clients: ClientMix,
    policy: OverloadPolicy,
    horizon_cycles: u64,
    seed: u64,
    faults: &FaultPlane,
) -> OpenLoopResult {
    assert!(cores > 0, "open-loop serving needs at least one worker");
    assert!(
        !network.stations().is_empty(),
        "open-loop serving needs at least one station"
    );
    let mut svc_rng = SmallRng::seed_from_u64(seed);
    let mut arr_rng = SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_1234_5678);
    let rx_drop = faults.point("net.rx_drop");

    let max_demand = network
        .stations()
        .iter()
        .map(|s| s.demand_cycles)
        .fold(0.0_f64, f64::max);
    let mut events = WheelQueue::new(max_demand.max(1.0) * cores as f64, cores + 1);
    let mut seq = 0u64;

    // Worker slots: `slots[i]` holds the request the slot is serving.
    let mut slots: Vec<Option<Request>> = vec![None; cores];
    let mut free: Vec<u32> = (0..cores as u32).rev().collect();
    let mut in_service = 0usize;
    let mut queue: VecDeque<Request> = VecDeque::new();

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

    // Draws one request's total service, inflated by the in-service
    // count at dispatch.
    let mut draw_service = |rng: &mut SmallRng, n: usize, degraded: bool| -> u64 {
        let nf = n as f64;
        let mut total = 0u64;
        for st in network.stations() {
            if st.demand_cycles <= 0.0 {
                continue;
            }
            let base = crate::des::service(rng, st.demand_cycles);
            let inflated = match st.kind {
                StationKind::Delay => base as f64,
                StationKind::Queue => base as f64 * nf,
                StationKind::NonScalable { collapse } => {
                    base as f64 * nf * (1.0 + collapse * (nf - 1.0))
                }
            };
            total = total.saturating_add(inflated as u64);
        }
        if degraded {
            total = total * policy.degrade_demand_pct as u64 / 100;
        }
        total.max(1)
    };

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
            // Schedule the next arrival first so the arrival RNG
            // stream never depends on admission decisions.
            let next = pattern.next_after(now, &mut arr_rng);
            if next < horizon_cycles {
                events.push(next, seq, ARRIVAL);
                seq += 1;
            }
            let i = r.arrivals;
            r.arrivals += 1;

            // Client population: stateless hashes of the arrival
            // index, seeded separately from service and arrivals.
            let h = mix64(seed ^ mix64(i.wrapping_add(0x5eed_c11e)));
            users.insert(h % clients.population.max(1));
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
            let req = Request {
                arrival: now,
                new_connection,
                slow,
            };

            if rx_drop.should_inject() {
                r.nic_dropped += 1;
                continue;
            }

            if in_service < cores {
                dispatch(
                    req,
                    now,
                    &mut svc_rng,
                    &mut draw_service,
                    &mut slots,
                    &mut free,
                    &mut in_service,
                    &mut events,
                    &mut seq,
                    &queue,
                    &policy,
                    &clients,
                    &mut r,
                );
            } else {
                let depth = queue.len() as u64;
                let cap = policy.admission_cap as u64;
                if cap > 0 && depth >= cap {
                    match policy.shed {
                        ShedPolicy::DropNewest | ShedPolicy::Probabilistic => r.rejected += 1,
                        ShedPolicy::DropOldest => {
                            queue.pop_front();
                            r.shed_oldest += 1;
                            queue.push_back(req);
                        }
                    }
                } else if cap > 0
                    && policy.shed == ShedPolicy::Probabilistic
                    && (mix64(h ^ 3) % cap) < depth
                {
                    r.shed_probabilistic += 1;
                } else {
                    queue.push_back(req);
                    r.queue_depth_peak = r.queue_depth_peak.max(queue.len() as u64);
                }
            }
        } else {
            // A worker finished.
            let slot = id as usize;
            let req = slots[slot].take().expect("completion for an empty slot");
            in_service -= 1;
            free.push(id);
            let latency = now - req.arrival;
            hist.record(pk_percpu::CoreId(slot % cores), latency);
            r.completed += 1;
            if policy.slo_budget_cycles > 0 && latency > policy.slo_budget_cycles {
                r.slo_violations += 1;
            }

            // Pull the next admitted request, cancelling any whose
            // deadline already passed (deadline propagation).
            while let Some(q) = queue.pop_front() {
                if policy.deadline_propagation
                    && policy.slo_budget_cycles > 0
                    && now - q.arrival > policy.slo_budget_cycles
                {
                    r.deadline_cancelled += 1;
                    continue;
                }
                dispatch(
                    q,
                    now,
                    &mut svc_rng,
                    &mut draw_service,
                    &mut slots,
                    &mut free,
                    &mut in_service,
                    &mut events,
                    &mut seq,
                    &queue,
                    &policy,
                    &clients,
                    &mut r,
                );
                break;
            }
        }
    }

    r.queue_depth_end = queue.len() as u64;
    r.in_flight_end = in_service as u64;
    r.distinct_users = users.len() as u64;
    r.latency = hist.snapshot();
    r
}

/// Starts service for `req` on a free worker slot at `now`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    req: Request,
    now: u64,
    svc_rng: &mut SmallRng,
    draw_service: &mut impl FnMut(&mut SmallRng, usize, bool) -> u64,
    slots: &mut [Option<Request>],
    free: &mut Vec<u32>,
    in_service: &mut usize,
    events: &mut WheelQueue,
    seq: &mut u64,
    queue: &VecDeque<Request>,
    policy: &OverloadPolicy,
    clients: &ClientMix,
    r: &mut OpenLoopResult,
) {
    let degraded = policy.degrade_watermark > 0 && queue.len() >= policy.degrade_watermark as usize;
    if degraded {
        r.degraded += 1;
    }
    *in_service += 1;
    let mut service = draw_service(svc_rng, *in_service, degraded);
    if req.new_connection {
        service = service.saturating_add(clients.connect_cycles);
    }
    if req.slow {
        let stall = if degraded {
            clients.stall_cycles * policy.degrade_stall_pct as u64 / 100
        } else {
            clients.stall_cycles
        };
        service = service.saturating_add(stall);
    }
    let slot = free.pop().expect("dispatch with no free worker");
    slots[slot as usize] = Some(req);
    events.push(now + service.max(1), *seq, slot);
    *seq += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::Station;
    use pk_fault::{FaultPlane, FaultSchedule};

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

    #[test]
    fn deterministic_across_runs() {
        let net = toy_network();
        let run = || {
            simulate_open(
                &net,
                4,
                poisson(500.0),
                ClientMix::uniform(1_000_000),
                OverloadPolicy::observe(20_000),
                2_000_000,
                42,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.latency.buckets, b.latency.buckets);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.distinct_users, b.distinct_users);
        assert_eq!(a.queue_depth_peak, b.queue_depth_peak);
    }

    #[test]
    fn accounting_identity_holds() {
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
            let r = simulate_open(
                &net,
                2,
                poisson(300.0),
                ClientMix::uniform(1000),
                policy,
                1_000_000,
                7,
            );
            assert_eq!(
                r.accounted(),
                r.arrivals,
                "identity broken under {shed:?} cap={cap}"
            );
        }
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let net = toy_network();
        let r = simulate_open(
            &net,
            48,
            poisson(1_000.0),
            ClientMix::uniform(1_000_000),
            OverloadPolicy::NONE,
            10_000_000,
            42,
        );
        let expected = 10_000.0;
        assert!(
            (r.arrivals as f64) > 0.9 * expected && (r.arrivals as f64) < 1.1 * expected,
            "poisson arrivals {} far from nominal {expected}",
            r.arrivals
        );
    }

    #[test]
    fn onoff_bursts_confine_arrivals_to_on_windows() {
        // All arrivals must land inside on windows — verified
        // indirectly: an off fraction of 3/4 leaves the long-run rate
        // at ~1/4 of the burst rate.
        let net = toy_network();
        let pattern = ArrivalPattern::OnOff {
            mean_interarrival_cycles: 200.0,
            on_cycles: 50_000,
            off_cycles: 150_000,
        };
        let r = simulate_open(
            &net,
            48,
            pattern,
            ClientMix::uniform(1_000_000),
            OverloadPolicy::NONE,
            8_000_000,
            42,
        );
        let nominal = 8_000_000.0 / pattern.mean_interarrival_cycles();
        assert!(
            (r.arrivals as f64) > 0.7 * nominal && (r.arrivals as f64) < 1.3 * nominal,
            "on/off arrivals {} far from nominal {nominal}",
            r.arrivals
        );
    }

    #[test]
    fn bounded_queue_respects_cap_and_unbounded_diverges() {
        let net = toy_network();
        // Demand ~900 cycles/request on 1 worker, arrivals every ~200
        // cycles: heavy overload.
        let shed = simulate_open(
            &net,
            1,
            poisson(200.0),
            ClientMix::uniform(1000),
            OverloadPolicy::shedding(16, ShedPolicy::DropNewest, 50_000),
            2_000_000,
            42,
        );
        assert!(shed.queue_depth_peak <= 16, "cap violated: {shed:?}");
        assert!(shed.rejected > 0, "overload never rejected: {shed:?}");

        let noshed = simulate_open(
            &net,
            1,
            poisson(200.0),
            ClientMix::uniform(1000),
            OverloadPolicy::observe(50_000),
            2_000_000,
            42,
        );
        assert!(
            noshed.queue_depth_end > 100,
            "unbounded queue failed to diverge: {noshed:?}"
        );
    }

    #[test]
    fn drop_oldest_evicts_and_probabilistic_sheds_early() {
        let net = toy_network();
        let oldest = simulate_open(
            &net,
            1,
            poisson(150.0),
            ClientMix::uniform(1000),
            OverloadPolicy::shedding(8, ShedPolicy::DropOldest, 50_000),
            1_000_000,
            42,
        );
        assert!(oldest.shed_oldest > 0, "drop-oldest never evicted");
        let prob = simulate_open(
            &net,
            1,
            poisson(150.0),
            ClientMix::uniform(1000),
            OverloadPolicy::shedding(8, ShedPolicy::Probabilistic, 50_000),
            1_000_000,
            42,
        );
        assert!(
            prob.shed_probabilistic > 0,
            "probabilistic shed never fired below the cap"
        );
    }

    #[test]
    fn deadline_propagation_cancels_late_work() {
        let net = toy_network();
        let r = simulate_open(
            &net,
            1,
            poisson(200.0),
            ClientMix::uniform(1000),
            // Large cap, tiny SLO: queued requests blow their budget.
            OverloadPolicy::shedding(512, ShedPolicy::DropNewest, 2_000),
            1_000_000,
            42,
        );
        assert!(r.deadline_cancelled > 0, "no deadlines propagated: {r:?}");
    }

    #[test]
    fn degradation_reduces_service_under_pressure() {
        let net = toy_network();
        let base = OverloadPolicy::shedding(64, ShedPolicy::DropNewest, 100_000);
        let plain = simulate_open(
            &net,
            1,
            poisson(250.0),
            ClientMix::uniform(1000),
            base,
            2_000_000,
            42,
        );
        let degraded = simulate_open(
            &net,
            1,
            poisson(250.0),
            ClientMix::uniform(1000),
            base.with_degradation(4, 50, 0),
            2_000_000,
            42,
        );
        assert!(degraded.degraded > 0, "degradation never engaged");
        assert!(
            degraded.completed > plain.completed,
            "degradation should raise completions: {} vs {}",
            degraded.completed,
            plain.completed
        );
    }

    #[test]
    fn client_population_produces_churn_slow_clients_and_many_users() {
        let net = toy_network();
        let clients = ClientMix {
            population: 2_000_000,
            mean_session_requests: 8,
            connect_cycles: 500,
            slow_per_mille: 50,
            stall_cycles: 10_000,
        };
        let r = simulate_open(
            &net,
            48,
            poisson(500.0),
            clients,
            OverloadPolicy::NONE,
            10_000_000,
            42,
        );
        assert!(r.new_connections > 0, "no connection churn");
        assert!(r.slow_requests > 0, "no slow clients");
        // ~20k arrivals over 2M users: collisions are rare, so nearly
        // every arrival is a distinct user.
        assert!(
            r.distinct_users as f64 > 0.95 * r.arrivals as f64,
            "population hashing collapsed: {} users / {} arrivals",
            r.distinct_users,
            r.arrivals
        );
    }

    #[test]
    fn nic_drop_faults_count_as_lost_arrivals() {
        let net = toy_network();
        let plane = FaultPlane::with_seed(42);
        plane.set("net.rx_drop", FaultSchedule::EveryNth(10));
        plane.enable();
        let r = simulate_open_with_faults(
            &net,
            4,
            poisson(500.0),
            ClientMix::uniform(1000),
            OverloadPolicy::observe(50_000),
            2_000_000,
            42,
            &plane,
        );
        assert!(r.nic_dropped > 0, "armed rx_drop never fired");
        assert_eq!(r.accounted(), r.arrivals);
    }

    #[test]
    fn scaled_doubles_offered_load() {
        let p = poisson(1_000.0).scaled(2.0);
        assert_eq!(
            p,
            ArrivalPattern::Poisson {
                mean_interarrival_cycles: 500.0
            }
        );
    }
}
