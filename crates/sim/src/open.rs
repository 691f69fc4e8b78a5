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
//! * [`OverloadPolicy`] — a bounded admission queue that rejects the
//!   arrival when full, per-request deadline propagation, and graceful
//!   degradation; the serving layer builds one per run;
//! * `FrontEnd` — the open side of a run, written once: arrivals,
//!   client hashing, the `net.rx_drop` point, admission, rejection,
//!   deadlines, degradation and every [`OpenLoopResult`] counter. Both
//!   open-loop engines drive it and keep only their service model. It
//!   hands them their events in `(time, seq)` order: worker events
//!   from the calendar-queue [`EventWheel`](crate::des::wheel), and
//!   the next arrival, which waits beside the wheel rather than in it;
//! * [`simulate_open`] — the lumped engine: an M/G/c-style
//!   discrete-event loop, drawing per-request service from the same
//!   exponential stream the closed engines use, drawn ahead like
//!   theirs (`des::Draws`; the arrival gaps too), with closed-MVA-style
//!   inflation (`Queue` stations serialize, `NonScalable` stations
//!   collapse) so a stock kernel's tail degrades *faster* than PK's as
//!   load climbs.
//!   [`simulate_flow`](crate::flow::simulate_flow) is the per-station
//!   engine behind the same front end.
//!
//! Determinism contract: every output of [`simulate_open`] is a pure
//! function of `(network, cores, pattern, clients, policy,
//! horizon_cycles, seed, fault plane)` — byte-identical across runs,
//! platforms, and opt levels, like the closed engines.

use crate::des::wheel::EventWheel;
use crate::des::Draws;
use crate::mva::{Network, StationKind};
use pk_fault::{mix64, FaultPlane, FaultPoint};
use std::collections::VecDeque;

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
                let period = on_cycles.saturating_add(off_cycles) as f64;
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

    /// Draws the next arrival time strictly after `now`.
    fn next_after(&self, now: u64, gaps: &mut Draws) -> u64 {
        match *self {
            Self::Poisson {
                mean_interarrival_cycles,
            } => now.saturating_add(gaps.service(mean_interarrival_cycles)),
            Self::OnOff {
                mean_interarrival_cycles,
                on_cycles,
                off_cycles,
            } => {
                let t = now.saturating_add(gaps.service(mean_interarrival_cycles));
                let period = on_cycles.saturating_add(off_cycles);
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
                    (t - pos).saturating_add(period)
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
                now.saturating_add(gaps.service(mean))
            }
        }
    }
}

/// The client population behind an arrival stream. Users are hashed
/// statelessly from the request sequence number, so "millions of
/// distinct users" costs one bit per user (the run's record of who
/// it has seen) and nothing else: request `i` belongs to
/// user `hash(i) % population`, opens a fresh connection with
/// probability `1/mean_session_requests` (connection churn), and is a
/// slow client with probability `slow_per_mille/1000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientMix {
    /// Distinct simulated users; 0 counts as 1. A `u32` bounds the
    /// run's seen-user bitmap at 512 MB.
    pub population: u32,
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
    pub const fn uniform(population: u32) -> Self {
        Self {
            population,
            mean_session_requests: 0,
            connect_cycles: 0,
            slow_per_mille: 0,
            stall_cycles: 0,
        }
    }
}

/// Overload-survival policy: a bounded admission queue with deadline
/// propagation and graceful degradation, or an unbounded one that only
/// measures against the SLO. Integer-valued so runs stay bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverloadPolicy {
    /// Bound on the admission queue (requests waiting for a worker);
    /// 0 = unbounded (stock behaviour: accept everything, queue
    /// forever). A full queue rejects the arriving request. A bounded
    /// queue also propagates deadlines and degrades from
    /// [`Self::degrade_depth`].
    pub admission_cap: u32,
    /// Per-request latency budget in cycles; 0 = no SLO. Completions
    /// slower than this count as SLO violations whether or not the
    /// queue is bounded.
    pub slo_budget_cycles: u64,
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
        slo_budget_cycles: 0,
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

    /// Full overload survival: a queue bounded at `admission_cap` that
    /// rejects arrivals when full, deadline propagation, and, from
    /// [`Self::degrade_depth`] queued requests, service demand at
    /// `demand_pct`% and slow-client stalls at `stall_pct`%.
    pub const fn shedding(
        admission_cap: u32,
        slo_budget_cycles: u64,
        demand_pct: u8,
        stall_pct: u8,
    ) -> Self {
        Self {
            admission_cap,
            slo_budget_cycles,
            degrade_demand_pct: demand_pct,
            degrade_stall_pct: stall_pct,
        }
    }

    /// Whether any overload handling beyond observation is enabled:
    /// a bounded queue, and with it deadline propagation (a request
    /// that exhausted its SLO budget while queued is cancelled at
    /// dispatch instead of occupying a worker to produce a useless late
    /// reply).
    pub const fn is_bounded(&self) -> bool {
        self.admission_cap > 0
    }

    /// Queue depth at which graceful degradation engages: half the
    /// admission cap; 0 (never degrade) when unbounded.
    pub const fn degrade_depth(&self) -> u32 {
        self.admission_cap / 2
    }
}

/// Everything one open-loop run produces. The counters satisfy the
/// accounting identity checked by [`OpenLoopResult::accounted`]: every
/// arrival is exactly one of completed / rejected / cancelled /
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
    /// Arrivals refused at a full admission queue.
    pub rejected: u64,
    /// Always 0: no policy evicts a queued request. Kept because the
    /// repo benchmark's `serving_tail` workload and the `latency.json`
    /// golden still read it.
    pub shed_oldest: u64,
    /// Always 0: no policy sheds below the cap. Kept because the repo
    /// benchmark's `serving_tail` workload and the `latency.json`
    /// golden still read it.
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

    /// Sum of all per-arrival dispositions; equals [`Self::arrivals`]
    /// by construction, asserted in tests and the chaos harness.
    pub fn accounted(&self) -> u64 {
        self.completed
            + self.rejected
            + self.deadline_cancelled
            + self.nic_dropped
            + self.queue_depth_end
            + self.in_flight_end
    }
}

/// One offered request, as the front end hands it to an engine.
#[derive(Clone, Copy)]
pub(crate) struct Request {
    /// Arrival time, cycles.
    pub(crate) arrival: u64,
    /// Position in the arrival stream. With `user` and the seed it
    /// determines `pk_trace::request_id`, which only the tracing engine
    /// derives.
    pub(crate) index: u64,
    /// The hashed user behind the request.
    pub(crate) user: u64,
    new_connection: bool,
    slow: bool,
}

/// The next event of a run, in `(time, seq)` order.
pub(crate) enum Event {
    /// A request arrived, and the front end decided its fate.
    Arrival(Request, Fate),
    /// The event worker slot `id` scheduled in the wheel is due.
    Slot(u32),
}

/// What the front end decided about one arrival.
pub(crate) enum Fate {
    /// A worker is free: the engine dispatches the request now.
    Dispatch,
    /// Joined the admission queue.
    Queued,
    /// Refused at a full queue.
    Rejected,
    /// Lost to the injected NIC before admission (`net.rx_drop`).
    NicDropped,
}

/// What a dispatched request is charged beyond its station demands.
pub(crate) struct Charge {
    /// Served in degraded mode: the engine scales its service draws by
    /// `OverloadPolicy::degrade_demand_pct`.
    pub(crate) degraded: bool,
    /// Connection-establishment cycles; 0 on a warm connection.
    pub(crate) connect_cycles: u64,
    /// Slow-client stall cycles, degradation applied; 0 for a fast
    /// client.
    pub(crate) stall_cycles: u64,
}

/// The open side of a serving run, shared by [`simulate_open`] and
/// [`simulate_flow`](crate::flow::simulate_flow): the arrival process,
/// the client population, the `net.rx_drop` point, the admission queue
/// and its reject/deadline/degradation policy, and every
/// [`OpenLoopResult`] counter. An engine asks it three things — what
/// happens next (a worker slot's event from the wheel, or an arrival
/// and what becomes of it), which admitted request a freed worker takes
/// next, and what a dispatch is charged — and keeps only its own
/// service model.
///
/// The next arrival waits beside the wheel, not in it: the front end
/// holds it as the `(time, seq)` key the wheel would have given it,
/// taking the `seq` from the wheel when the arrival before it is
/// handled, and pops the wheel only for events below that key. The pop
/// order is the one a wheel holding the arrival would give.
///
/// One engine thread owns it for the whole run, so its bookkeeping is
/// plain single-owner state: no per-core shards, no atomics.
pub(crate) struct FrontEnd {
    pattern: ArrivalPattern,
    clients: ClientMix,
    policy: OverloadPolicy,
    seed: u64,
    cores: usize,
    /// The arrival gaps, drawn ahead. Seeded apart from the service
    /// stream, so the arrival schedule never depends on admission or
    /// service decisions.
    gaps: Draws,
    /// The next arrival's `(time, seq)` key; `None` once the stream has
    /// run past the horizon.
    next: Option<(u64, u64)>,
    rx_drop: FaultPoint,
    /// Admitted requests waiting for a worker.
    queue: VecDeque<Request>,
    /// Requests on a worker.
    in_flight: usize,
    /// Every user seen, one bit per user of the population (word
    /// `user / 64`, bit `user % 64`): population ÷ 8 bytes, allocated
    /// once per run and touched once per arrival.
    seen: Vec<u64>,
    r: OpenLoopResult,
}

impl FrontEnd {
    /// The front end of a run and the event wheel its engine schedules
    /// worker events in, with the first arrival drawn.
    pub(crate) fn new(
        cores: usize,
        pattern: ArrivalPattern,
        clients: ClientMix,
        policy: OverloadPolicy,
        horizon_cycles: u64,
        seed: u64,
        faults: &FaultPlane,
    ) -> (Self, EventWheel) {
        let mut events = event_queue(&pattern, cores);
        let mut front = Self {
            pattern,
            clients,
            policy,
            seed,
            cores,
            gaps: Draws::new(seed ^ 0xa5a5_5a5a_1234_5678),
            next: None,
            rx_drop: faults.point("net.rx_drop"),
            queue: VecDeque::new(),
            in_flight: 0,
            seen: vec![0; clients.population.max(1).div_ceil(64) as usize],
            r: OpenLoopResult {
                latency: pk_obs::HistogramSnapshot {
                    buckets: vec![0; pk_obs::buckets::BUCKETS],
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
            },
        };
        front.next = front.arrival_after(0, &mut events);
        (front, events)
    }

    /// Draws the arrival after `now` and keys it with the wheel's next
    /// `seq`; `None` once the stream runs past the horizon.
    #[inline]
    fn arrival_after(&mut self, now: u64, events: &mut EventWheel) -> Option<(u64, u64)> {
        let t = self.pattern.next_after(now, &mut self.gaps);
        (t < self.r.horizon_cycles).then(|| (t, events.take_seq()))
    }

    /// The run's next event and its time: the earliest worker event in
    /// `events` or the held arrival, whichever has the lower `(time,
    /// seq)` key; `None` when neither is left. An arrival draws the one
    /// after it first, then is offered to [`Self::arrive`].
    #[inline]
    pub(crate) fn next_event(&mut self, events: &mut EventWheel) -> Option<(u64, Event)> {
        let Some(key) = self.next else {
            return events.pop().map(|(now, id)| (now, Event::Slot(id)));
        };
        if let Some((now, id)) = events.pop_before(key) {
            return Some((now, Event::Slot(id)));
        }
        let now = key.0;
        self.next = self.arrival_after(now, events);
        let (req, fate) = self.arrive(now);
        Some((now, Event::Arrival(req, fate)))
    }

    /// Requests on a worker, the one being dispatched included.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Offers the arrival at `now`: hashes its client, consults the NIC
    /// fault point, and applies the admission policy.
    pub(crate) fn arrive(&mut self, now: u64) -> (Request, Fate) {
        let index = self.r.arrivals;
        self.r.arrivals += 1;

        // Client population: stateless hashes of the arrival index,
        // seeded separately from service and arrivals.
        let h = mix64(self.seed ^ mix64(index.wrapping_add(0x5eed_c11e)));
        let user = h % self.clients.population.max(1) as u64;
        let (word, bit) = (&mut self.seen[(user / 64) as usize], 1u64 << (user % 64));
        self.r.distinct_users += u64::from(*word & bit == 0);
        *word |= bit;
        let new_connection = self.clients.mean_session_requests > 0
            && mix64(h ^ 1).is_multiple_of(self.clients.mean_session_requests as u64);
        let slow = self.clients.slow_per_mille > 0
            && (mix64(h ^ 2) % 1000) < self.clients.slow_per_mille as u64;
        if new_connection {
            self.r.new_connections += 1;
        }
        if slow {
            self.r.slow_requests += 1;
        }
        let req = Request {
            arrival: now,
            index,
            user,
            new_connection,
            slow,
        };

        let depth = self.queue.len() as u64;
        let cap = self.policy.admission_cap as u64;
        let fate = if self.rx_drop.should_inject() {
            self.r.nic_dropped += 1;
            Fate::NicDropped
        } else if self.in_flight < self.cores {
            Fate::Dispatch
        } else if cap > 0 && depth >= cap {
            self.r.rejected += 1;
            Fate::Rejected
        } else {
            self.queue.push_back(req);
            self.r.queue_depth_peak = self.r.queue_depth_peak.max(self.queue.len() as u64);
            Fate::Queued
        };
        (req, fate)
    }

    /// Puts `req` on a worker: decides degradation from the queue depth
    /// at this instant and returns what the request is charged.
    pub(crate) fn dispatch(&mut self, req: &Request) -> Charge {
        let watermark = self.policy.degrade_depth();
        let degraded = watermark > 0 && self.queue.len() >= watermark as usize;
        if degraded {
            self.r.degraded += 1;
        }
        self.in_flight += 1;
        let stall_cycles = match (req.slow, degraded) {
            (false, _) => 0,
            (true, false) => self.clients.stall_cycles,
            (true, true) => scale_pct(self.clients.stall_cycles, self.policy.degrade_stall_pct),
        };
        Charge {
            degraded,
            connect_cycles: if req.new_connection {
                self.clients.connect_cycles
            } else {
                0
            },
            stall_cycles,
        }
    }

    /// Retires the request that arrived at `arrival` from its worker at
    /// `now`, then pulls the next admitted request for the freed
    /// worker. Queued requests whose deadline already passed are
    /// cancelled instead (deadline propagation) and reported to
    /// `cancelled`.
    pub(crate) fn complete(
        &mut self,
        now: u64,
        arrival: u64,
        mut cancelled: impl FnMut(&Request),
    ) -> Option<Request> {
        self.in_flight -= 1;
        let latency = now - arrival;
        self.r.latency.record(latency);
        self.r.completed += 1;
        let slo = self.policy.slo_budget_cycles;
        if slo > 0 && latency > slo {
            self.r.slo_violations += 1;
        }
        while let Some(q) = self.queue.pop_front() {
            if self.policy.is_bounded() && slo > 0 && now - q.arrival > slo {
                self.r.deadline_cancelled += 1;
                cancelled(&q);
                continue;
            }
            return Some(q);
        }
        None
    }

    /// Closes the run at the horizon.
    pub(crate) fn finish(mut self) -> OpenLoopResult {
        self.r.queue_depth_end = self.queue.len() as u64;
        self.r.in_flight_end = self.in_flight as u64;
        self.r
    }
}

/// `cycles × pct / 100`, saturating: a degraded demand or stall is
/// never smaller for being huge.
pub(crate) fn scale_pct(cycles: u64, pct: u8) -> u64 {
    u64::try_from(u128::from(cycles) * u128::from(pct) / 100).unwrap_or(u64::MAX)
}

/// Schedules `id` at `now + delay`, saturating. A time at or past the
/// horizon would end the run when popped and is never processed, so it
/// is not queued at all: the wheel cannot bucket times near `u64::MAX`.
#[inline]
pub(crate) fn schedule(events: &mut EventWheel, horizon: u64, now: u64, delay: u64, id: u32) {
    let t = now.saturating_add(delay);
    if t < horizon {
        events.push(t, id);
    }
}

/// Queue sizing both open engines share: a lane for every worker and
/// one for the arrival stream, and buckets one mean arrival gap wide.
/// The stream's next arrival waits beside the wheel
/// ([`FrontEnd::next_event`]), but the stream still paces the run.
///
/// An open engine's event rate is set by its arrivals: each one makes
/// at most one completion, so a bucket one gap wide holds about one
/// completion, however long service runs. A width drawn from service
/// time instead (the closed engine's spacing with every worker
/// serialized behind the slowest station, which is a whole service
/// time) piles most pending completions into the bucket being drained. Completions past the ring's span (at least `2·lanes`
/// gaps) wait in their bucket for their rotation.
fn event_queue(pattern: &ArrivalPattern, cores: usize) -> EventWheel {
    let lanes = cores + 1;
    // `EventWheel::new` spaces buckets `max_demand / lanes` apart.
    EventWheel::new(pattern.mean_interarrival_cycles() * lanes as f64, lanes)
}

/// Runs an open-loop serving simulation: `pattern` offers requests to
/// a `cores`-worker server whose per-request service is drawn from
/// `network`'s stations, under `policy`'s admission/deadline/degradation
/// rules, until the horizon closes. Consults the plane's
/// `net.rx_drop` point on every arrival (a dropped arrival never
/// reaches admission), so chaos runs can cross overload with packet
/// loss; pass [`FaultPlane::disabled`] for a fault-free run.
///
/// Service model: each request draws an exponential service time per
/// station; `Queue` stations serialize (`× n` in-service requests)
/// and `NonScalable` stations collapse (`× n × (1 + collapse·(n−1))`)
/// — the open-loop analogue of the closed MVA residence formulas, so
/// a stock network's workers slow each other down under load exactly
/// the way its closed curves collapse.
#[allow(clippy::too_many_arguments)]
pub fn simulate_open(
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

    // Worker slots, reused LIFO: `slots[i]` holds the arrival time of
    // the request slot `i` is serving.
    let mut slots: Vec<Option<u64>> = vec![None; cores];
    let mut free: Vec<u32> = (0..cores as u32).rev().collect();

    // Draws one request's total service, inflated by the in-service
    // count at dispatch.
    let mut draw_service = |n: usize, degraded: bool| -> u64 {
        let nf = n as f64;
        let mut total = 0u64;
        for st in network.stations() {
            if st.demand_cycles <= 0.0 {
                continue;
            }
            let base = draws.service(st.demand_cycles);
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
            total = scale_pct(total, policy.degrade_demand_pct);
        }
        total.max(1)
    };

    while let Some((now, event)) = front.next_event(&mut events) {
        let next = match event {
            Event::Arrival(req, Fate::Dispatch) => Some(req),
            Event::Arrival(..) => None,
            Event::Slot(id) => {
                // A worker finished.
                let arrival = slots[id as usize]
                    .take()
                    .expect("completion for an empty slot");
                free.push(id);
                front.complete(now, arrival, |_| {})
            }
        };
        if let Some(req) = next {
            // Start service on a free worker.
            let charge = front.dispatch(&req);
            let service = draw_service(front.in_flight(), charge.degraded)
                .saturating_add(charge.connect_cycles)
                .saturating_add(charge.stall_cycles);
            let slot = free.pop().expect("dispatch with no free worker");
            slots[slot as usize] = Some(req.arrival);
            schedule(&mut events, horizon_cycles, now, service, slot);
        }
    }
    front.finish()
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
                &FaultPlane::disabled(),
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
        for cap in [0u32, 8] {
            let policy = if cap == 0 {
                OverloadPolicy::observe(10_000)
            } else {
                OverloadPolicy::shedding(cap, 10_000, 100, 100)
            };
            let r = simulate_open(
                &net,
                2,
                poisson(300.0),
                ClientMix::uniform(1000),
                policy,
                1_000_000,
                7,
                &FaultPlane::disabled(),
            );
            assert_eq!(r.accounted(), r.arrivals, "identity broken at cap={cap}");
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
            &FaultPlane::disabled(),
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
            &FaultPlane::disabled(),
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
            OverloadPolicy::shedding(16, 50_000, 100, 100),
            2_000_000,
            42,
            &FaultPlane::disabled(),
        );
        assert!(shed.queue_depth_peak <= 16, "cap violated: {shed:?}");
        assert!(shed.rejected > 0, "overload never rejected: {shed:?}");
        assert!(shed.degraded > 0, "a full queue never degraded: {shed:?}");

        // A tiny SLO over a deep queue: the observe posture measures
        // the violations but neither cancels nor degrades.
        let noshed = simulate_open(
            &net,
            1,
            poisson(200.0),
            ClientMix::uniform(1000),
            OverloadPolicy::observe(2_000),
            2_000_000,
            42,
            &FaultPlane::disabled(),
        );
        assert!(
            noshed.queue_depth_end > 100,
            "unbounded queue failed to diverge: {noshed:?}"
        );
        assert!(noshed.slo_violations > 0, "{noshed:?}");
        assert_eq!(noshed.deadline_cancelled, 0, "{noshed:?}");
        assert_eq!(noshed.degraded, 0, "{noshed:?}");

        // The bounded posture degrades from depth cap / 2 and not
        // before: one request on the only worker, then each queued
        // arrival probes the dispatch decision at its depth.
        let policy = OverloadPolicy::shedding(16, 2_000, 100, 100);
        let (mut front, _) = FrontEnd::new(
            1,
            poisson(200.0),
            ClientMix::uniform(1000),
            policy,
            2_000_000,
            42,
            &FaultPlane::disabled(),
        );
        let (first, fate) = front.arrive(0);
        assert!(matches!(fate, Fate::Dispatch));
        assert!(!front.dispatch(&first).degraded);
        for depth in 1..=16u64 {
            let (req, fate) = front.arrive(depth);
            assert!(matches!(fate, Fate::Queued), "depth {depth}");
            let degraded = front.dispatch(&req).degraded;
            assert_eq!(degraded, depth >= 8, "depth {depth}");
        }
        assert!(matches!(front.arrive(17).1, Fate::Rejected));
        assert_eq!(front.finish().degraded, 9);
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
            OverloadPolicy::shedding(512, 2_000, 100, 100),
            1_000_000,
            42,
            &FaultPlane::disabled(),
        );
        assert!(r.deadline_cancelled > 0, "no deadlines propagated: {r:?}");
    }

    #[test]
    fn degradation_reduces_service_under_pressure() {
        let net = toy_network();
        let base = OverloadPolicy::shedding(64, 100_000, 100, 100);
        let plain = simulate_open(
            &net,
            1,
            poisson(250.0),
            ClientMix::uniform(1000),
            base,
            2_000_000,
            42,
            &FaultPlane::disabled(),
        );
        let degraded = simulate_open(
            &net,
            1,
            poisson(250.0),
            ClientMix::uniform(1000),
            OverloadPolicy::shedding(64, 100_000, 50, 0),
            2_000_000,
            42,
            &FaultPlane::disabled(),
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
            &FaultPlane::disabled(),
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

    /// Populations at the seen-user bitmap's word edges, and SERVING's
    /// largest.
    const POPULATIONS: [u32; 6] = [1, 63, 64, 65, 1_000, 4_000_000];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The bitmap counts exactly the users a `BTreeSet` over the
        /// same `mix64` user stream holds.
        #[test]
        fn distinct_users_match_a_set_of_the_hashed_users(
            seed in proptest::prelude::any::<u64>(),
            arrivals in 0u64..3_000,
            pop in 0usize..POPULATIONS.len(),
        ) {
            let population = POPULATIONS[pop];
            let (mut front, _) = FrontEnd::new(
                1,
                poisson(500.0),
                ClientMix::uniform(population),
                OverloadPolicy::NONE,
                u64::MAX,
                seed,
                &FaultPlane::disabled(),
            );
            let mut reference = std::collections::BTreeSet::new();
            for i in 0..arrivals {
                let user = mix64(seed ^ mix64(i.wrapping_add(0x5eed_c11e))) % population as u64;
                reference.insert(user);
                proptest::prop_assert_eq!(front.arrive(i).0.user, user);
            }
            proptest::prop_assert_eq!(front.finish().distinct_users, reference.len() as u64);
        }
    }

    #[test]
    fn nic_drop_faults_count_as_lost_arrivals() {
        let net = toy_network();
        let plane = FaultPlane::with_seed(42);
        plane.set("net.rx_drop", FaultSchedule::EveryNth(10));
        plane.enable();
        let r = simulate_open(
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
}
