//! A discrete-event simulator for the same closed networks MVA solves.
//!
//! The figure sweeps use Mean Value Analysis because it is exact (for
//! product-form networks), instant, and deterministic. This module is
//! the cross-check: an event-driven simulation of the *same* network —
//! cores cycling through stations, FCFS queues, exponential service —
//! whose measured throughput must agree with MVA. The
//! `des_validates_mva` tests pin the two solvers against each other, so
//! a bug in either one breaks the build.
//!
//! Non-scalable stations are simulated literally: a waiter's polling
//! slows the holder, so the service time drawn at dispatch is inflated
//! by the queue length at that instant — the same load-dependence the
//! MVA extension models.
//!
//! # Two engines, one schedule
//!
//! The public entry points run the **fast engine**: `push`/`pop` on a
//! calendar-queue event wheel ([`wheel::EventWheel`], which behind
//! that interface drains one bucket-width window of simulated time at
//! a time as a sorted batch), over hot state laid out for the dispatch:
//! one row per station of the fields a dispatch reads and writes
//! (demand, kind, busy flag, queue head, tail and length, last line
//! owner), a separate tally row of the counters it only adds to,
//! per-customer fields in dense vectors, and station FIFO queues as an
//! intrusive index-linked list — no per-event allocation anywhere in the
//! loop. The loop is instantiated per trace sink and per fault-plane
//! state: a run whose plane is disabled when it starts carries no fault
//! checks. Its uniforms are drawn ahead, 16 at a time from the same
//! stream, each with its logarithm, so a service start only decides
//! `−mean·ln u` against a guard band. The [`reference`](mod@reference)
//! module keeps the original `BinaryHeap` engine as the
//! differential oracle: both engines process events in the canonical
//! `(time, seq)` order — FIFO among simultaneous events — draw from
//! the service-time RNG at identical points, and consult the fault
//! plane at identical points, so for any `(net, cores, ops, seed,
//! faults)` they produce byte-identical results and event traces
//! (`tests/engine_equivalence.rs` pins this; see `DESIGN.md` §11).

mod exp;
pub mod reference;
pub mod wheel;

pub use exp::exp_cycles;

use crate::mva::{Network, StationKind};
use pk_fault::{FaultPlane, FaultPoint};
use pk_trace::{EventKind, TraceWriter, Tracer};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use wheel::EventWheel;

/// Extra cycles a lock holder loses when the `sim.lock_holder_preempt`
/// fault fires at a service start: the holder is descheduled mid
/// critical section and every waiter spins for the full quantum. The
/// magnitude is a scheduler timeslice in cycles, dwarfing any service
/// demand in the roster networks.
pub(crate) const PREEMPT_CYCLES: u64 = 50_000;

/// Extra cycles a core loses when the `sim.core_stall` fault fires at a
/// dispatch: the core is stalled (interrupt storm, SMI, thermal event)
/// before it reaches the station.
pub(crate) const STALL_CYCLES: u64 = 10_000;

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesResult {
    /// Measured throughput in operations per cycle (post-warmup).
    pub ops_per_cycle: f64,
    /// Operations completed in the measurement window.
    pub completed_ops: u64,
    /// Mean cycles per operation (end-to-end, post-warmup).
    pub cycles_per_op: f64,
    /// Per-station mean queue length sampled at departures.
    pub mean_queue_len: Vec<f64>,
    /// Per-station mean queueing delay per visit, in cycles: time from
    /// joining the queue to service start, measured over the whole run.
    pub mean_wait_cycles: Vec<f64>,
    /// Per-station cache-line transfers over the whole run: one per
    /// service start whose previous holder was a different core, plus
    /// one per enqueue at a non-scalable lock (the waiter pulls the
    /// line to poll it — the traffic behind the collapse factor).
    pub line_transfers: Vec<u64>,
    /// Events the engine dispatched (station departures processed) —
    /// the denominator of the wall-clock events/sec rows `benchmark/`
    /// records. Identical across engines for the same inputs.
    pub events_processed: u64,
}

/// The uniform behind every service draw: the vendored `rand` `f64`
/// sampling (53 mantissa bits) inlined without the `dyn RngCore` hop
/// `Rng::gen` takes — identical bits, fewer indirect calls — clamped to
/// the draws' domain `[10⁻¹², 1)`.
#[inline]
pub(crate) fn uniform(rng: &mut SmallRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(exp::U_MIN)
}

/// Draws an exponential service time with the given mean, clamped to
/// at least one cycle: the on-the-spot draw the [`reference`](mod@reference)
/// engine takes as the oracle. Every other engine draws the same stream
/// ahead through [`Draws`], whose `k`-th draw is this function's `k`-th;
/// [`exp_cycles`] turns the uniform into cycles without a libm call on
/// the common path, with the result of the pinned `ln` expression.
#[inline]
pub(crate) fn service(rng: &mut SmallRng, mean: f64) -> u64 {
    exp_cycles(uniform(rng), mean)
}

/// Uniforms a [`Draws`] block holds.
const BLOCK: usize = 16;

/// [`service`] with the uniforms drawn ahead: [`BLOCK`] at a time from
/// the same stream, each stored with its inline logarithm, so a
/// dispatch only decides `−mean·ln u` against the guard band. The
/// stream is consumed in order, so the `k`-th draw is [`service`]'s
/// `k`-th; the uniforms left in the block when a run ends are never
/// read. The closed engine's service times, and the open engines'
/// service times and arrival gaps, all come from one of these.
pub(crate) struct Draws {
    rng: SmallRng,
    /// The uniforms and their `exp::ln_draw`, consumed from `next` up.
    u: [f64; BLOCK],
    l: [f64; BLOCK],
    next: usize,
}

impl Draws {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            u: [0.0; BLOCK],
            l: [0.0; BLOCK],
            next: BLOCK,
        }
    }

    /// The next service time at `mean`.
    #[inline]
    pub(crate) fn service(&mut self, mean: f64) -> u64 {
        if self.next == BLOCK {
            self.refill();
        }
        let i = self.next;
        self.next += 1;
        exp::exp_cycles_ln(self.u[i], self.l[i], mean)
    }

    #[inline(never)]
    fn refill(&mut self) {
        // A local copy keeps the generator's state in registers.
        let mut rng = self.rng.clone();
        for u in &mut self.u {
            *u = uniform(&mut rng);
        }
        self.rng = rng;
        for (l, &u) in self.l.iter_mut().zip(&self.u) {
            *l = exp::ln_draw(u);
        }
        self.next = 0;
    }
}

/// Adds to a saturating `u64` accumulator. At 1024 simulated cores a
/// long soak can push raw counters (line transfers, queue-length
/// sample sums) toward `u64::MAX`; wrapping would silently corrupt
/// every derived mean, so debug builds assert and release builds pin
/// at the ceiling.
#[inline]
pub(crate) fn add_sat(acc: &mut u64, delta: u64) {
    debug_assert!(
        acc.checked_add(delta).is_some(),
        "u64 cycle accumulator overflow: {acc} + {delta}"
    );
    *acc = acc.saturating_add(delta);
}

/// Span classes for one traced simulation, interned up front so the
/// event loop records bare `u32`s through one batching [`TraceWriter`]
/// (the run owns every track; the writer flushes when this drops).
pub(crate) struct SimTrace<'a> {
    writer: TraceWriter<'a>,
    /// `des.op` — one root span per operation (end-to-end latency).
    op_class: u32,
    /// Per station: (service span, queue-wait child span). The wait
    /// class shares the station's name plus a ` (wait)` suffix, so a
    /// substring match on the station name (e.g. `vfsmount`) catches
    /// both holding and waiting cycles.
    station_classes: Vec<(u32, u32)>,
}

impl<'a> SimTrace<'a> {
    pub(crate) fn new(tracer: &'a Tracer, stations: &[crate::mva::Station]) -> Self {
        Self {
            writer: tracer.writer(),
            op_class: pk_trace::intern::intern_span("des.op"),
            station_classes: stations
                .iter()
                .map(|st| {
                    (
                        pk_trace::intern::intern_span(st.name),
                        pk_trace::intern::intern_span(&format!("{} (wait)", st.name)),
                    )
                })
                .collect(),
        }
    }

    pub(crate) fn begin(&mut self, track: usize, ts: u64, class: u32) {
        self.writer
            .record_at(track, ts, EventKind::SpanBegin, class, 0);
    }

    pub(crate) fn end(&mut self, track: usize, ts: u64, class: u32) {
        self.writer
            .record_at(track, ts, EventKind::SpanEnd, class, 0);
    }
}

/// Trace hooks the engine loop calls. The no-op implementation compiles
/// to nothing, so the untraced hot loop carries no `Option` checks.
pub(crate) trait TraceHooks {
    fn op_begin(&mut self, track: usize, ts: u64);
    fn op_end(&mut self, track: usize, ts: u64);
    fn station_begin(&mut self, track: usize, ts: u64, station: usize);
    fn station_end(&mut self, track: usize, ts: u64, station: usize);
    fn wait_begin(&mut self, track: usize, ts: u64, station: usize);
    fn wait_end(&mut self, track: usize, ts: u64, station: usize);
}

/// The zero-cost sink for untraced runs.
pub(crate) struct NoTrace;

impl TraceHooks for NoTrace {
    #[inline(always)]
    fn op_begin(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn op_end(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn station_begin(&mut self, _: usize, _: u64, _: usize) {}
    #[inline(always)]
    fn station_end(&mut self, _: usize, _: u64, _: usize) {}
    #[inline(always)]
    fn wait_begin(&mut self, _: usize, _: u64, _: usize) {}
    #[inline(always)]
    fn wait_end(&mut self, _: usize, _: u64, _: usize) {}
}

impl TraceHooks for SimTrace<'_> {
    #[inline]
    fn op_begin(&mut self, track: usize, ts: u64) {
        self.begin(track, ts, self.op_class);
    }
    #[inline]
    fn op_end(&mut self, track: usize, ts: u64) {
        self.end(track, ts, self.op_class);
    }
    #[inline]
    fn station_begin(&mut self, track: usize, ts: u64, station: usize) {
        self.begin(track, ts, self.station_classes[station].0);
    }
    #[inline]
    fn station_end(&mut self, track: usize, ts: u64, station: usize) {
        self.end(track, ts, self.station_classes[station].0);
    }
    #[inline]
    fn wait_begin(&mut self, track: usize, ts: u64, station: usize) {
        self.begin(track, ts, self.station_classes[station].1);
    }
    #[inline]
    fn wait_end(&mut self, track: usize, ts: u64, station: usize) {
        self.end(track, ts, self.station_classes[station].1);
    }
}

/// Simulates `net` with `cores` customers for `ops_per_core` operations
/// each (plus a 20% warmup that is excluded from the measurement).
///
/// Service times are exponential with the stations' mean demands, drawn
/// from a deterministic seeded generator: the same `(net, cores,
/// ops_per_core, seed)` always produces the same result.
///
/// # Panics
///
/// Panics if the network is empty or `cores == 0`.
pub fn simulate(net: &Network, cores: usize, ops_per_core: u64, seed: u64) -> DesResult {
    simulate_with_faults(net, cores, ops_per_core, seed, &FaultPlane::disabled())
}

/// [`simulate`] with a fault plane wired into the event loop.
///
/// Two injection points perturb the simulated hardware:
///
/// * `sim.lock_holder_preempt` — checked at every Queue/NonScalable
///   service start; when it fires the service time is inflated by
///   `PREEMPT_CYCLES`, modeling the holder losing its timeslice
///   inside the critical section (the pathology spin locks are famously
///   vulnerable to).
/// * `sim.core_stall` — checked at every dispatch; when it fires the
///   customer arrives `STALL_CYCLES` late, modeling a stalled core.
///
/// The plane is read once, when the run starts. Enabled, both points
/// are checked at every arrival as above; disabled, the run takes an
/// instantiation without fault checks and is byte-for-byte [`simulate`]
/// (both points are still registered, so [`FaultPlane::stats`] lists
/// them, with nothing checked). A plane enabled mid-run is not seen by
/// that run. The checks draw nothing from the service-time RNG, so
/// fault-free runs replay exactly.
pub fn simulate_with_faults(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &FaultPlane,
) -> DesResult {
    simulate_traced(net, cores, ops_per_core, seed, faults, None)
}

/// [`simulate_with_faults`] plus **sim-domain** tracing: when `tracer`
/// is `Some`, every customer gets a track (track = customer index)
/// carrying a root `des.op` span per operation, a span per station
/// visit (named after the station), and — when the visit queued — a
/// nested `<station> (wait)` span from enqueue to service start. All
/// timestamps are DES cycles via [`Tracer::record_at`]; tracing draws
/// nothing from the service-time RNG, so the measured result is
/// byte-for-byte identical to the untraced run.
pub fn simulate_traced(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &FaultPlane,
    tracer: Option<&Tracer>,
) -> DesResult {
    assert!(cores > 0, "need at least one core");
    assert!(!net.stations().is_empty(), "need at least one station");
    match tracer {
        Some(t) => run_on(
            net,
            cores,
            ops_per_core,
            seed,
            faults,
            &mut SimTrace::new(t, net.stations()),
        ),
        None => run_on(net, cores, ops_per_core, seed, faults, &mut NoTrace),
    }
}

/// Fault hooks the engine loop calls, one per injection point. Like
/// [`TraceHooks`], the no-op implementation compiles to nothing.
trait FaultHooks {
    /// `sim.lock_holder_preempt`, at a Queue/NonScalable service start.
    fn preempt(&self) -> bool;
    /// `sim.core_stall`, at a dispatch.
    fn stall(&self) -> bool;
}

/// The hooks of a run whose plane was disabled when it started.
struct NoFaults;

impl FaultHooks for NoFaults {
    #[inline(always)]
    fn preempt(&self) -> bool {
        false
    }
    #[inline(always)]
    fn stall(&self) -> bool {
        false
    }
}

/// The hooks of a run whose plane was enabled when it started.
struct PlaneFaults {
    preempt: FaultPoint,
    stall: FaultPoint,
}

impl FaultHooks for PlaneFaults {
    #[inline]
    fn preempt(&self) -> bool {
        self.preempt.should_inject()
    }
    #[inline]
    fn stall(&self) -> bool {
        self.stall.should_inject()
    }
}

/// Registers both points, then runs the instantiation the plane's state
/// at entry selects.
fn run_on<S: TraceHooks>(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &FaultPlane,
    sink: &mut S,
) -> DesResult {
    let points = PlaneFaults {
        preempt: faults.point("sim.lock_holder_preempt"),
        stall: faults.point("sim.core_stall"),
    };
    if faults.is_enabled() {
        run(net, cores, ops_per_core, seed, &points, sink)
    } else {
        run(net, cores, ops_per_core, seed, &NoFaults, sink)
    }
}

/// Sentinel for "no customer" in the intrusive queue links and "no
/// owner" in a station's `last_owner`.
const NONE: u32 = u32::MAX;

/// One station's state the dispatch reads and writes, in one row.
/// The station's wait queue is an intrusive FIFO from `qhead` to
/// `qtail` over the customers' `qnext` links.
struct Row {
    demand: f64,
    kind: StationKind,
    busy: bool,
    qlen: u32,
    qhead: u32,
    qtail: u32,
    /// The customer whose service last held the station's line.
    last_owner: u32,
}

/// One station's counters: only added to during the run, read once by
/// [`Hot::into_result`].
#[derive(Default)]
struct Tally {
    /// Exact integer sum of departure-sampled queue lengths. An `f64`
    /// running sum silently loses precision past 2^53; the integer sum
    /// is exact (and saturates loudly via [`add_sat`]).
    qlen_sum: u64,
    samples: u64,
    service_starts: u64,
    transfers: u64,
    /// 128-bit: 1024 cores × multi-billion-cycle soaks can push the
    /// summed wait past `u64::MAX`.
    wait_cycles: u128,
}

/// The engine's hot state: a [`Row`] per station, the counters in a
/// separate [`Tally`] per station, and per-customer fields in dense
/// vectors. Each customer queues at most once, so one `qnext` link per
/// customer is a complete slab for the station FIFOs — no allocation
/// per enqueue, ever.
struct Hot {
    rows: Vec<Row>,
    tallies: Vec<Tally>,
    // Customers.
    cust_station: Vec<u32>,
    cust_ops: Vec<u64>,
    cust_op_start: Vec<u64>,
    qnext: Vec<u32>,
    enq_at: Vec<u64>,
    draws: Draws,
}

impl Hot {
    fn new(net: &Network, cores: usize, seed: u64) -> Self {
        let stations = net.stations();
        Self {
            rows: stations
                .iter()
                .map(|s| Row {
                    demand: s.demand_cycles,
                    kind: s.kind,
                    busy: false,
                    qlen: 0,
                    qhead: NONE,
                    qtail: NONE,
                    last_owner: NONE,
                })
                .collect(),
            tallies: stations.iter().map(|_| Tally::default()).collect(),
            cust_station: vec![0; cores],
            cust_ops: vec![0; cores],
            cust_op_start: vec![0; cores],
            qnext: vec![NONE; cores],
            enq_at: vec![0; cores],
            draws: Draws::new(seed),
        }
    }

    #[inline]
    fn enqueue(&mut self, st: usize, c: u32, t: u64) {
        let ci = c as usize;
        self.qnext[ci] = NONE;
        self.enq_at[ci] = t;
        let row = &mut self.rows[st];
        if row.qtail == NONE {
            row.qhead = c;
        } else {
            self.qnext[row.qtail as usize] = c;
        }
        row.qtail = c;
        row.qlen += 1;
    }

    #[inline]
    fn dequeue(&mut self, st: usize) -> Option<(u32, u64)> {
        let row = &mut self.rows[st];
        let head = row.qhead;
        if head == NONE {
            return None;
        }
        let hi = head as usize;
        let next = self.qnext[hi];
        row.qhead = next;
        if next == NONE {
            row.qtail = NONE;
        }
        row.qlen -= 1;
        Some((head, self.enq_at[hi]))
    }

    /// Starts customer `c`'s service at the busy Queue/NonScalable
    /// station `st` at `now`: charges the coherence cost, draws the
    /// service time at the station's *current* queue length and returns
    /// the completion time. Forced inline, like [`Hot::dispatch`]: as
    /// calls, the two cost 3–5 % of a 48-core run.
    #[inline(always)]
    fn start_service<F: FaultHooks>(&mut self, st: usize, c: u32, now: u64, faults: &F) -> u64 {
        let row = &mut self.rows[st];
        let pollers = match row.kind {
            StationKind::NonScalable { .. } => row.qlen,
            _ => 0,
        };
        let mean = row.kind.service_mean(row.demand, pollers as usize);
        let moved = row.last_owner != c;
        row.last_owner = c;
        let tally = &mut self.tallies[st];
        add_sat(&mut tally.service_starts, 1);
        // A handoff to another core moves the line, and every waiter
        // polling a non-scalable lock pulls it away from the new holder
        // at least once.
        add_sat(&mut tally.transfers, u64::from(moved) + u64::from(pollers));
        let done = now.saturating_add(self.draws.service(mean));
        if faults.preempt() {
            done.saturating_add(PREEMPT_CYCLES)
        } else {
            done
        }
    }

    /// Dispatches customer `c` into station `st` at time `now`.
    /// Returns the (possibly stall-shifted) arrival time and, when
    /// service started immediately, the completion time (`None` means
    /// the customer queued).
    #[inline(always)]
    fn dispatch<F: FaultHooks>(
        &mut self,
        st: usize,
        c: u32,
        now: u64,
        faults: &F,
    ) -> (u64, Option<u64>) {
        // A stalled core arrives late; the delay shifts both its service
        // and (if the server is busy) its enqueue time.
        let now = now.saturating_add(STALL_CYCLES * u64::from(faults.stall()));
        let row = &mut self.rows[st];
        if matches!(row.kind, StationKind::Delay) {
            let d = row.demand;
            return (now, Some(now.saturating_add(self.draws.service(d))));
        }
        if row.busy {
            self.enqueue(st, c, now);
            (now, None)
        } else {
            row.busy = true;
            (now, Some(self.start_service(st, c, now, faults)))
        }
    }

    fn into_result(
        self,
        measured_ops: u64,
        measured_cycles: u128,
        span: u64,
        events_processed: u64,
    ) -> DesResult {
        let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        DesResult {
            ops_per_cycle: measured_ops as f64 / span as f64,
            completed_ops: measured_ops,
            cycles_per_op: if measured_ops > 0 {
                measured_cycles as f64 / measured_ops as f64
            } else {
                0.0
            },
            mean_queue_len: self
                .tallies
                .iter()
                .map(|t| mean(t.qlen_sum as f64, t.samples))
                .collect(),
            mean_wait_cycles: self
                .tallies
                .iter()
                .map(|t| mean(t.wait_cycles as f64, t.service_starts))
                .collect(),
            line_transfers: self.tallies.iter().map(|t| t.transfers).collect(),
            events_processed,
        }
    }
}

/// The fast engine: monomorphized over the fault hooks and the trace
/// sink, so a run on a disabled plane checks no fault point and an
/// untraced run pays nothing for the hooks.
fn run<F: FaultHooks, S: TraceHooks>(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &F,
    sink: &mut S,
) -> DesResult {
    let n_stations = net.stations().len();
    let mut hot = Hot::new(net, cores, seed);
    let max_demand = hot.rows.iter().map(|r| r.demand).fold(1.0_f64, f64::max);
    let mut events = EventWheel::new(max_demand, cores);

    let warmup_ops = (ops_per_core / 5).max(1);
    let total_ops = ops_per_core + warmup_ops;
    let mut now = 0u64;
    let mut measured_ops = 0u64;
    let mut measured_cycles = 0u128;
    let mut warmup_end_time = 0u64;
    let mut finished = 0usize;
    let mut events_processed = 0u64;

    // Seed: every customer enters station 0.
    for c in 0..cores as u32 {
        sink.op_begin(c as usize, 0);
        let (arrival, done) = hot.dispatch(0, c, 0, faults);
        sink.station_begin(c as usize, arrival, 0);
        if done.is_none() {
            sink.wait_begin(c as usize, arrival, 0);
        }
        if let Some(t) = done {
            events.push(t, c);
        }
    }

    while let Some((t, c)) = events.pop() {
        events_processed += 1;
        now = t;
        let ci = c as usize;
        let station = hot.cust_station[ci] as usize;
        sink.station_end(ci, now, station);
        // Departure from `station`.
        let row = &mut hot.rows[station];
        if !matches!(row.kind, StationKind::Delay) {
            let qlen = row.qlen;
            row.busy = false;
            let tally = &mut hot.tallies[station];
            add_sat(&mut tally.qlen_sum, u64::from(qlen));
            add_sat(&mut tally.samples, 1);
            if let Some((next_c, enqueued_at)) = hot.dequeue(station) {
                // Start the next waiter; the server stays busy.
                hot.rows[station].busy = true;
                // A stall-injected waiter can carry an enqueue stamp later
                // than this departure; it effectively waited zero cycles.
                hot.tallies[station].wait_cycles += now.saturating_sub(enqueued_at) as u128;
                sink.wait_end(next_c as usize, now.max(enqueued_at), station);
                let done = hot.start_service(station, next_c, now, faults);
                events.push(done, next_c);
                // next_c stays at the same station until its own departure.
            }
        }
        // Advance this customer.
        let mut next_station = station + 1;
        if next_station == n_stations {
            // One operation complete.
            next_station = 0;
            hot.cust_ops[ci] += 1;
            let ops_done = hot.cust_ops[ci];
            sink.op_end(ci, now);
            if ops_done < total_ops {
                sink.op_begin(ci, now);
            }
            if ops_done == warmup_ops {
                warmup_end_time = warmup_end_time.max(now);
            }
            if ops_done > warmup_ops && ops_done <= total_ops {
                measured_ops += 1;
                measured_cycles += now.saturating_sub(hot.cust_op_start[ci]) as u128;
            }
            hot.cust_op_start[ci] = now;
            if ops_done >= total_ops {
                hot.cust_station[ci] = 0;
                finished += 1;
                if finished == cores {
                    break;
                }
                continue;
            }
        }
        hot.cust_station[ci] = next_station as u32;
        let (arrival, done) = hot.dispatch(next_station, c, now, faults);
        sink.station_begin(ci, arrival, next_station);
        if done.is_none() {
            sink.wait_begin(ci, arrival, next_station);
        }
        if let Some(done) = done {
            events.push(done, c);
        }
    }

    let span = now.saturating_sub(warmup_end_time).max(1);
    hot.into_result(measured_ops, measured_cycles, span, events_processed)
}

impl DesResult {
    /// Every station as a contention-report row, like
    /// [`crate::mva::MvaResult::resources`] but with *measured* waits
    /// and transfer counts instead of analytic ones. `net` must be the
    /// network that was simulated (it supplies names and demands).
    pub fn resources(&self, net: &Network) -> Vec<pk_obs::Resource> {
        let per_op = self.completed_ops.max(1) as f64;
        let stations = net.stations().iter().enumerate();
        stations
            .map(|(j, st)| pk_obs::Resource {
                name: st.name.to_string(),
                cycles_per_op: st.demand_cycles + self.mean_wait_cycles[j],
                wait_cycles_per_op: self.mean_wait_cycles[j],
                share: 0.0,
                queue_len: self.mean_queue_len[j],
                line_transfers: self.line_transfers[j] as f64 / per_op,
                is_system: st.is_system,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::Station;

    fn relative_error(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-12)
    }

    #[test]
    fn delay_only_network_matches_mva_exactly_in_rate() {
        let mut net = Network::new();
        net.push(Station::delay("user", 10_000.0, false));
        for cores in [1, 8, 48] {
            let mva = net.solve(cores).ops_per_cycle;
            let des = simulate(&net, cores, 4_000, 42).ops_per_cycle;
            assert!(
                relative_error(des, mva) < 0.05,
                "cores={cores}: des={des}, mva={mva}"
            );
        }
    }

    #[test]
    fn des_validates_mva_on_queueing_networks() {
        let mut net = Network::new();
        net.push(Station::delay("user", 8_000.0, false));
        net.push(Station::queue("lock", 1_000.0, true));
        for cores in [1, 4, 12, 24] {
            let mva = net.solve(cores).ops_per_cycle;
            let des = simulate(&net, cores, 6_000, 7).ops_per_cycle;
            assert!(
                relative_error(des, mva) < 0.10,
                "cores={cores}: des={des}, mva={mva}"
            );
        }
    }

    #[test]
    fn des_validates_mva_at_saturation() {
        // Deep saturation: the throughput must pin to the service bound
        // for both solvers.
        let mut net = Network::new();
        net.push(Station::delay("user", 1_000.0, false));
        net.push(Station::queue("hot", 2_000.0, true));
        let mva = net.solve(32).ops_per_cycle;
        let des = simulate(&net, 32, 4_000, 11).ops_per_cycle;
        let bound = 1.0 / 2_000.0;
        assert!(relative_error(mva, bound) < 0.02);
        assert!(
            relative_error(des, bound) < 0.05,
            "des={des}, bound={bound}"
        );
    }

    #[test]
    fn des_shows_nonscalable_collapse_too() {
        let mut net = Network::new();
        net.push(Station::delay("user", 2_000.0, false));
        net.push(Station::spinlock("biglock", 500.0, 0.5, true));
        let x8 = simulate(&net, 8, 6_000, 3).ops_per_cycle;
        let x48 = simulate(&net, 48, 6_000, 3).ops_per_cycle;
        assert!(
            x48 < x8,
            "the simulated spin lock must collapse: x8={x8}, x48={x48}"
        );
    }

    #[test]
    fn simultaneous_events_dispatch_fifo() {
        // Demands so small every service clamps to exactly 1 cycle:
        // all four customers finish the delay station at t=1
        // simultaneously, so the queue station's first-come order is
        // decided purely by the tie-break. FIFO hands the queue to
        // customer 0 (dispatched first, smallest seq) and makes
        // customer 3 wait the full 3 cycles; the old LIFO order did
        // the exact opposite.
        let mut net = Network::new();
        net.push(Station::delay("u", 1e-12, false));
        net.push(Station::queue("q", 1e-12, true));
        let tracer = pk_trace::Tracer::new(4, 1 << 12);
        simulate_traced(
            &net,
            4,
            8,
            1,
            &pk_fault::FaultPlane::disabled(),
            Some(&tracer),
        );
        let wait_class = pk_trace::intern::intern_span("q (wait)");
        let first_wait = |track: u32, events: &[pk_trace::Event]| -> Option<(u64, u64)> {
            let begin = events
                .iter()
                .find(|e| {
                    e.track == track && e.class == wait_class && e.kind == EventKind::SpanBegin
                })?
                .ts;
            let end = events
                .iter()
                .find(|e| {
                    e.track == track && e.class == wait_class && e.kind == EventKind::SpanEnd
                })?
                .ts;
            Some((begin, end))
        };
        let events = tracer.drain();
        // Customer 0 reaches the free queue first: it never waits on
        // its first visit (its first wait, if any, is on a later lap).
        if let Some((begin, _)) = first_wait(0, &events) {
            assert!(begin > 1, "customer 0 queued on its first visit");
        }
        // Customer 3 arrives last at t=1 and waits behind 1 and 2.
        let (begin, end) = first_wait(3, &events).expect("customer 3 must queue");
        assert_eq!((begin, end), (1, 4), "FIFO makes the last arrival wait 3");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mut net = Network::new();
        net.push(Station::delay("u", 5_000.0, false));
        net.push(Station::queue("q", 700.0, true));
        let a = simulate(&net, 6, 2_000, 99);
        let b = simulate(&net, 6, 2_000, 99);
        assert_eq!(a.ops_per_cycle, b.ops_per_cycle);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(a.events_processed, b.events_processed);
        let c = simulate(&net, 6, 2_000, 100);
        assert_ne!(a.ops_per_cycle, c.ops_per_cycle, "different seed differs");
    }

    #[test]
    fn waits_and_transfers_grow_with_load() {
        let mut net = Network::new();
        net.push(Station::delay("u", 4_000.0, false));
        net.push(Station::spinlock("lock", 1_000.0, 0.3, true));
        let light = simulate(&net, 2, 4_000, 5);
        let heavy = simulate(&net, 24, 4_000, 5);
        assert!(
            heavy.mean_wait_cycles[1] > light.mean_wait_cycles[1] + 1_000.0,
            "queueing delay must grow: light={}, heavy={}",
            light.mean_wait_cycles[1],
            heavy.mean_wait_cycles[1]
        );
        assert_eq!(light.mean_wait_cycles[0], 0.0, "delay stations never queue");
        assert_eq!(light.line_transfers[0], 0, "core-local lines never move");
        // Per completed op, the contended run moves the lock's line
        // more often (handoffs plus waiter polling).
        let per_op = |r: &DesResult| r.line_transfers[1] as f64 / r.completed_ops.max(1) as f64;
        assert!(per_op(&heavy) > per_op(&light));
    }

    #[test]
    fn des_resources_carry_measured_fields() {
        let mut net = Network::new();
        net.push(Station::delay("u", 3_000.0, false));
        net.push(Station::queue("q", 1_500.0, true));
        let r = simulate(&net, 16, 3_000, 9);
        let rows = r.resources(&net);
        assert_eq!(rows.len(), 2);
        let q = &rows[1];
        assert_eq!(q.name, "q");
        assert_eq!(q.wait_cycles_per_op, r.mean_wait_cycles[1]);
        assert_eq!(
            q.cycles_per_op,
            net.stations()[1].demand_cycles + q.wait_cycles_per_op
        );
        assert!(q.line_transfers > 0.0);
        assert!(q.is_system);
    }

    fn faulted_net() -> Network {
        let mut net = Network::new();
        net.push(Station::delay("u", 4_000.0, false));
        net.push(Station::queue("lock", 1_000.0, true));
        net
    }

    fn chaos_plane(seed: u64) -> pk_fault::FaultPlane {
        let plane = pk_fault::FaultPlane::with_seed(seed);
        plane.set(
            "sim.lock_holder_preempt",
            pk_fault::FaultSchedule::EveryNth(50),
        );
        plane.set("sim.core_stall", pk_fault::FaultSchedule::EveryNth(97));
        plane.enable();
        plane
    }

    #[test]
    fn disabled_fault_plane_replays_plain_simulate() {
        let net = faulted_net();
        let plain = simulate(&net, 8, 3_000, 21);
        let plane = pk_fault::FaultPlane::with_seed(21); // never enabled
        let with = simulate_with_faults(&net, 8, 3_000, 21, &plane);
        assert_eq!(plain.ops_per_cycle, with.ops_per_cycle);
        assert_eq!(plain.completed_ops, with.completed_ops);
        assert!(plane.trace().is_empty());
    }

    #[test]
    fn an_enabled_plane_that_never_fires_replays_the_fault_free_run() {
        // The enabled plane takes the checked instantiation, the disabled
        // one the instantiation without checks: same result, and the
        // enabled plane counts one check per service start at the lock
        // and one per dispatch (values pinned from the engine before the
        // split).
        let net = faulted_net();
        let off = pk_fault::FaultPlane::with_seed(21);
        let plain = simulate_with_faults(&net, 8, 3_000, 21, &off);
        let plane = pk_fault::FaultPlane::with_seed(21);
        plane.set("sim.lock_holder_preempt", pk_fault::FaultSchedule::Never);
        plane.set("sim.core_stall", pk_fault::FaultSchedule::Never);
        plane.enable();
        let checked = simulate_with_faults(&net, 8, 3_000, 21, &plane);
        assert_eq!(plain, checked);
        let counts = |p: &pk_fault::FaultPlane| {
            p.stats()
                .iter()
                .map(|s| (s.name, s.checked, s.injected))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            counts(&plane),
            [
                ("sim.core_stall", 57_600, 0),
                ("sim.lock_holder_preempt", 28_800, 0)
            ]
        );
        // The disabled run still registers both points, and checks none.
        assert_eq!(
            counts(&off),
            [("sim.core_stall", 0, 0), ("sim.lock_holder_preempt", 0, 0)]
        );
    }

    #[test]
    fn draws_ahead_equal_service_bit_for_bit() {
        // `Draws` against [`service`] on one stream, with the mean changing
        // on every draw: 20 000 draws cross 1 250 refills.
        let special = [
            0.0,
            -3.0,
            f64::NAN,
            exp::MEAN_MAX.next_down(),
            exp::MEAN_MAX,
            exp::MEAN_MAX.next_up(),
            1.27e13,
            f64::INFINITY,
        ];
        for seed in [42, 7] {
            let mut draws = Draws::new(seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in 0..20_000 {
                let mean = if i % 3 == 0 {
                    special[i / 3 % special.len()]
                } else {
                    10f64.powf((i % 97) as f64 / 7.0)
                };
                let want = service(&mut rng, mean);
                assert_eq!(
                    draws.service(mean),
                    want,
                    "seed {seed} draw {i} mean={mean}"
                );
            }
        }
    }

    #[test]
    fn preemption_and_stalls_slow_the_network() {
        let net = faulted_net();
        let clean = simulate(&net, 8, 3_000, 21);
        let plane = chaos_plane(21);
        let chaotic = simulate_with_faults(&net, 8, 3_000, 21, &plane);
        assert!(plane.injected_total() > 0, "faults must actually fire");
        assert!(
            chaotic.cycles_per_op > clean.cycles_per_op,
            "preempted holders must raise latency: clean={}, chaotic={}",
            clean.cycles_per_op,
            chaotic.cycles_per_op
        );
        assert!(chaotic.ops_per_cycle < clean.ops_per_cycle);
    }

    #[test]
    fn fault_injection_replays_from_the_seed() {
        let net = faulted_net();
        let plane_a = chaos_plane(77);
        let plane_b = chaos_plane(77);
        let a = simulate_with_faults(&net, 6, 2_000, 5, &plane_a);
        let b = simulate_with_faults(&net, 6, 2_000, 5, &plane_b);
        assert_eq!(a.ops_per_cycle, b.ops_per_cycle);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(plane_a.trace(), plane_b.trace(), "fault traces must replay");
        assert!(!plane_a.trace().is_empty());
    }

    #[test]
    fn queue_lengths_grow_with_load() {
        let mut net = Network::new();
        net.push(Station::delay("u", 4_000.0, false));
        net.push(Station::queue("q", 1_000.0, true));
        let light = simulate(&net, 2, 4_000, 5);
        let heavy = simulate(&net, 24, 4_000, 5);
        assert!(heavy.mean_queue_len[1] > light.mean_queue_len[1] + 1.0);
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let mut net = Network::new();
        net.push(Station::delay("trace-u", 4_000.0, false));
        net.push(Station::spinlock("trace-lock", 1_000.0, 0.3, true));
        let plain = simulate(&net, 8, 1_000, 17);
        let tracer = pk_trace::Tracer::new(8, 1 << 16);
        let traced = simulate_traced(
            &net,
            8,
            1_000,
            17,
            &pk_fault::FaultPlane::disabled(),
            Some(&tracer),
        );
        assert_eq!(plain.ops_per_cycle, traced.ops_per_cycle);
        assert_eq!(plain.completed_ops, traced.completed_ops);
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(tracer.dropped(), 0, "ring sized for the whole run");

        let events = tracer.drain();
        assert!(!events.is_empty());
        // Per track, timestamps never go backwards (fault-free run).
        let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
        for e in &events {
            let prev = last.entry(e.track).or_insert(0);
            assert!(e.ts >= *prev, "track {} went backwards", e.track);
            *prev = e.ts;
        }
    }

    #[test]
    fn traced_runs_replay_byte_identically() {
        let mut net = Network::new();
        net.push(Station::delay("replay-u", 3_000.0, false));
        net.push(Station::queue("replay-q", 900.0, true));
        let run = || {
            let tracer = pk_trace::Tracer::new(6, 1 << 15);
            simulate_traced(
                &net,
                6,
                500,
                23,
                &pk_fault::FaultPlane::disabled(),
                Some(&tracer),
            );
            tracer.drain()
        };
        let events = run();
        assert_eq!(
            pk_trace::encode_stream(&events),
            pk_trace::encode_stream(&run()),
            "same seed, same bytes"
        );
        // Pinned: a reordered, lost or extra event changes the digest.
        assert_eq!(events.len(), 27_780, "event count");
        assert_eq!(
            crate::stream_digest(&events),
            0xe3d6_edb3_3938_0c26,
            "stream digest"
        );
    }

    #[test]
    fn clock_saturates_instead_of_overflowing() {
        // A draw past 2⁶⁴ cycles pins the clock at `u64::MAX`: every
        // later event is filed there, and both engines agree on it.
        let mut net = Network::new();
        net.push(Station::delay("huge", 1e20, false));
        let wheel = simulate(&net, 2, 10, 42);
        assert_eq!(wheel, reference::simulate(&net, 2, 10, 42));
        assert_eq!(wheel.completed_ops, 20);
    }
}
