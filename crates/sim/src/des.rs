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
//! a time as a sorted batch), over struct-of-arrays hot state
//! (per-station and per-customer fields in parallel vectors, station
//! FIFO queues as an intrusive index-linked list — no per-event
//! allocation anywhere in the loop). The [`reference`](mod@reference)
//! module keeps the original `BinaryHeap` engine as the
//! differential oracle: both engines process events in the canonical
//! `(time, seq)` order — FIFO among simultaneous events — draw from
//! the service-time RNG at identical points, and consult the fault
//! plane at identical points, so for any `(net, cores, ops, seed,
//! faults)` they produce byte-identical results and event traces
//! (`tests/engine_equivalence.rs` pins this; see `DESIGN.md` §11).

pub mod reference;
pub mod wheel;

use crate::mva::{Network, StationKind};
use pk_fault::{FaultPlane, FaultPoint};
use pk_trace::{EventKind, Tracer};
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

/// Draws an exponential service time with the given mean, clamped to
/// at least one cycle. Both engines call this at the same points, so
/// the RNG streams stay aligned. The uniform draw inlines the vendored
/// `rand` `f64` sampling (53 mantissa bits) without the `dyn RngCore`
/// hop `Rng::gen` takes — identical bits, fewer indirect calls.
#[inline]
pub(crate) fn service(rng: &mut SmallRng, mean: f64) -> u64 {
    let u = ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-12);
    (-mean * u.ln()).max(1.0) as u64
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
/// event loop records bare `u32`s.
pub(crate) struct SimTrace<'a> {
    tracer: &'a Tracer,
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
            tracer,
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

    pub(crate) fn begin(&self, track: usize, ts: u64, class: u32) {
        self.tracer
            .record_at(track, ts, EventKind::SpanBegin, class, 0, 0);
    }

    pub(crate) fn end(&self, track: usize, ts: u64, class: u32) {
        self.tracer
            .record_at(track, ts, EventKind::SpanEnd, class, 0, 0);
    }
}

/// Trace hooks the engine loop calls. The no-op implementation compiles
/// to nothing, so the untraced hot loop carries no `Option` checks.
pub(crate) trait TraceSink {
    fn op_begin(&self, track: usize, ts: u64);
    fn op_end(&self, track: usize, ts: u64);
    fn station_begin(&self, track: usize, ts: u64, station: usize);
    fn station_end(&self, track: usize, ts: u64, station: usize);
    fn wait_begin(&self, track: usize, ts: u64, station: usize);
    fn wait_end(&self, track: usize, ts: u64, station: usize);
}

/// The zero-cost sink for untraced runs.
pub(crate) struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn op_begin(&self, _: usize, _: u64) {}
    #[inline(always)]
    fn op_end(&self, _: usize, _: u64) {}
    #[inline(always)]
    fn station_begin(&self, _: usize, _: u64, _: usize) {}
    #[inline(always)]
    fn station_end(&self, _: usize, _: u64, _: usize) {}
    #[inline(always)]
    fn wait_begin(&self, _: usize, _: u64, _: usize) {}
    #[inline(always)]
    fn wait_end(&self, _: usize, _: u64, _: usize) {}
}

impl TraceSink for SimTrace<'_> {
    #[inline]
    fn op_begin(&self, track: usize, ts: u64) {
        self.begin(track, ts, self.op_class);
    }
    #[inline]
    fn op_end(&self, track: usize, ts: u64) {
        self.end(track, ts, self.op_class);
    }
    #[inline]
    fn station_begin(&self, track: usize, ts: u64, station: usize) {
        self.begin(track, ts, self.station_classes[station].0);
    }
    #[inline]
    fn station_end(&self, track: usize, ts: u64, station: usize) {
        self.end(track, ts, self.station_classes[station].0);
    }
    #[inline]
    fn wait_begin(&self, track: usize, ts: u64, station: usize) {
        self.begin(track, ts, self.station_classes[station].1);
    }
    #[inline]
    fn wait_end(&self, track: usize, ts: u64, station: usize) {
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
/// With the plane disabled this is byte-for-byte [`simulate`]: the
/// fault checks cost one relaxed atomic load and draw nothing from the
/// service-time RNG, so fault-free runs replay exactly.
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
        Some(t) => run(
            net,
            cores,
            ops_per_core,
            seed,
            faults,
            &SimTrace::new(t, net.stations()),
        ),
        None => run(net, cores, ops_per_core, seed, faults, &NoTrace),
    }
}

/// Sentinel for "no customer" in the intrusive queue links and "no
/// owner" in the cache-line ownership column.
const NONE: u32 = u32::MAX;

/// The engine's hot state, struct-of-arrays: every per-station and
/// per-customer field lives in its own dense vector so the event loop
/// touches only the cache lines it needs. Station wait queues are an
/// intrusive FIFO over `qnext` (each customer queues at most once, so
/// one link per customer is a complete slab — no allocation per
/// enqueue, ever).
struct Hot {
    // Stations.
    kind: Vec<StationKind>,
    demand: Vec<f64>,
    busy: Vec<bool>,
    qhead: Vec<u32>,
    qtail: Vec<u32>,
    qlen: Vec<u32>,
    /// Exact integer sum of departure-sampled queue lengths. An `f64`
    /// running sum silently loses precision past 2^53; the integer sum
    /// is exact (and saturates loudly via [`add_sat`]).
    qlen_sum: Vec<u64>,
    samples: Vec<u64>,
    /// 128-bit: 1024 cores × multi-billion-cycle soaks can push the
    /// summed wait past `u64::MAX`.
    wait_cycles: Vec<u128>,
    service_starts: Vec<u64>,
    transfers: Vec<u64>,
    last_owner: Vec<u32>,
    // Customers.
    cust_station: Vec<u32>,
    cust_ops: Vec<u64>,
    cust_op_start: Vec<u64>,
    qnext: Vec<u32>,
    enq_at: Vec<u64>,
    rng: SmallRng,
}

impl Hot {
    fn new(net: &Network, cores: usize, seed: u64) -> Self {
        let stations = net.stations();
        let n = stations.len();
        Self {
            kind: stations.iter().map(|s| s.kind).collect(),
            demand: stations.iter().map(|s| s.demand_cycles).collect(),
            busy: vec![false; n],
            qhead: vec![NONE; n],
            qtail: vec![NONE; n],
            qlen: vec![0; n],
            qlen_sum: vec![0; n],
            samples: vec![0; n],
            wait_cycles: vec![0; n],
            service_starts: vec![0; n],
            transfers: vec![0; n],
            last_owner: vec![NONE; n],
            cust_station: vec![0; cores],
            cust_ops: vec![0; cores],
            cust_op_start: vec![0; cores],
            qnext: vec![NONE; cores],
            enq_at: vec![0; cores],
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    #[inline]
    fn enqueue(&mut self, st: usize, c: u32, t: u64) {
        let ci = c as usize;
        self.qnext[ci] = NONE;
        self.enq_at[ci] = t;
        let tail = self.qtail[st];
        if tail == NONE {
            self.qhead[st] = c;
        } else {
            self.qnext[tail as usize] = c;
        }
        self.qtail[st] = c;
        self.qlen[st] += 1;
    }

    #[inline]
    fn dequeue(&mut self, st: usize) -> Option<(u32, u64)> {
        let head = self.qhead[st];
        if head == NONE {
            return None;
        }
        let hi = head as usize;
        let next = self.qnext[hi];
        self.qhead[st] = next;
        if next == NONE {
            self.qtail[st] = NONE;
        }
        self.qlen[st] -= 1;
        Some((head, self.enq_at[hi]))
    }

    /// Mean service time and poller count for a service starting at
    /// `st` with the station's *current* queue length.
    #[inline]
    fn service_params(&self, st: usize) -> (f64, u32) {
        let pollers = match self.kind[st] {
            StationKind::NonScalable { .. } => self.qlen[st],
            _ => 0,
        };
        let mean = self.kind[st].service_mean(self.demand[st], pollers as usize);
        (mean, pollers)
    }

    /// Charges the coherence cost of customer `c` starting service.
    #[inline]
    fn start_service(&mut self, st: usize, c: u32, pollers: u32) {
        add_sat(&mut self.service_starts[st], 1);
        if self.last_owner[st] != c {
            self.transfers[st] += 1;
        }
        self.last_owner[st] = c;
        // Every waiter polling a non-scalable lock pulls the line
        // away from the new holder at least once per handoff.
        add_sat(&mut self.transfers[st], pollers as u64);
    }

    /// Dispatches customer `c` into station `st` at time `now`.
    /// Returns the (possibly stall-shifted) arrival time and, when
    /// service started immediately, the completion time (`None` means
    /// the customer queued).
    #[inline]
    fn dispatch(
        &mut self,
        st: usize,
        c: u32,
        now: u64,
        preempt: &FaultPoint,
        stall: &FaultPoint,
    ) -> (u64, Option<u64>) {
        // A stalled core arrives late; the delay shifts both its service
        // and (if the server is busy) its enqueue time.
        let now = if stall.should_inject() {
            now + STALL_CYCLES
        } else {
            now
        };
        match self.kind[st] {
            StationKind::Delay => {
                let d = self.demand[st];
                (now, Some(now + service(&mut self.rng, d)))
            }
            StationKind::Queue | StationKind::NonScalable { .. } => {
                if self.busy[st] {
                    self.enqueue(st, c, now);
                    (now, None)
                } else {
                    self.busy[st] = true;
                    let (mean, pollers) = self.service_params(st);
                    self.start_service(st, c, pollers);
                    let mut done = now + service(&mut self.rng, mean);
                    if preempt.should_inject() {
                        done += PREEMPT_CYCLES;
                    }
                    (now, Some(done))
                }
            }
        }
    }

    fn into_result(
        self,
        measured_ops: u64,
        measured_cycles: u128,
        span: u64,
        events_processed: u64,
    ) -> DesResult {
        DesResult {
            ops_per_cycle: measured_ops as f64 / span as f64,
            completed_ops: measured_ops,
            cycles_per_op: if measured_ops > 0 {
                measured_cycles as f64 / measured_ops as f64
            } else {
                0.0
            },
            mean_queue_len: self
                .qlen_sum
                .iter()
                .zip(&self.samples)
                .map(|(&sum, &n)| if n == 0 { 0.0 } else { sum as f64 / n as f64 })
                .collect(),
            mean_wait_cycles: self
                .wait_cycles
                .iter()
                .zip(&self.service_starts)
                .map(|(&w, &n)| if n == 0 { 0.0 } else { w as f64 / n as f64 })
                .collect(),
            line_transfers: self.transfers,
            events_processed,
        }
    }
}

/// The fast engine: monomorphized over the trace sink so untraced runs
/// pay nothing for the hooks.
fn run<S: TraceSink>(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &FaultPlane,
    sink: &S,
) -> DesResult {
    let stations = net.stations();
    let n_stations = stations.len();
    let fault_preempt = faults.point("sim.lock_holder_preempt");
    let fault_stall = faults.point("sim.core_stall");
    let mut hot = Hot::new(net, cores, seed);
    let max_demand = hot.demand.iter().cloned().fold(1.0_f64, f64::max);
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
        let (arrival, done) = hot.dispatch(0, c, 0, &fault_preempt, &fault_stall);
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
        if matches!(
            hot.kind[station],
            StationKind::Queue | StationKind::NonScalable { .. }
        ) {
            add_sat(&mut hot.qlen_sum[station], hot.qlen[station] as u64);
            add_sat(&mut hot.samples[station], 1);
            hot.busy[station] = false;
            if let Some((next_c, enqueued_at)) = hot.dequeue(station) {
                // Start the next waiter; the server stays busy.
                hot.busy[station] = true;
                // A stall-injected waiter can carry an enqueue stamp later
                // than this departure; it effectively waited zero cycles.
                hot.wait_cycles[station] += now.saturating_sub(enqueued_at) as u128;
                sink.wait_end(next_c as usize, now.max(enqueued_at), station);
                let (mean, pollers) = hot.service_params(station);
                hot.start_service(station, next_c, pollers);
                let mut done = now + service(&mut hot.rng, mean);
                if fault_preempt.should_inject() {
                    done += PREEMPT_CYCLES;
                }
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
        let (arrival, done) = hot.dispatch(next_station, c, now, &fault_preempt, &fault_stall);
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
    /// Exports the measured per-station detail as [`pk_obs::Sample`]s,
    /// mirroring [`crate::mva::MvaResult::snapshot`] but with *measured*
    /// waits and transfer counts instead of analytic ones. `net` must be
    /// the network that was simulated (it supplies names and demands).
    pub fn snapshot(&self, net: &Network) -> pk_obs::Snapshot {
        let mut snap = pk_obs::Snapshot::new();
        let per_op = self.completed_ops.max(1) as f64;
        for (j, st) in net.stations().iter().enumerate() {
            let wait = self.mean_wait_cycles[j];
            snap.push(pk_obs::Sample::station(
                st.name,
                pk_obs::StationSample {
                    demand_cycles: st.demand_cycles,
                    residence_cycles: st.demand_cycles + wait,
                    wait_cycles: wait,
                    queue_len: self.mean_queue_len[j],
                    utilization: (self.ops_per_cycle * st.demand_cycles).min(1.0),
                    line_transfers: self.line_transfers[j] as f64 / per_op,
                    is_system: st.is_system,
                },
            ));
        }
        snap
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
    fn des_snapshot_matches_measured_fields() {
        let mut net = Network::new();
        net.push(Station::delay("u", 3_000.0, false));
        net.push(Station::queue("q", 1_500.0, true));
        let r = simulate(&net, 16, 3_000, 9);
        let snap = r.snapshot(&net);
        assert_eq!(snap.len(), 2);
        match &snap.find("q").unwrap().value {
            pk_obs::MetricValue::Station(s) => {
                assert_eq!(s.wait_cycles, r.mean_wait_cycles[1]);
                assert!(s.residence_cycles >= s.demand_cycles);
                assert!(s.line_transfers > 0.0);
                assert!(s.is_system);
            }
            v => panic!("wrong value kind: {v:?}"),
        }
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

        let profile = pk_trace::Profile::build(&events);
        assert!(profile.total_cycles > 0);
        let names: Vec<&str> = profile.totals().iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"trace-lock"), "{names:?}");
        assert!(names.contains(&"trace-lock (wait)"), "contention queued");
        assert!(names.contains(&"des.op"));
        // The contended lock's hold + wait cycles dominate the delay
        // station's self time at this load.
        let lock_share = profile.share_where(|n| n.contains("trace-lock"));
        assert!(lock_share > 0.1, "lock_share={lock_share}");
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
            pk_trace::encode_stream(&tracer.drain())
        };
        assert_eq!(run(), run(), "same seed, same bytes");
    }
}
