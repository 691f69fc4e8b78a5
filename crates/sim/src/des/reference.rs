//! The original `BinaryHeap` DES engine, kept as the differential
//! oracle for the fast calendar-queue engine.
//!
//! This is deliberately the *simple* implementation: one central
//! max-heap over `Reverse((time, seq, customer))`, boxed `VecDeque`
//! waiter queues, one event popped at a time. It is an order of
//! magnitude slower than [`super`]'s wheel engine, but its correctness
//! argument fits in a paragraph — which is exactly what an oracle is
//! for. `tests/engine_equivalence.rs` drives both engines through
//! identical seeded schedules (all station kinds × fault injections ×
//! topologies) and asserts byte-identical results and event traces;
//! the repo benchmark (`benchmark/`) times both. Keep the two
//! engines' RNG draws and fault-point checks in lockstep: any
//! divergence is a bug in one of them, and the oracle is the one that
//! is easy to audit.

use super::{add_sat, service, DesResult, NoTrace, SimTrace, TraceSink};
use super::{PREEMPT_CYCLES, STALL_CYCLES};
use crate::mva::{Network, StationKind};
use pk_fault::{FaultPlane, FaultPoint};
use pk_trace::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Ordered event: (time, sequence, customer), wrapped so the max-heap
/// pops the *smallest* `(time, seq)` first. The `seq` component makes
/// the order total: simultaneous events dispatch FIFO (smallest
/// sequence number first) — the canonical tie-break contract every
/// engine must honour (see the `simultaneous_events_dispatch_fifo`
/// regression test in the parent module).
type Event = Reverse<(u64, u64, usize)>;

/// Per-customer progress.
#[derive(Debug, Clone, Copy)]
struct Customer {
    station: usize,
    ops_done: u64,
    op_start: u64,
}

/// Per-station runtime state.
#[derive(Debug)]
struct StationState {
    busy: bool,
    /// Waiters with their enqueue times.
    queue: VecDeque<(usize, u64)>,
    /// Exact integer sum of departure-sampled queue lengths (same
    /// width as the fast engine, so derived means match bit-for-bit).
    queue_len_samples: u64,
    samples: u64,
    /// Total cycles waiters spent queued (enqueue → service start).
    wait_cycles: u128,
    /// Service starts, for per-visit wait averaging.
    service_starts: u64,
    /// Cache-line transfers (owner changes + non-scalable polling).
    transfers: u64,
    /// Core whose cache last held the station's line.
    last_owner: Option<usize>,
}

impl StationState {
    /// Charges the coherence cost of customer `c` starting service.
    fn start_service(&mut self, c: usize, nonscalable_waiters: usize) {
        add_sat(&mut self.service_starts, 1);
        if self.last_owner != Some(c) {
            self.transfers += 1;
        }
        self.last_owner = Some(c);
        // Every waiter polling a non-scalable lock pulls the line
        // away from the new holder at least once per handoff.
        add_sat(&mut self.transfers, nonscalable_waiters as u64);
    }
}

/// [`super::simulate`] on the heap engine.
pub fn simulate(net: &Network, cores: usize, ops_per_core: u64, seed: u64) -> DesResult {
    simulate_with_faults(net, cores, ops_per_core, seed, &FaultPlane::disabled())
}

/// [`super::simulate_with_faults`] on the heap engine.
pub fn simulate_with_faults(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &FaultPlane,
) -> DesResult {
    simulate_traced(net, cores, ops_per_core, seed, faults, None)
}

/// [`super::simulate_traced`] on the heap engine.
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

fn run<S: TraceSink>(
    net: &Network,
    cores: usize,
    ops_per_core: u64,
    seed: u64,
    faults: &FaultPlane,
    sink: &S,
) -> DesResult {
    let stations = net.stations();
    let fault_preempt = faults.point("sim.lock_holder_preempt");
    let fault_stall = faults.point("sim.core_stall");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state: Vec<StationState> = stations
        .iter()
        .map(|_| StationState {
            busy: false,
            queue: VecDeque::new(),
            queue_len_samples: 0,
            samples: 0,
            wait_cycles: 0,
            service_starts: 0,
            transfers: 0,
            last_owner: None,
        })
        .collect();
    let mut customers: Vec<Customer> = (0..cores)
        .map(|_| Customer {
            station: 0,
            ops_done: 0,
            op_start: 0,
        })
        .collect();

    let warmup_ops = (ops_per_core / 5).max(1);
    let total_ops = ops_per_core + warmup_ops;
    let mut events: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut measured_ops = 0u64;
    let mut measured_cycles = 0u128;
    let mut warmup_end_time = 0u64;
    let mut finished = 0usize;
    let mut events_processed = 0u64;

    // Dispatch customer `c` into its current station at time `now`.
    // Returns the (possibly stall-shifted) arrival time and, when
    // service started immediately, the completion time (`None` means
    // the customer queued).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        stations: &[crate::mva::Station],
        state: &mut [StationState],
        rng: &mut SmallRng,
        c: usize,
        station: usize,
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
        let st = &stations[station];
        match st.kind {
            StationKind::Delay => (now, Some(now + service(rng, st.demand_cycles))),
            StationKind::Queue | StationKind::NonScalable { .. } => {
                let s = &mut state[station];
                if s.busy {
                    s.queue.push_back((c, now));
                    (now, None)
                } else {
                    s.busy = true;
                    let (mean, pollers) = match st.kind {
                        StationKind::NonScalable { collapse } => (
                            st.demand_cycles * (1.0 + collapse * s.queue.len() as f64),
                            s.queue.len(),
                        ),
                        _ => (st.demand_cycles, 0),
                    };
                    s.start_service(c, pollers);
                    let mut done = now + service(rng, mean);
                    if preempt.should_inject() {
                        done += PREEMPT_CYCLES;
                    }
                    (now, Some(done))
                }
            }
        }
    }

    // Seed: every customer enters station 0.
    for c in 0..cores {
        sink.op_begin(c, 0);
        let (arrival, done) = dispatch(
            stations,
            &mut state,
            &mut rng,
            c,
            0,
            0,
            &fault_preempt,
            &fault_stall,
        );
        sink.station_begin(c, arrival, 0);
        if done.is_none() {
            sink.wait_begin(c, arrival, 0);
        }
        if let Some(t) = done {
            events.push(Reverse((t, seq, c)));
            seq += 1;
        }
    }

    while let Some(Reverse((t, _, c))) = events.pop() {
        events_processed += 1;
        now = t;
        let station = customers[c].station;
        sink.station_end(c, now, station);
        // Departure from `station`.
        if matches!(
            stations[station].kind,
            StationKind::Queue | StationKind::NonScalable { .. }
        ) {
            let s = &mut state[station];
            add_sat(&mut s.queue_len_samples, s.queue.len() as u64);
            add_sat(&mut s.samples, 1);
            s.busy = false;
            if let Some((next_c, enqueued_at)) = s.queue.pop_front() {
                // Start the next waiter; the server stays busy.
                s.busy = true;
                // A stall-injected waiter can carry an enqueue stamp later
                // than this departure; it effectively waited zero cycles.
                s.wait_cycles += now.saturating_sub(enqueued_at) as u128;
                sink.wait_end(next_c, now.max(enqueued_at), station);
                let st = &stations[station];
                let (mean, pollers) = match st.kind {
                    StationKind::NonScalable { collapse } => (
                        st.demand_cycles * (1.0 + collapse * s.queue.len() as f64),
                        s.queue.len(),
                    ),
                    _ => (st.demand_cycles, 0),
                };
                s.start_service(next_c, pollers);
                let mut done = now + service(&mut rng, mean);
                if fault_preempt.should_inject() {
                    done += PREEMPT_CYCLES;
                }
                events.push(Reverse((done, seq, next_c)));
                seq += 1;
                // next_c stays at the same station until its own departure.
            }
        }
        // Advance this customer.
        let mut cust = customers[c];
        cust.station += 1;
        if cust.station == stations.len() {
            // One operation complete.
            cust.station = 0;
            cust.ops_done += 1;
            sink.op_end(c, now);
            if cust.ops_done < total_ops {
                sink.op_begin(c, now);
            }
            if cust.ops_done == warmup_ops {
                warmup_end_time = warmup_end_time.max(now);
            }
            if cust.ops_done > warmup_ops && cust.ops_done <= total_ops {
                measured_ops += 1;
                measured_cycles += now.saturating_sub(cust.op_start) as u128;
            }
            cust.op_start = now;
            if cust.ops_done >= total_ops {
                customers[c] = cust;
                finished += 1;
                if finished == cores {
                    break;
                }
                continue;
            }
        }
        customers[c] = cust;
        let (arrival, done) = dispatch(
            stations,
            &mut state,
            &mut rng,
            c,
            cust.station,
            now,
            &fault_preempt,
            &fault_stall,
        );
        sink.station_begin(c, arrival, cust.station);
        if done.is_none() {
            sink.wait_begin(c, arrival, cust.station);
        }
        if let Some(done) = done {
            events.push(Reverse((done, seq, c)));
            seq += 1;
        }
    }

    let span = now.saturating_sub(warmup_end_time).max(1);
    DesResult {
        ops_per_cycle: measured_ops as f64 / span as f64,
        completed_ops: measured_ops,
        cycles_per_op: if measured_ops > 0 {
            measured_cycles as f64 / measured_ops as f64
        } else {
            0.0
        },
        mean_queue_len: state
            .iter()
            .map(|s| {
                if s.samples == 0 {
                    0.0
                } else {
                    s.queue_len_samples as f64 / s.samples as f64
                }
            })
            .collect(),
        mean_wait_cycles: state
            .iter()
            .map(|s| {
                if s.service_starts == 0 {
                    0.0
                } else {
                    s.wait_cycles as f64 / s.service_starts as f64
                }
            })
            .collect(),
        line_transfers: state.iter().map(|s| s.transfers).collect(),
        events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::Station;

    #[test]
    fn event_order_is_time_then_fifo_seq() {
        // The heap must pop ascending (time, seq): earliest time first,
        // and FIFO (smallest sequence number) among ties.
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        heap.push(Reverse((50, 1, 0)));
        heap.push(Reverse((50, 0, 1)));
        heap.push(Reverse((10, 2, 2)));
        heap.push(Reverse((50, 2, 3)));
        let order: Vec<(u64, u64, usize)> =
            std::iter::from_fn(|| heap.pop().map(|e| e.0)).collect();
        assert_eq!(order, [(10, 2, 2), (50, 0, 1), (50, 1, 0), (50, 2, 3)]);
    }

    #[test]
    fn reference_engine_still_validates_mva() {
        let mut net = Network::new();
        net.push(Station::delay("user", 8_000.0, false));
        net.push(Station::queue("lock", 1_000.0, true));
        let mva = net.solve(12).ops_per_cycle;
        let des = simulate(&net, 12, 6_000, 7).ops_per_cycle;
        assert!(
            (des - mva).abs() / mva < 0.10,
            "reference engine drifted: des={des}, mva={mva}"
        );
    }
}
