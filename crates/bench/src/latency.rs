//! Tail latency under overload (`report latency`).
//!
//! Runs the serving roster as open-loop servers across the
//! {stock, PK} × {no-shed, shed} × {normal, 2× overload} grid and
//! derives the two claims the serving layer exists to make:
//!
//! 1. **Inversion** — at the same absolute arrival rate (anchored to
//!    the PK kernel's saturation capacity), the stock kernel's p999
//!    blows past PK's. The paper's throughput collapse, transposed to
//!    latency: a kernel that saturates earlier queues earlier.
//! 2. **Shedding bounds the tail** — at 2× overload, the bounded
//!    admission queue + drop-newest + deadline propagation keeps p999
//!    within a small multiple of the SLO *and* keeps goodput near
//!    capacity, while the unbounded "observe-only" posture diverges
//!    (the queue grows without bound and p999 with it).
//!
//! Both are derived from the runs, not asserted as constants — if the
//! engine stops reproducing them, `report latency` exits non-zero.

use crate::json;
use pk_fault::FaultPlane;
use pk_kernel::Personality;
use pk_serve::{run_serving, ServeRun, SERVING};

/// Core count for every serving run: past the paper's single-socket
/// knee, small enough that the grid stays sub-second.
pub const CORES: usize = 8;
/// Target arrivals per run: enough completions that p999 is read from
/// a populated tail bucket.
pub const REQUESTS: u64 = 4_000;
/// The healthy-load arm, percent of PK saturation capacity.
pub const NORMAL_LOAD_PCT: u32 = 60;
/// The overload arm: arrivals at twice what the machine can serve.
pub const OVERLOAD_PCT: u32 = 200;

/// The inversion must show on at least this many serving workloads.
pub const INVERSION_MIN_WORKLOADS: usize = 2;
/// Shed-arm p999 bound, as a multiple of the workload's SLO budget.
pub const SHED_P999_SLO_MULT: u64 = 2;
/// Shed-arm goodput floor, as a fraction of saturation capacity.
pub const SHED_GOODPUT_FLOOR: f64 = 0.80;
/// Unbounded queue depth at the horizon that counts as divergence
/// under 2× overload, as a fraction of offered requests. At 2× load
/// roughly half the arrivals can never be served, so a healthy
/// divergence signal is a large fraction of [`REQUESTS`].
pub const DIVERGENCE_FLOOR_FRACTION: f64 = 0.25;

/// One grid: every serving workload under both kernels and all three
/// serving postures, one seed.
#[derive(Debug, Clone)]
pub struct LatencyGrid {
    /// The seed every run derives from.
    pub seed: u64,
    /// Cores per run ([`CORES`]).
    pub cores: usize,
    /// All runs with the kernel each served on, in
    /// `SERVING × {stock, pk} × posture` order.
    pub runs: Vec<(Personality, ServeRun)>,
}

/// The three serving postures each (workload, kernel) pair runs.
const POSTURES: [(bool, u32); 3] = [
    (false, NORMAL_LOAD_PCT),
    (false, OVERLOAD_PCT),
    (true, OVERLOAD_PCT),
];

/// Runs the full grid. Deterministic: a pure function of `seed`.
pub fn run_grid(seed: u64) -> LatencyGrid {
    let plane = FaultPlane::disabled();
    let mut runs = Vec::new();
    for w in SERVING {
        for choice in [Personality::Stock, Personality::Pk] {
            for (shed, load) in POSTURES {
                let run = run_serving(w, choice, CORES, shed, load, REQUESTS, seed, &plane)
                    .expect("every SERVING workload has a serving spec");
                assert_eq!(
                    run.result.accounted(),
                    run.result.arrivals,
                    "{w}: arrival accounting leaked"
                );
                runs.push((choice, run));
            }
        }
    }
    LatencyGrid {
        seed,
        cores: CORES,
        runs,
    }
}

impl LatencyGrid {
    /// The one run matching (workload, kernel, posture).
    pub fn find(
        &self,
        workload: &str,
        choice: Personality,
        shed: bool,
        load_pct: u32,
    ) -> &ServeRun {
        self.runs
            .iter()
            .find(|(c, r)| {
                r.workload == workload
                    && *c == choice
                    && r.policy.is_bounded() == shed
                    && r.load_pct == load_pct
            })
            .map(|(_, r)| r)
            .expect("grid covers the full cross product")
    }
}

/// One workload's derived verdicts.
#[derive(Debug, Clone)]
pub struct WorkloadVerdict {
    /// Roster name.
    pub workload: &'static str,
    /// Stock p999 at normal load, cycles.
    pub stock_p999: u64,
    /// PK p999 at normal load, cycles.
    pub pk_p999: u64,
    /// `stock_p999 > pk_p999` at the same absolute arrival rate.
    pub inverted: bool,
    /// PK shed-arm p999 at 2× overload, cycles.
    pub shed_p999: u64,
    /// The p999 ceiling the shed arm must stay under, cycles.
    pub shed_p999_bound: u64,
    /// PK shed-arm goodput at 2× overload, fraction of capacity.
    pub shed_goodput: f64,
    /// PK no-shed queue depth at the horizon under 2× overload.
    pub noshed_queue_end: u64,
    /// The depth that counts as divergence.
    pub divergence_floor: u64,
    /// Shed p999 bounded AND goodput held AND the unbounded queue
    /// diverged — the three-way contrast that makes shedding earn
    /// its complexity.
    pub shed_holds: bool,
}

/// The grid's derived assertions — the CI gate.
#[derive(Debug, Clone)]
pub struct OverloadAssertions {
    /// Per-workload verdicts, in `SERVING` order.
    pub verdicts: Vec<WorkloadVerdict>,
    /// Workloads showing the stock-vs-PK p999 inversion.
    pub inversions: usize,
    /// `inversions >= INVERSION_MIN_WORKLOADS`.
    pub inversion_observed: bool,
    /// Every workload's shed arm held its bound, goodput, and contrast.
    pub shedding_bounds_tail: bool,
}

impl OverloadAssertions {
    /// Whether both headline claims held.
    pub fn ok(&self) -> bool {
        self.inversion_observed && self.shedding_bounds_tail
    }
}

/// Derives the verdicts from a grid.
pub fn assess(grid: &LatencyGrid) -> OverloadAssertions {
    let verdicts: Vec<WorkloadVerdict> = SERVING
        .iter()
        .map(|w| {
            let stock = grid.find(w, Personality::Stock, false, NORMAL_LOAD_PCT);
            let pk = grid.find(w, Personality::Pk, false, NORMAL_LOAD_PCT);
            let shed = grid.find(w, Personality::Pk, true, OVERLOAD_PCT);
            let noshed = grid.find(w, Personality::Pk, false, OVERLOAD_PCT);
            let shed_p999_bound = shed.slo_budget_cycles * SHED_P999_SLO_MULT;
            let divergence_floor = (REQUESTS as f64 * DIVERGENCE_FLOOR_FRACTION) as u64;
            let shed_goodput = shed.goodput_fraction();
            let shed_holds = shed.latency.p999 <= shed_p999_bound
                && shed_goodput >= SHED_GOODPUT_FLOOR
                && noshed.result.queue_depth_end >= divergence_floor;
            WorkloadVerdict {
                workload: w,
                stock_p999: stock.latency.p999,
                pk_p999: pk.latency.p999,
                inverted: stock.latency.p999 > pk.latency.p999,
                shed_p999: shed.latency.p999,
                shed_p999_bound,
                shed_goodput,
                noshed_queue_end: noshed.result.queue_depth_end,
                divergence_floor,
                shed_holds,
            }
        })
        .collect();
    let inversions = verdicts.iter().filter(|v| v.inverted).count();
    OverloadAssertions {
        inversion_observed: inversions >= INVERSION_MIN_WORKLOADS,
        shedding_bounds_tail: verdicts.iter().all(|v| v.shed_holds),
        inversions,
        verdicts,
    }
}

/// One workload's trace-ring health check: the PK serving network run
/// through the flow engine with a tracer sized by the documented rule
/// ([`pk_sim::flow_ring_capacity`]), reporting what each track dropped.
/// A non-zero drop count means some request's span tree is missing
/// events — downstream folds would silently under-attribute — so
/// `report latency` warns loudly and `report tail` refuses to run.
#[derive(Debug, Clone)]
pub struct RingHealth {
    /// Roster workload name.
    pub workload: &'static str,
    /// Events captured across all tracks.
    pub events: usize,
    /// Total ring drops (must be zero for complete span trees).
    pub dropped_total: u64,
    /// Drops per track; track [`CORES`] is the admission track.
    pub dropped_by_track: Vec<u64>,
}

/// Runs the normal-load traced flow for every serving workload and
/// reports ring health. Deterministic per seed.
pub fn trace_ring_health(seed: u64) -> Vec<RingHealth> {
    use pk_serve::run_serving_flow;
    use pk_sim::flow_ring_capacity;
    use pk_trace::Tracer;
    SERVING
        .iter()
        .map(|w| {
            let net = pk_workloads::roster::model(w, Personality::Pk)
                .expect("serving workload resolves")
                .network(CORES);
            let tracer = Tracer::new(
                CORES + 1,
                flow_ring_capacity(REQUESTS, CORES, net.stations().len()),
            );
            run_serving_flow(
                w,
                &net,
                CORES,
                false,
                NORMAL_LOAD_PCT,
                REQUESTS,
                seed,
                Some(&tracer),
            )
            .expect("serving spec exists");
            let dropped_total = tracer.dropped();
            let dropped_by_track = tracer.dropped_by_track();
            RingHealth {
                workload: w,
                events: tracer.drain().len(),
                dropped_total,
                dropped_by_track,
            }
        })
        .collect()
}

/// Renders the per-run latency table, one row per run.
pub fn table(grid: &LatencyGrid) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>6} {:>8} {:>5} {:>9} {:>9} {:>10} {:>10} {:>10} {:>8} {:>8} {:>9}",
        "workload",
        "kernel",
        "posture",
        "load",
        "arrivals",
        "completed",
        "p50",
        "p99",
        "p999",
        "sloviol",
        "shed",
        "queue_end"
    );
    for (choice, r) in &grid.runs {
        let shed_total = r.result.rejected + r.result.shed_oldest + r.result.shed_probabilistic;
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>8} {:>4}% {:>9} {:>9} {:>10} {:>10} {:>10} {:>8} {:>8} {:>9}",
            r.workload,
            choice.legend(),
            if r.policy.is_bounded() {
                "shed"
            } else {
                "no-shed"
            },
            r.load_pct,
            r.result.arrivals,
            r.result.completed,
            r.latency.p50,
            r.latency.p99,
            r.latency.p999,
            r.result.slo_violations,
            shed_total,
            r.result.queue_depth_end
        );
    }
    out
}

/// Renders the deterministic JSON artifact: fixed key order, fixed
/// 6-decimal float formatting, runs in grid order — byte-identical
/// for a fixed seed.
pub fn report_json(grid: &LatencyGrid, asserts: &OverloadAssertions) -> String {
    let runs = grid.runs.iter().map(|(choice, r)| {
        format!(
            "{{\"workload\": \"{}\", \"kernel\": \"{}\", \"posture\": \"{}\", \
             \"load_pct\": {}, \"slo_cycles\": {}, \"arrivals\": {}, \"completed\": {}, \
             \"p50\": {}, \"p99\": {}, \"p999\": {}, \"slo_violations\": {}, \
             \"rejected\": {}, \"shed_oldest\": {}, \"shed_probabilistic\": {}, \
             \"deadline_cancelled\": {}, \"degraded\": {}, \"queue_depth_end\": {}, \
             \"queue_depth_peak\": {}, \"distinct_users\": {}, \"new_connections\": {}, \
             \"goodput_fraction\": {:.6}}}",
            r.workload,
            choice.legend(),
            if r.policy.is_bounded() {
                "shed"
            } else {
                "no-shed"
            },
            r.load_pct,
            r.slo_budget_cycles,
            r.result.arrivals,
            r.result.completed,
            r.latency.p50,
            r.latency.p99,
            r.latency.p999,
            r.result.slo_violations,
            r.result.rejected,
            r.result.shed_oldest,
            r.result.shed_probabilistic,
            r.result.deadline_cancelled,
            r.result.degraded,
            r.result.queue_depth_end,
            r.result.queue_depth_peak,
            r.result.distinct_users,
            r.result.new_connections,
            r.goodput_fraction()
        )
    });
    let verdicts = asserts.verdicts.iter().map(|v| {
        format!(
            "{{\"workload\": \"{}\", \"stock_p999\": {}, \"pk_p999\": {}, \
             \"inverted\": {}, \"shed_p999\": {}, \"shed_p999_bound\": {}, \
             \"shed_goodput\": {:.6}, \"noshed_queue_end\": {}, \"divergence_floor\": {}, \
             \"shed_holds\": {}}}",
            v.workload,
            v.stock_p999,
            v.pk_p999,
            v.inverted,
            v.shed_p999,
            v.shed_p999_bound,
            v.shed_goodput,
            v.noshed_queue_end,
            v.divergence_floor,
            v.shed_holds
        )
    });
    format!(
        "{{\n  \"seed\": {},\n  \"cores\": {},\n  \"requests\": {REQUESTS},\n  \"runs\": [\n{}  ],\n  \
         \"verdicts\": [\n{}  ],\n  \
         \"assertions\": {{\"inversions\": {}, \"inversion_observed\": {}, \
         \"shedding_bounds_tail\": {}, \"ok\": {}}}\n}}\n",
        grid.seed,
        grid.cores,
        json::lines("    ", runs),
        json::lines("    ", verdicts),
        asserts.inversions,
        asserts.inversion_observed,
        asserts.shedding_bounds_tail,
        asserts.ok()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_cross_product_and_both_claims_hold() {
        let grid = run_grid(42);
        assert_eq!(grid.runs.len(), SERVING.len() * 2 * POSTURES.len());
        let asserts = assess(&grid);
        assert!(
            asserts.inversion_observed,
            "stock p999 must blow past PK on >= {INVERSION_MIN_WORKLOADS} workloads: {:?}",
            asserts
                .verdicts
                .iter()
                .map(|v| (v.workload, v.stock_p999, v.pk_p999))
                .collect::<Vec<_>>()
        );
        assert!(
            asserts.shedding_bounds_tail,
            "shed arm must bound p999, hold goodput, and contrast a diverging \
             unbounded queue: {:?}",
            asserts
                .verdicts
                .iter()
                .map(|v| (
                    v.workload,
                    v.shed_p999,
                    v.shed_p999_bound,
                    v.shed_goodput,
                    v.noshed_queue_end
                ))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ring_sizing_rule_covers_the_serving_captures() {
        for h in trace_ring_health(42) {
            assert!(h.events > 0, "{}: capture is empty", h.workload);
            assert_eq!(
                h.dropped_total, 0,
                "{}: flow_ring_capacity must cover the run, dropped {:?}",
                h.workload, h.dropped_by_track
            );
        }
    }

    #[test]
    fn report_json_is_deterministic_and_shaped() {
        let run = || {
            let grid = run_grid(42);
            let asserts = assess(&grid);
            report_json(&grid, &asserts)
        };
        let a = run();
        assert_eq!(a, run(), "artifact must be byte-identical per seed");
        assert!(a.contains("\"seed\": 42"));
        assert!(a.contains("\"workload\": \"memcached\""));
        assert!(a.contains("\"assertions\""));
        assert!(!table(&run_grid(42)).is_empty());
    }
}
