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

use crate::gate::{held, Check, Gate};
use pk_fault::FaultPlane;
use pk_kernel::Personality;
use pk_obs::{document, object, Cell, Table};
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

/// Derives the per-workload verdicts from a grid, in `SERVING` order.
pub fn verdicts(grid: &LatencyGrid) -> Vec<WorkloadVerdict> {
    SERVING
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
        .collect()
}

/// The grid's two claims over its [`verdicts`], each named after its
/// JSON key: the inversion on at least [`INVERSION_MIN_WORKLOADS`]
/// workloads, then shedding on every workload (its values are the
/// verdicts of those whose shed arm did not hold).
pub fn assess(verdicts: &[WorkloadVerdict]) -> Vec<Check> {
    let inversions = verdicts.iter().filter(|v| v.inverted).count();
    let unbounded = verdicts.iter().filter(|v| !v.shed_holds);
    let unbounded = unbounded.map(|v| verdict_table().object(v).json());
    let observed = inversions >= INVERSION_MIN_WORKLOADS;
    Vec::new()
        .check("inversion_observed", observed, || {
            let n = verdicts.len();
            format!("{inversions}/{n} workloads (need {INVERSION_MIN_WORKLOADS})")
        })
        .none("shedding_bounds_tail", unbounded.collect())
}

/// One workload's trace-ring health check: the PK serving network run
/// through the flow engine with a tracer sized by the documented rule
/// ([`pk_sim::flow_ring_capacity`]), reporting what each track dropped.
/// A non-zero drop count means some request's span tree is missing
/// events — downstream folds would silently under-attribute — so
/// `report latency` fails its [`ring_check`] and `report tail` refuses
/// to run.
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

/// The ring-health check, separate from the two claims: no serving
/// capture dropped an event. Its values are each overflowing
/// workload's per-track drops.
pub fn ring_check(health: &[RingHealth]) -> Vec<Check> {
    let overflows = health.iter().filter(|h| h.dropped_total > 0);
    let overflows = overflows.map(|h| format!("{} dropped {:?}", h.workload, h.dropped_by_track));
    Vec::new().none("trace ring drops == 0", overflows.collect())
}

/// The per-workload verdict columns: a JSON object, and two text lines
/// (the inversion at normal load, then the shed arm at overload).
pub fn verdict_table() -> Table<WorkloadVerdict> {
    let word = |yes, no| move |held: bool| if held { yes } else { no };
    let inverted = word("inverted", "NOT inverted");
    let bounded = word("bounded", "UNBOUNDED");
    Table::<WorkloadVerdict>::new()
        .col("  {:>10}", "workload", |v| v.workload)
        .col(": stock p999 {}", "stock_p999", |v| v.stock_p999)
        .col(" vs PK p999 {}", "pk_p999", |v| v.pk_p999)
        .col(" at {}% load", "", |_| NORMAL_LOAD_PCT)
        .col("", "inverted", |v| v.inverted)
        .col(" — {}", "", move |v| inverted(v.inverted))
        .col("\n              shed@{}%", "", |_| OVERLOAD_PCT)
        .col(": p999 {}", "shed_p999", |v| v.shed_p999)
        .col(" (bound {})", "shed_p999_bound", |v| v.shed_p999_bound)
        .col(", goodput {:.1}% of capacity", "shed_goodput", |v| {
            Cell::Share(v.shed_goodput)
        })
        .col("; unbounded queue ends at {}", "noshed_queue_end", |v| {
            v.noshed_queue_end
        })
        .col(" (floor {})", "divergence_floor", |v| v.divergence_floor)
        .col("", "shed_holds", |v| v.shed_holds)
        .col(" — {}", "", move |v| bounded(v.shed_holds))
}

/// The per-run columns: a text row and a JSON object per run.
pub fn run_table() -> Table<(Personality, ServeRun)> {
    let posture = |r: &ServeRun| {
        if r.policy.is_bounded() {
            "shed"
        } else {
            "no-shed"
        }
    };
    Table::<(Personality, ServeRun)>::new()
        .col("{workload:>10}", "workload", |(_, r)| r.workload)
        .col(" {kernel:>6}", "kernel", |(p, _)| p.legend())
        .col(" {posture:>8}", "posture", move |(_, r)| posture(r))
        .col(" {load:>4}%", "load_pct", |(_, r)| r.load_pct)
        .col("", "slo_cycles", |(_, r)| r.slo_budget_cycles)
        .col(" {arrivals:>9}", "arrivals", |(_, r)| r.result.arrivals)
        .col(" {completed:>9}", "completed", |(_, r)| r.result.completed)
        .col(" {p50:>10}", "p50", |(_, r)| r.latency.p50)
        .col(" {p99:>10}", "p99", |(_, r)| r.latency.p99)
        .col(" {p999:>10}", "p999", |(_, r)| r.latency.p999)
        .col(" {sloviol:>8}", "slo_violations", |(_, r)| {
            r.result.slo_violations
        })
        .col(" {shed:>8}", "", |(_, r)| {
            r.result.rejected + r.result.shed_oldest + r.result.shed_probabilistic
        })
        .col("", "rejected", |(_, r)| r.result.rejected)
        .col("", "shed_oldest", |(_, r)| r.result.shed_oldest)
        .col("", "shed_probabilistic", |(_, r)| {
            r.result.shed_probabilistic
        })
        .col("", "deadline_cancelled", |(_, r)| {
            r.result.deadline_cancelled
        })
        .col("", "degraded", |(_, r)| r.result.degraded)
        .col(" {queue_end:>9}", "queue_depth_end", |(_, r)| {
            r.result.queue_depth_end
        })
        .col("", "queue_depth_peak", |(_, r)| r.result.queue_depth_peak)
        .col("", "distinct_users", |(_, r)| r.result.distinct_users)
        .col("", "new_connections", |(_, r)| r.result.new_connections)
        .col("", "goodput_fraction", |(_, r)| r.goodput_fraction())
}

/// Renders the deterministic JSON artifact: runs in grid order —
/// byte-identical for a fixed seed. The `assertions` object records
/// [`assess`]'s `checks` by name.
pub fn report_json(grid: &LatencyGrid, verdicts: &[WorkloadVerdict], checks: &[Check]) -> String {
    let inversions = verdicts.iter().filter(|v| v.inverted).count();
    let assertions = object([
        ("inversions", inversions.into()),
        held(checks, "inversion_observed"),
        held(checks, "shedding_bounds_tail"),
        ("ok", checks.iter().all(Check::held).into()),
    ]);
    document([
        ("seed", grid.seed.into()),
        ("cores", grid.cores.into()),
        ("requests", REQUESTS.into()),
        ("runs", run_table().block(&grid.runs, 1)),
        ("verdicts", verdict_table().block(verdicts, 1)),
        ("assertions", assertions),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_cross_product_and_both_claims_hold() {
        let grid = run_grid(42);
        assert_eq!(grid.runs.len(), SERVING.len() * 2 * POSTURES.len());
        let checks = assess(&verdicts(&grid));
        let names: Vec<&str> = checks.iter().map(|c| c.name).collect();
        assert_eq!(names, ["inversion_observed", "shedding_bounds_tail"]);
        for c in &checks {
            assert!(c.held(), "{}", c.violation());
        }
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
}
