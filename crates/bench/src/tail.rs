//! Where the p999 goes (`report tail`).
//!
//! Runs the serving roster through the request-flow engine with
//! causal tracing on, folds every capture into priced per-request
//! records (`pk-why`), and decomposes the tail quantiles over the accounting
//! identity `latency = queue + service + Σ class waits + slack`.
//! The grid is `SERVING × {stock, coarse, pk, adaptive}` at
//! [`TAIL_CORES`] cores, observe posture, [`TAIL_LOAD_PCT`]% of PK
//! saturation — the §5.2.1 inversion re-derived *per request*, with
//! the wait cycles named by lock class instead of inferred from
//! aggregate counters.
//!
//! [`assess`] derives three checks from the runs (the CI gate):
//!
//! 1. **Per-request inversion** — the exact p999 order statistic of
//!    stock Exim's folded requests exceeds PK's at the same absolute
//!    arrival rate.
//! 2. **Stock attribution is concentrated** — at p999, at least
//!    [`STOCK_MOUNT_SHARE_FLOOR`] of stock Exim's lock-class wait pool
//!    sits behind [`MOUNT_CLASS`] (the vfsmount table, §5.2.1).
//! 3. **PK attribution is flat** — under PK no single class costs more
//!    than [`PK_CLASS_BP_CEILING`] basis points of tail latency.
//!
//! Everything downstream of the seed is deterministic: same seed, same
//! tables, byte-identical exemplar encodings (tested below). Ring
//! overflow is a *hard failure*, not a warning — a dropped event means
//! some exemplar tree is missing a span, so the capture is sized by
//! [`pk_sim::flow_ring_capacity`] and checked per track.

use crate::gate::{held, Check, Gate};
use crate::resolve;
use pk_kernel::Personality;
use pk_obs::{document, object, Cell, OpenMetrics, Table};
use pk_serve::{run_serving_flow, ServeRun, SERVING};
use pk_sim::{flow_ring_capacity, MachineSpec};
use pk_trace::{Event, Tracer};
use pk_why::{attribute, encode_exemplars, exemplars, fold, Attribution, ClassShare, RequestCost};

/// Core count for every traced run: the paper's full machine, past
/// the collapse knee for every stock serving workload.
pub const TAIL_CORES: usize = 48;
/// Target arrivals per cell: enough that the p999 tail set is real.
pub const TAIL_REQUESTS: u64 = 2_000;
/// Offered load, percent of PK saturation capacity — the same
/// absolute arrival rate for every personality.
pub const TAIL_LOAD_PCT: u32 = 60;
/// Exemplar span trees kept per cell (the K slowest requests).
pub const EXEMPLARS_PER_CELL: usize = 3;
/// The quantiles each cell decomposes, in report order.
pub const QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];
/// The §5.2.1 lock class: the stock vfsmount table.
pub const MOUNT_CLASS: &str = "vfs.mount_table";
/// Stock Exim must attribute at least this share of its p999 wait
/// pool to [`MOUNT_CLASS`].
pub const STOCK_MOUNT_SHARE_FLOOR: f64 = 0.90;
/// Under PK no class may cost more than this many basis points of
/// p999 tail latency.
pub const PK_CLASS_BP_CEILING: u64 = 500;
/// The inversion must show on at least this many serving workloads.
pub const INVERSION_MIN_WORKLOADS: usize = 2;

/// One traced cell: the flow run plus everything `pk-why` derived
/// from its capture.
#[derive(Debug, Clone)]
pub struct TailCell {
    /// Roster workload name.
    pub workload: &'static str,
    /// Kernel personality.
    pub personality: Personality,
    /// The flow-engine run (counters, histogram latency, policy).
    pub run: ServeRun,
    /// Complete requests the fold recovered (== completed requests).
    pub folded: usize,
    /// Requests still open at the horizon (discarded by the fold).
    pub in_flight: usize,
    /// Per-quantile decompositions, in [`QUANTILES`] order.
    pub attributions: Vec<Attribution>,
    /// Canonical bytes of the [`EXEMPLARS_PER_CELL`] slowest trees.
    pub exemplar_bytes: Vec<u8>,
    /// Ring drops per track — all zero, or the cell would have
    /// panicked; surfaced so reports can print the margin.
    pub dropped_by_track: Vec<u64>,
}

impl TailCell {
    /// The decomposition at quantile `q` (must be in [`QUANTILES`]).
    pub fn at(&self, q: f64) -> &Attribution {
        let i = QUANTILES
            .iter()
            .position(|&x| x == q)
            .expect("quantile is one of QUANTILES");
        &self.attributions[i]
    }
}

/// The full grid, one seed.
#[derive(Debug, Clone)]
pub struct TailGrid {
    /// The seed every cell derives from.
    pub seed: u64,
    /// Cores per cell ([`TAIL_CORES`]).
    pub cores: usize,
    /// Target arrivals per cell ([`TAIL_REQUESTS`]).
    pub requests: u64,
    /// All cells, in `SERVING × Personality::ALL` order.
    pub cells: Vec<TailCell>,
}

impl TailGrid {
    /// The one cell matching (workload, personality).
    pub fn find(&self, workload: &str, personality: Personality) -> &TailCell {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.personality == personality)
            .expect("grid covers the full cross product")
    }
}

/// Runs one cell and returns it with the raw capture (for Perfetto
/// export). Panics — failing the report — on ring overflow, context
/// leaks, or a fold that disagrees with the engine's counters: each
/// means the exemplar evidence would be incomplete.
pub fn run_cell(
    workload: &'static str,
    personality: Personality,
    seed: u64,
) -> (TailCell, Vec<Event>) {
    let cores = TAIL_CORES;
    let net = resolve(personality, workload, cores, MachineSpec::paper(), seed)
        .expect("serving workload resolves")
        .model
        .network(cores);
    // Track `cores` carries the admission instants; the ring size is
    // the documented rule, not a guess — overflow below is a bug in
    // the rule, not a tuning problem.
    let tracer = Tracer::new(
        cores + 1,
        flow_ring_capacity(TAIL_REQUESTS, cores, net.stations().len()),
    );
    let leaks_before = pk_trace::ctx_leaks();
    let run = run_serving_flow(
        workload,
        &net,
        cores,
        false,
        TAIL_LOAD_PCT,
        TAIL_REQUESTS,
        seed,
        Some(&tracer),
    )
    .expect("every SERVING workload has a serving spec");

    let dropped_by_track = tracer.dropped_by_track();
    assert_eq!(
        tracer.dropped(),
        0,
        "{workload}/{}: trace ring overflow {:?} — exemplar trees would be \
         incomplete; flow_ring_capacity(requests, cores, stations) is the \
         sizing rule and must cover the capture",
        personality.label(),
        dropped_by_track,
    );
    assert_eq!(
        pk_trace::ctx_leaks(),
        leaks_before,
        "{workload}/{}: a request context leaked across the run",
        personality.label()
    );

    let events = tracer.drain();
    let f = fold(&events);
    assert_eq!(
        f.malformed,
        0,
        "{workload}/{}: fold force-closed spans",
        personality.label()
    );
    assert_eq!(
        f.trees.len() as u64,
        run.result.completed,
        "{workload}/{}: fold must recover exactly the completed requests",
        personality.label()
    );

    let costs: Vec<RequestCost> = f.trees.iter().map(RequestCost::of).collect();
    let attributions: Vec<Attribution> = QUANTILES
        .iter()
        .map(|&q| attribute(&costs, q).expect("cells complete requests"))
        .collect();
    let exemplar_bytes = encode_exemplars(&exemplars(&f.trees, EXEMPLARS_PER_CELL, seed));

    (
        TailCell {
            workload,
            personality,
            folded: f.trees.len(),
            in_flight: f.in_flight,
            run,
            attributions,
            exemplar_bytes,
            dropped_by_track,
        },
        events,
    )
}

/// Runs the full grid. Deterministic: a pure function of `seed`.
pub fn run_grid(seed: u64) -> TailGrid {
    let mut cells = Vec::new();
    for w in SERVING {
        for p in Personality::ALL {
            cells.push(run_cell(w, p, seed).0);
        }
    }
    TailGrid {
        seed,
        cores: TAIL_CORES,
        requests: TAIL_REQUESTS,
        cells,
    }
}

/// One workload's per-request inversion verdict.
#[derive(Debug, Clone)]
pub struct TailVerdict {
    /// Roster name.
    pub workload: &'static str,
    /// Stock exact p999 order statistic, cycles.
    pub stock_p999: u64,
    /// PK exact p999 order statistic, cycles.
    pub pk_p999: u64,
    /// `stock_p999 > pk_p999` at the same absolute arrival rate.
    pub inverted: bool,
}

/// Derives the per-workload inversion verdicts, in `SERVING` order.
pub fn verdicts(grid: &TailGrid) -> Vec<TailVerdict> {
    SERVING
        .iter()
        .map(|w| {
            let stock = grid.find(w, Personality::Stock).at(0.999).threshold_cycles;
            let pk = grid.find(w, Personality::Pk).at(0.999).threshold_cycles;
            TailVerdict {
                workload: w,
                stock_p999: stock,
                pk_p999: pk,
                inverted: stock > pk,
            }
        })
        .collect()
}

/// What the two Exim claims judge: stock Exim's p999 share of the wait
/// pool behind [`MOUNT_CLASS`], and the widest class in PK Exim's p999
/// decomposition with its basis points of tail latency (an empty name
/// if nothing waited).
pub fn exim_p999(grid: &TailGrid) -> (f64, String, u64) {
    let at = |p| grid.find("exim", p).at(0.999);
    let stock = at(Personality::Stock).class(MOUNT_CLASS);
    let widest = at(Personality::Pk).by_class.first();
    let widest = widest.map(|c| (c.class.clone(), c.bp_of_latency));
    let (class, bp) = widest.unwrap_or_default();
    (stock.map_or(0.0, |c| c.share_of_waits), class, bp)
}

/// The grid's three claims over its [`verdicts`] and [`exim_p999`], in
/// order, each named after its JSON key.
pub fn assess(verdicts: &[TailVerdict], exim: &(f64, String, u64)) -> Vec<Check> {
    let inversions = verdicts.iter().filter(|v| v.inverted).count();
    let &(share, ref class, bp) = exim;
    let observed = inversions >= INVERSION_MIN_WORKLOADS;
    let concentrated = share >= STOCK_MOUNT_SHARE_FLOOR;
    Vec::new()
        .check("inversion_observed", observed, || {
            let n = verdicts.len();
            format!("{inversions}/{n} workloads (need {INVERSION_MIN_WORKLOADS})")
        })
        .check("stock_attribution_concentrated", concentrated, || {
            let (share, floor) = (100.0 * share, 100.0 * STOCK_MOUNT_SHARE_FLOOR);
            format!("stock exim {MOUNT_CLASS} share {share:.1}% < floor {floor:.0}%")
        })
        .check("pk_attribution_flat", bp <= PK_CLASS_BP_CEILING, || {
            format!("pk exim {class} at {bp} bp > ceiling {PK_CLASS_BP_CEILING} bp")
        })
}

/// The per-cell columns: text one row per cell with the p999
/// decomposition compressed to its widest class, JSON one object per
/// cell, OpenMetrics the cell's completions and ring drops.
pub fn cell_table() -> Table<TailCell> {
    let widest = |c: &TailCell| c.at(0.999).by_class.first().cloned();
    Table::<TailCell>::new()
        .col("{workload:>10}", "workload", |c| c.workload)
        .col(" {kernel:>9}", "kernel", |c| c.personality.label())
        .col(" {arrivals:>9}", "arrivals", |c| c.run.result.arrivals)
        .col("", "completed", |c| c.run.result.completed)
        .col(" {folded:>9}", "folded", |c| c.folded)
        .counter(
            "pk_tail_requests",
            "completed requests folded into span trees",
        )
        .col("", "in_flight", |c| c.in_flight)
        .col("", "exemplar_bytes", |c| c.exemplar_bytes.len())
        .col("", "exemplar_fnv64", |c| {
            format!("{:016x}", pk_fault::fnv64(&c.exemplar_bytes))
        })
        .col("", "quantiles", |c| {
            attribution_table().inline(&c.attributions)
        })
        .col("", "", |c| c.dropped_by_track.iter().sum::<u64>())
        .counter(
            "pk_trace_dropped_events",
            "trace ring overflow drops (must be zero)",
        )
        .col(" {p50:>10}", "", |c| c.at(0.5).threshold_cycles)
        .col(" {p99:>10}", "", |c| c.at(0.99).threshold_cycles)
        .col(" {p999:>10}", "", |c| c.at(0.999).threshold_cycles)
        .col(" {p999 widest class:>24}", "", move |c| {
            widest(c).map_or("-".to_string(), |s| s.class)
        })
        .col(" {share:>6.1}%", "", move |c| {
            Cell::Share(widest(c).map_or(0.0, |s| s.share_of_waits))
        })
        .col(" {bp:>6}", "", move |c| {
            widest(c).map_or(0, |s| s.bp_of_latency)
        })
}

/// The family, and its help, gauging a tail quantile's
/// accounting-identity terms.
const TERM: &str = "pk_tail_term_cycles";
const TERM_HELP: &str = "accounting-identity term summed over the tail set";

/// The per-quantile columns: the accounting-identity terms and the
/// classes behind them, in JSON and as OpenMetrics gauges.
fn attribution_table() -> Table<Attribution> {
    Table::<Attribution>::new()
        .col("", "q", |a| Cell::Json(a.quantile.to_string()))
        .col("", "threshold", |a| a.threshold_cycles)
        .gauge(
            "pk_tail_threshold_cycles",
            &[],
            "exact per-request latency order statistic",
        )
        .col("", "requests", |a| a.requests)
        .col("", "total_latency", |a| a.total_latency)
        .col("", "queue", |a| a.queue)
        .gauge(TERM, &[("term", "queue")], TERM_HELP)
        .col("", "service", |a| a.service)
        .gauge(TERM, &[("term", "service")], TERM_HELP)
        .col("", "wait_total", |a| a.wait_total)
        .gauge(TERM, &[("term", "wait")], TERM_HELP)
        .col("", "slack", |a| a.slack)
        .gauge(TERM, &[("term", "slack")], TERM_HELP)
        .col("", "by_class", |a| class_share_table().inline(&a.by_class))
}

/// One lock class's share of a tail quantile: a line of the text
/// decomposition, a JSON object, two OpenMetrics gauges.
fn class_share_table() -> Table<ClassShare> {
    Table::<ClassShare>::new()
        .col("    {:>24}", "class", |s| s.class.clone())
        .col(" {:>12} cycles", "wait", |s| s.wait)
        .col(" {:>6.1}% of waits", "share", |s| {
            Cell::Share(s.share_of_waits)
        })
        .gauge(
            "pk_tail_wait_share",
            &[],
            "fraction of the tail's lock-class wait pool",
        )
        .col(" {:>6} bp of latency", "bp", |s| s.bp_of_latency)
        .gauge(
            "pk_tail_wait_bp",
            &[],
            "basis points of tail latency spent waiting on the class",
        )
}

/// `workload`'s p999 decomposition under every personality: the
/// accounting identity's terms, then one line per class behind its
/// waits.
pub fn decomposition(grid: &TailGrid, workload: &str) -> String {
    let classes = class_share_table();
    let mut out = String::new();
    for p in Personality::ALL {
        let a = grid.find(workload, p).at(0.999);
        out += &format!(
            "{workload}/{}: p999 >= {} cycles over {} requests \
             (queue {}, service {}, waits {}, slack {})\n",
            p.label(),
            a.threshold_cycles,
            a.requests,
            a.queue,
            a.service,
            a.wait_total,
            a.slack
        );
        for s in &a.by_class {
            out += &(classes.row(s) + "\n");
        }
    }
    out
}

/// Renders the deterministic JSON artifact: cells in grid order —
/// byte-identical per seed. The `assertions` object records
/// [`assess`]'s `checks` by name, each after the value it judged.
pub fn report_json(
    grid: &TailGrid,
    verdicts: &[TailVerdict],
    exim: &(f64, String, u64),
    checks: &[Check],
) -> String {
    let inversions = verdicts.iter().filter(|v| v.inverted).count();
    let &(share, ref class, bp) = exim;
    let assertions = object([
        ("inversions", inversions.into()),
        held(checks, "inversion_observed"),
        ("stock_exim_mount_share", share.into()),
        held(checks, "stock_attribution_concentrated"),
        ("pk_exim_max_class", class.as_str().into()),
        ("pk_exim_max_class_bp", bp.into()),
        held(checks, "pk_attribution_flat"),
        ("ok", checks.iter().all(Check::held).into()),
    ]);
    document([
        ("seed", grid.seed.into()),
        ("cores", grid.cores.into()),
        ("requests", grid.requests.into()),
        ("cells", cell_table().block(&grid.cells, 1)),
        ("assertions", assertions),
    ])
}

/// Renders the grid as an OpenMetrics exposition: thresholds, identity
/// terms and per-class shares as gauges; completions and ring drops as
/// counters.
pub fn openmetrics(grid: &TailGrid) -> String {
    let (cells, quantiles, classes) = (cell_table(), attribution_table(), class_share_table());
    let mut om = OpenMetrics::default();
    for c in &grid.cells {
        let cell = [("workload", c.workload), ("kernel", c.personality.label())];
        om.row(&cells, c, &cell);
        for a in &c.attributions {
            let q = a.quantile.to_string();
            let at = [cell[0], cell[1], ("quantile", &q)];
            om.row(&quantiles, a, &at);
            for s in &a.by_class {
                om.row(&classes, s, &[at[0], at[1], at[2], ("class", &s.class)]);
            }
        }
    }
    om.render()
}

/// The lockdep-live overload row: the *functional* Exim driver (real
/// pk-kernel syscalls, real pk-sync locks, request-scoped deliveries)
/// hammered from every core with the validator observing. Built with
/// `--features lockdep` this row proves the serving path holds lock
/// discipline under overload; without the feature it still exercises
/// the path and the context-leak check.
#[derive(Debug, Clone)]
pub struct LockdepLiveRow {
    /// Cores driven concurrently.
    pub cores: usize,
    /// SMTP connections completed.
    pub connections: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Lock acquisitions the validator observed (cumulative).
    pub acquisitions: u64,
    /// Discipline violations recorded (cumulative; must be zero).
    pub violations: usize,
    /// Request contexts leaked during the row (must be zero).
    pub ctx_leaks: u64,
}

impl LockdepLiveRow {
    /// The row's two checks: no lockdep violations, no leaked contexts.
    pub fn checks(&self) -> Vec<Check> {
        Vec::new()
            .eq("lockdep-live violations == 0", self.violations, 0)
            .eq("lockdep-live ctx leaks == 0", self.ctx_leaks, 0)
    }
}

/// Runs the lockdep-live row: `conns_per_core` connections on each of
/// 8 cores, concurrently, under the PK kernel.
pub fn run_lockdep_live(seed: u64) -> LockdepLiveRow {
    use pk_lockdep::ActingCore;
    use pk_percpu::CoreId;
    use pk_workloads::exim::EximDriver;

    const CORES: usize = 8;
    const CONNS_PER_CORE: usize = 4;

    let driver = EximDriver::new(Personality::Pk, CORES).expect("driver boots");
    let leaks_before = pk_trace::ctx_leaks();
    std::thread::scope(|s| {
        for core in 0..CORES {
            let driver = &driver;
            s.spawn(move || {
                let _acting = ActingCore::enter(core);
                for conn in 0..CONNS_PER_CORE {
                    // Spread users so mailboxes are shared across cores
                    // (the contended path), deterministically per seed.
                    let user = (seed as usize + core + conn * CORES) % 8;
                    driver
                        .run_connection(CoreId(core), user)
                        .expect("overload connection completes");
                }
            });
        }
    });
    LockdepLiveRow {
        cores: CORES,
        connections: (CORES * CONNS_PER_CORE) as u64,
        delivered: driver.delivered(),
        acquisitions: pk_lockdep::acquisition_count(),
        violations: pk_lockdep::violation_count(),
        ctx_leaks: pk_trace::ctx_leaks() - leaks_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn grid42() -> &'static TailGrid {
        static GRID: OnceLock<TailGrid> = OnceLock::new();
        GRID.get_or_init(|| run_grid(42))
    }

    #[test]
    fn grid_covers_the_cross_product_and_all_three_claims_hold() {
        let grid = grid42();
        assert_eq!(grid.cells.len(), SERVING.len() * Personality::ALL.len());
        for c in &grid.cells {
            assert!(
                c.folded > 0,
                "{}/{} folded nothing",
                c.workload,
                c.personality.label()
            );
            assert_eq!(c.dropped_by_track.iter().sum::<u64>(), 0);
        }
        let checks = assess(&verdicts(grid), &exim_p999(grid));
        let names: Vec<&str> = checks.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "inversion_observed",
                "stock_attribution_concentrated",
                "pk_attribution_flat"
            ]
        );
        for c in &checks {
            assert!(c.held(), "{}", c.violation());
        }
    }

    #[test]
    fn cells_are_byte_identical_across_reruns() {
        // One fresh cell against the cached grid: same seed, same
        // attribution tables, same exemplar bytes.
        let grid = grid42();
        let (fresh, _) = run_cell("exim", Personality::Stock, 42);
        let cached = grid.find("exim", Personality::Stock);
        assert_eq!(fresh.attributions, cached.attributions);
        assert_eq!(fresh.exemplar_bytes, cached.exemplar_bytes);
        assert_eq!(fresh.folded, cached.folded);
    }

    #[test]
    fn artifacts_are_deterministic_and_shaped() {
        let grid = grid42();
        let (verdicts, exim) = (verdicts(grid), exim_p999(grid));
        let checks = assess(&verdicts, &exim);
        let json = report_json(grid, &verdicts, &exim, &checks);
        assert_eq!(json, report_json(grid, &verdicts, &exim, &checks));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains(MOUNT_CLASS));
        let text = openmetrics(grid);
        assert!(text.contains("pk_tail_wait_share"));
        assert!(text.ends_with("# EOF\n"));
        let table = cell_table().text(&grid.cells);
        assert_eq!(table.lines().count(), grid.cells.len() + 1);
        assert!(decomposition(grid, "exim").contains("exim/pk"));
    }

    #[test]
    fn lockdep_live_row_is_clean() {
        let row = run_lockdep_live(42);
        assert_eq!(row.delivered, row.connections * 10, "every message lands");
        for c in row.checks() {
            assert!(c.held(), "{}", c.violation());
        }
    }
}
