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
//! Three claims are derived from the runs (the CI gate):
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

use crate::{json, resolve};
use pk_kernel::Personality;
use pk_serve::{run_serving_flow, ServeRun, SERVING};
use pk_sim::{flow_ring_capacity, MachineSpec};
use pk_trace::{Event, Tracer};
use pk_why::{attribute, encode_exemplars, exemplars, fold, Attribution, MetricSet, RequestCost};

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

/// The grid's derived assertions — the CI gate.
#[derive(Debug, Clone)]
pub struct TailAssertions {
    /// Per-workload inversion verdicts, in `SERVING` order.
    pub verdicts: Vec<TailVerdict>,
    /// Workloads showing the per-request inversion.
    pub inversions: usize,
    /// `inversions >= INVERSION_MIN_WORKLOADS`.
    pub inversion_observed: bool,
    /// Stock Exim's p999 share of the wait pool behind [`MOUNT_CLASS`].
    pub stock_exim_mount_share: f64,
    /// `stock_exim_mount_share >= STOCK_MOUNT_SHARE_FLOOR`.
    pub stock_attribution_concentrated: bool,
    /// The widest class in PK Exim's p999 decomposition, basis points
    /// of tail latency.
    pub pk_exim_max_class_bp: u64,
    /// The class that holds `pk_exim_max_class_bp` (empty if no waits).
    pub pk_exim_max_class: String,
    /// `pk_exim_max_class_bp <= PK_CLASS_BP_CEILING`.
    pub pk_attribution_flat: bool,
}

impl TailAssertions {
    /// Whether all three headline claims held.
    pub fn ok(&self) -> bool {
        self.inversion_observed && self.stock_attribution_concentrated && self.pk_attribution_flat
    }
}

/// Derives the gate verdicts from a grid.
pub fn assess(grid: &TailGrid) -> TailAssertions {
    let verdicts: Vec<TailVerdict> = SERVING
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
        .collect();
    let inversions = verdicts.iter().filter(|v| v.inverted).count();

    let stock_exim = grid.find("exim", Personality::Stock).at(0.999);
    let stock_exim_mount_share = stock_exim
        .class(MOUNT_CLASS)
        .map(|c| c.share_of_waits)
        .unwrap_or(0.0);

    let pk_exim = grid.find("exim", Personality::Pk).at(0.999);
    let (pk_exim_max_class, pk_exim_max_class_bp) = pk_exim
        .by_class
        .first()
        .map(|c| (c.class.clone(), c.bp_of_latency))
        .unwrap_or_default();

    TailAssertions {
        inversion_observed: inversions >= INVERSION_MIN_WORKLOADS,
        inversions,
        verdicts,
        stock_attribution_concentrated: stock_exim_mount_share >= STOCK_MOUNT_SHARE_FLOOR,
        stock_exim_mount_share,
        pk_attribution_flat: pk_exim_max_class_bp <= PK_CLASS_BP_CEILING,
        pk_exim_max_class,
        pk_exim_max_class_bp,
    }
}

/// Renders the per-cell summary table: one row per cell, the p999
/// decomposition compressed to its widest class.
pub fn table(grid: &TailGrid) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>24} {:>7} {:>6}",
        "workload",
        "kernel",
        "arrivals",
        "folded",
        "p50",
        "p99",
        "p999",
        "p999 widest class",
        "share",
        "bp"
    );
    for c in &grid.cells {
        let a = c.at(0.999);
        let (class, share, bp) = a
            .by_class
            .first()
            .map(|s| (s.class.as_str(), s.share_of_waits, s.bp_of_latency))
            .unwrap_or(("-", 0.0, 0));
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>24} {:>6.1}% {:>6}",
            c.workload,
            c.personality.label(),
            c.run.result.arrivals,
            c.folded,
            c.at(0.5).threshold_cycles,
            c.at(0.99).threshold_cycles,
            a.threshold_cycles,
            class,
            share * 100.0,
            bp
        );
    }
    out
}

/// Renders one workload's full p999 decomposition across all four
/// personalities: the accounting-identity terms, then every class.
pub fn class_table(grid: &TailGrid, workload: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for p in Personality::ALL {
        let c = grid.find(workload, p);
        let a = c.at(0.999);
        let _ = writeln!(
            out,
            "{workload}/{}: p999 >= {} cycles over {} requests \
             (queue {}, service {}, waits {}, slack {})",
            p.label(),
            a.threshold_cycles,
            a.requests,
            a.queue,
            a.service,
            a.wait_total,
            a.slack
        );
        for s in &a.by_class {
            let _ = writeln!(
                out,
                "    {:>24} {:>12} cycles {:>6.1}% of waits {:>6} bp of latency",
                s.class,
                s.wait,
                s.share_of_waits * 100.0,
                s.bp_of_latency
            );
        }
    }
    out
}

/// 64-bit FNV-1a — a stable digest for exemplar bytes in the JSON
/// artifact, so reruns can be compared without embedding kilobytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders the deterministic JSON artifact: fixed key order, fixed
/// float formatting, cells in grid order — byte-identical per seed.
pub fn report_json(grid: &TailGrid, asserts: &TailAssertions) -> String {
    let cells = grid.cells.iter().map(|c| {
        let quantiles: Vec<String> = c
            .attributions
            .iter()
            .map(|a| {
                let by_class: Vec<String> = a
                    .by_class
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"class\": \"{}\", \"wait\": {}, \"share\": {:.6}, \"bp\": {}}}",
                            json::escape(&s.class),
                            s.wait,
                            s.share_of_waits,
                            s.bp_of_latency
                        )
                    })
                    .collect();
                format!(
                    "{{\"q\": {}, \"threshold\": {}, \"requests\": {}, \
                     \"total_latency\": {}, \"queue\": {}, \"service\": {}, \
                     \"wait_total\": {}, \"slack\": {}, \"by_class\": [{}]}}",
                    a.quantile,
                    a.threshold_cycles,
                    a.requests,
                    a.total_latency,
                    a.queue,
                    a.service,
                    a.wait_total,
                    a.slack,
                    by_class.join(",")
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"kernel\": \"{}\", \"arrivals\": {}, \
             \"completed\": {}, \"folded\": {}, \"in_flight\": {}, \
             \"exemplar_bytes\": {}, \"exemplar_fnv64\": \"{:016x}\", \
             \"quantiles\": [{}]}}",
            c.workload,
            c.personality.label(),
            c.run.result.arrivals,
            c.run.result.completed,
            c.folded,
            c.in_flight,
            c.exemplar_bytes.len(),
            fnv64(&c.exemplar_bytes),
            quantiles.join(",")
        )
    });
    format!(
        "{{\n  \"seed\": {},\n  \"cores\": {},\n  \"requests\": {},\n  \"cells\": [\n{}  ],\n  \
         \"assertions\": {{\"inversions\": {}, \"inversion_observed\": {}, \
         \"stock_exim_mount_share\": {:.6}, \"stock_attribution_concentrated\": {}, \
         \"pk_exim_max_class\": \"{}\", \"pk_exim_max_class_bp\": {}, \
         \"pk_attribution_flat\": {}, \"ok\": {}}}\n}}\n",
        grid.seed,
        grid.cores,
        grid.requests,
        json::lines("    ", cells),
        asserts.inversions,
        asserts.inversion_observed,
        asserts.stock_exim_mount_share,
        asserts.stock_attribution_concentrated,
        json::escape(&asserts.pk_exim_max_class),
        asserts.pk_exim_max_class_bp,
        asserts.pk_attribution_flat,
        asserts.ok()
    )
}

/// Renders the grid as an OpenMetrics exposition (`pk-why`'s
/// renderer): thresholds, identity terms, and per-class shares as
/// gauges; completions and ring drops as counters.
pub fn metrics(grid: &TailGrid) -> MetricSet {
    let mut m = MetricSet::new();
    for c in &grid.cells {
        let cell = [("workload", c.workload), ("kernel", c.personality.label())];
        let dropped = c.dropped_by_track.iter().sum::<u64>();
        m.counter(
            "pk_tail_requests",
            "completed requests folded into span trees",
            &cell,
            c.folded as f64,
        );
        m.counter(
            "pk_trace_dropped_events",
            "trace ring overflow drops (must be zero)",
            &cell,
            dropped as f64,
        );
        for a in &c.attributions {
            let q = format!("{}", a.quantile);
            let at = [cell[0], cell[1], ("quantile", q.as_str())];
            m.gauge(
                "pk_tail_threshold_cycles",
                "exact per-request latency order statistic",
                &at,
                a.threshold_cycles as f64,
            );
            for (term, v) in [
                ("queue", a.queue),
                ("service", a.service),
                ("wait", a.wait_total),
                ("slack", a.slack),
            ] {
                m.gauge(
                    "pk_tail_term_cycles",
                    "accounting-identity term summed over the tail set",
                    &[at[0], at[1], at[2], ("term", term)],
                    v as f64,
                );
            }
            for s in &a.by_class {
                let class = [at[0], at[1], at[2], ("class", s.class.as_str())];
                m.gauge(
                    "pk_tail_wait_share",
                    "fraction of the tail's lock-class wait pool",
                    &class,
                    s.share_of_waits,
                );
                m.gauge(
                    "pk_tail_wait_bp",
                    "basis points of tail latency spent waiting on the class",
                    &class,
                    s.bp_of_latency as f64,
                );
            }
        }
    }
    m
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
        let asserts = assess(grid);
        assert!(
            asserts.inversion_observed,
            "per-request p999 inversion must show on >= {INVERSION_MIN_WORKLOADS} workloads: {:?}",
            asserts
                .verdicts
                .iter()
                .map(|v| (v.workload, v.stock_p999, v.pk_p999))
                .collect::<Vec<_>>()
        );
        assert!(
            asserts.stock_attribution_concentrated,
            "stock exim must attribute >= {:.0}% of p999 waits to {MOUNT_CLASS}, got {:.1}%",
            STOCK_MOUNT_SHARE_FLOOR * 100.0,
            asserts.stock_exim_mount_share * 100.0
        );
        assert!(
            asserts.pk_attribution_flat,
            "PK exim's widest class must stay <= {PK_CLASS_BP_CEILING} bp, got {} ({})",
            asserts.pk_exim_max_class_bp, asserts.pk_exim_max_class
        );
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
        let asserts = assess(grid);
        let json = report_json(grid, &asserts);
        assert_eq!(json, report_json(grid, &asserts));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains(MOUNT_CLASS));
        let text = metrics(grid).render();
        assert!(text.contains("pk_tail_wait_share"));
        assert!(text.ends_with("# EOF\n"));
        assert!(!table(grid).is_empty());
        assert!(class_table(grid, "exim").contains("exim/pk"));
    }

    #[test]
    fn lockdep_live_row_is_clean() {
        let row = run_lockdep_live(42);
        assert_eq!(row.delivered, row.connections * 10, "every message lands");
        assert_eq!(row.violations, 0, "lock discipline holds under overload");
        assert_eq!(row.ctx_leaks, 0, "every delivery scope closed");
    }
}
