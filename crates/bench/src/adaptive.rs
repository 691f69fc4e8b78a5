//! Adaptive-personality acceptance (`report adaptive`).
//!
//! Runs the full seven-workload MOSBENCH roster × {stock, PK, adaptive}
//! through the discrete-event simulator. The adaptive column boots
//! [`pk_kernel::KernelConfig::adaptive`] — zero fixes — and lets the
//! [`pk_adapt::AdaptController`] promote levers from observed
//! contention alone; no workload name ever reaches the controller, so
//! there are no hand-placed per-workload fixes to smuggle in.
//!
//! Gates ([`failures`]): adaptive throughput ≥ [`PK_FLOOR`] of PK on
//! **every** workload, every knob changes direction at most
//! [`MAX_FLIPS`] times per run, and the controller settles before its
//! epoch cap on every workload.

use crate::personality::{converge, resolve};
use pk_adapt::Decision;
use pk_kernel::Personality;
use pk_obs::{document, Cell, Table};
use pk_sim::{des, MachineSpec, WorkloadModel};
use pk_workloads::roster;

/// Operations per core for the three measured throughput runs (the
/// controller's own measurement epochs use
/// [`pk_adapt::AdaptPolicy::ops_per_core`]).
pub const MEASURE_OPS_PER_CORE: u64 = 2_000;
/// The acceptance floor: adaptive must reach this fraction of PK.
pub const PK_FLOOR: f64 = 0.90;
/// The flap bound: direction changes per knob per run.
pub const MAX_FLIPS: u32 = 3;

/// One workload's three-way measurement plus the controller's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Roster workload name.
    pub workload: &'static str,
    /// Stock DES throughput, ops/cycle.
    pub stock_ops_per_cycle: f64,
    /// PK DES throughput, ops/cycle.
    pub pk_ops_per_cycle: f64,
    /// Converged-config DES throughput, ops/cycle.
    pub adaptive_ops_per_cycle: f64,
    /// Fixes the controller promoted.
    pub promoted: usize,
    /// Measurement epochs the controller consumed.
    pub epochs: u32,
    /// Whether the controller settled before its epoch cap.
    pub converged: bool,
    /// Largest direction-change count over all knobs.
    pub max_flips: u32,
    /// The controller's decision log, in commit order.
    pub decisions: Vec<Decision>,
}

impl Row {
    /// Adaptive throughput as a fraction of PK.
    pub fn ratio_vs_pk(&self) -> f64 {
        self.adaptive_ops_per_cycle / self.pk_ops_per_cycle
    }
}

/// Runs the full roster once. Pure function of `(seed, cores, ops)` —
/// the double-run determinism check relies on this.
pub fn run_all(seed: u64, cores: usize, ops: u64) -> Vec<Row> {
    let machine = MachineSpec::paper();
    roster::NAMES
        .iter()
        .map(|&name| {
            let throughput = |model: &dyn WorkloadModel| {
                des::simulate(&model.network(cores), cores, ops, seed).ops_per_cycle
            };
            let fixed = |p: Personality| {
                let r = resolve(p, name, cores, machine, seed);
                throughput(r.expect("roster name resolves").model.as_ref())
            };
            let (adaptive, out) =
                converge(name, cores, machine, seed).expect("roster name resolves");
            Row {
                workload: name,
                stock_ops_per_cycle: fixed(Personality::Stock),
                pk_ops_per_cycle: fixed(Personality::Pk),
                adaptive_ops_per_cycle: throughput(adaptive.as_ref()),
                promoted: out.config.enabled_count(),
                epochs: out.epochs,
                converged: out.converged,
                max_flips: out.max_direction_changes(),
                decisions: out.decisions,
            }
        })
        .collect()
}

/// Collects the gate failures over a run (empty = pass).
pub fn failures(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        // A NaN ratio (no throughput measured) is no evidence of
        // reaching the floor, so it fails too.
        let ratio = r.ratio_vs_pk();
        if ratio.is_nan() || ratio < PK_FLOOR {
            out.push(format!(
                "{}: adaptive reached only {:.1}% of PK (floor {:.0}%)",
                r.workload,
                100.0 * ratio,
                100.0 * PK_FLOOR
            ));
        }
        if r.max_flips > MAX_FLIPS {
            out.push(format!(
                "{}: a knob changed direction {} times (bound {MAX_FLIPS})",
                r.workload, r.max_flips
            ));
        }
        if !r.converged {
            out.push(format!(
                "{}: controller did not settle within {} epochs",
                r.workload, r.epochs
            ));
        }
    }
    out
}

/// The per-workload columns: a text row and a JSON object, the JSON
/// carrying the controller's decisions too.
pub fn row_table() -> Table<Row> {
    Table::<Row>::new()
        .col("{workload:>10}", "workload", |r| r.workload)
        .col("  {stock op/cy:>12.6}", "stock", |r| r.stock_ops_per_cycle)
        .col("  {pk op/cy:>12.6}", "pk", |r| r.pk_ops_per_cycle)
        .col("  {adapt op/cy:>12.6}", "adaptive", |r| {
            r.adaptive_ops_per_cycle
        })
        .col("  {vs PK:>7.1}%", "ratio_vs_pk", |r| {
            Cell::Share(r.ratio_vs_pk())
        })
        .col("  {promoted:>8}", "promoted", |r| r.promoted)
        .col("  {epochs:>7}", "epochs", |r| r.epochs)
        .col("", "converged", |r| r.converged)
        .col("  {flips:>5}", "max_flips", |r| r.max_flips)
        .col("", "decisions", |r| decision_table().block(&r.decisions, 2))
}

/// One controller decision as a JSON object: the artifact's
/// `decisions` arrays and the decision logs the reports print.
pub fn decision_table() -> Table<Decision> {
    Table::<Decision>::new()
        .col("", "epoch", |d| d.epoch)
        .col("", "class", |d| d.class)
        .col("", "fix", |d| format!("{:?}", d.fix))
        .col("", "enabled", |d| d.enabled)
        .col("", "share_bp", |d| d.share_bp)
}

/// Renders the deterministic JSON artifact: rows in roster order,
/// decisions in commit order.
pub fn report_json(seed: u64, cores: usize, ops: u64, rows: &[Row], fails: &[String]) -> String {
    document([
        ("seed", seed.into()),
        ("cores", cores.into()),
        ("ops_per_core", ops.into()),
        ("pk_floor", PK_FLOOR.into()),
        ("max_flips", MAX_FLIPS.into()),
        ("rows", row_table().block(rows, 1)),
        ("pass", fails.is_empty().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_name_each_broken_gate() {
        let row = Row {
            workload: "exim",
            stock_ops_per_cycle: 1.0,
            pk_ops_per_cycle: 10.0,
            adaptive_ops_per_cycle: 5.0,
            promoted: 0,
            epochs: 32,
            converged: false,
            max_flips: MAX_FLIPS + 1,
            decisions: Vec::new(),
        };
        let fails = failures(&[row]);
        assert_eq!(fails.len(), 3);
        assert!(fails[0].contains("only 50.0% of PK"));
        assert!(fails[1].contains("changed direction 4 times"));
        assert!(fails[2].contains("did not settle within 32 epochs"));
    }

    #[test]
    fn zero_throughput_fails_the_pk_floor() {
        let row = Row {
            workload: "exim",
            stock_ops_per_cycle: 0.0,
            pk_ops_per_cycle: 0.0,
            adaptive_ops_per_cycle: 0.0,
            promoted: 0,
            epochs: 1,
            converged: true,
            max_flips: 0,
            decisions: Vec::new(),
        };
        let fails = failures(&[row]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("NaN% of PK"), "{fails:?}");
    }
}
