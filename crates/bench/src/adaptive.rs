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

use crate::json;
use crate::personality::{converge, resolve};
use pk_kernel::Personality;
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
    pub decisions: Vec<pk_adapt::Decision>,
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
        if r.ratio_vs_pk() < PK_FLOOR {
            out.push(format!(
                "{}: adaptive reached only {:.1}% of PK (floor {:.0}%)",
                r.workload,
                100.0 * r.ratio_vs_pk(),
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

/// Renders the deterministic JSON artifact: fixed key order, fixed
/// 6-decimal floats, rows in roster order, decisions in commit order.
pub fn report_json(seed: u64, cores: usize, ops: u64, rows: &[Row], fails: &[String]) -> String {
    let rows = rows.iter().map(|r| {
        let decisions = r.decisions.iter().map(|d| {
            format!(
                "{{\"epoch\": {}, \"class\": \"{}\", \"fix\": \"{:?}\", \"enabled\": {}, \
                 \"share_bp\": {}}}",
                d.epoch,
                json::escape(d.class),
                d.fix,
                d.enabled,
                d.share_bp
            )
        });
        format!(
            "{{\"workload\": \"{}\", \"stock\": {:.6}, \"pk\": {:.6}, \"adaptive\": {:.6}, \
             \"ratio_vs_pk\": {:.6}, \"promoted\": {}, \"epochs\": {}, \"converged\": {}, \
             \"max_flips\": {}, \"decisions\": [\n{}    ]}}",
            r.workload,
            r.stock_ops_per_cycle,
            r.pk_ops_per_cycle,
            r.adaptive_ops_per_cycle,
            r.ratio_vs_pk(),
            r.promoted,
            r.epochs,
            r.converged,
            r.max_flips,
            json::lines("      ", decisions)
        )
    });
    format!(
        "{{\n  \"seed\": {seed},\n  \"cores\": {cores},\n  \"ops_per_core\": {ops},\n  \
         \"pk_floor\": {PK_FLOOR:.6},\n  \"max_flips\": {MAX_FLIPS},\n  \"rows\": [\n{}  ],\n  \
         \"pass\": {}\n}}\n",
        json::lines("    ", rows),
        fails.is_empty()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_deterministic_and_shaped() {
        let run = || {
            let rows = run_all(42, 8, 200);
            let fails = failures(&rows);
            report_json(42, 8, 200, &rows, &fails)
        };
        let a = run();
        assert_eq!(a, run(), "artifact must be byte-identical per seed");
        assert!(a.starts_with("{\n  \"seed\": 42,\n  \"cores\": 8,\n"));
        assert!(a.contains("\"workload\": \"metis\""));
        assert!(a.contains("  ],\n  \"pass\": ") && a.ends_with("\n}\n"));
    }

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
}
