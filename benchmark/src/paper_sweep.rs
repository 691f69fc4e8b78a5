//! `paper_sweep`: regenerate the paper's closed-loop evaluation.
//!
//! For the 7-app roster × {stock, pk}: build the model, build and solve
//! the MVA network for n = 1..48, then run the discrete-event engine at
//! 48 cores (paper machine) and at 1 024 cores (64 × 16). This is what
//! every figure and report binary spends its time in; `sim::des` does
//! nearly all the work and the kernel crates do none.
//!
//! The light path is the 48-core DES, the heavy path the 1 024-core DES
//! (both in events per second of host time).

use crate::harness::{Ledger, Recorder};
use crate::{Rep, Side, Slice, Stats, Workload};
use pk_sim::des::{self, DesResult};
use pk_sim::{MachineSpec, Network};
use pk_workloads::{roster, KernelChoice};

const KERNELS: [(KernelChoice, &str); 2] =
    [(KernelChoice::Stock, "stock"), (KernelChoice::Pk, "pk")];
const PAPER_CORES: usize = 48;
const BIG_CORES: usize = 1024;

/// Operations per core and rep: (48 cores, 1 024 cores); 4 M and
/// 17 M events. Below about 200 ops per core the 1 024-core runs are
/// mostly start-up transient, and their speed swings by a tenth from
/// seed to seed.
const FULL_OPS: (u64, u64) = (1_000, 200);
const SMOKE_OPS: (u64, u64) = (20, 2);
/// The warm-up slice of a set-up: a tenth of a rep.
const WARM_OPS: (u64, u64) = (100, 20);

/// The committed model outputs; the MVA points must agree with them.
const BENCH_SCALE: &str = include_str!("../../BENCH_scale.json");

struct Cell {
    name: &'static str,
    choice: KernelChoice,
    kernel: &'static str,
    /// The 48-core MVA point.
    ops_per_cycle_per_core: f64,
    c48: DesResult,
    c1024: DesResult,
}

pub struct PaperSweep {
    seed: u64,
    ops: (u64, u64),
    big: MachineSpec,
    /// The last rep's results, and whether any rep disagreed with the
    /// first (the simulation is a pure function of the seed).
    cells: Vec<Cell>,
    reps_disagree: bool,
}

impl PaperSweep {
    /// One pass over the roster at `ops`; fills `self.cells`.
    fn sweep(&mut self, ops: (u64, u64), rec: &Recorder, ledger: &mut Ledger) -> Rep {
        let mut cells = Vec::with_capacity(14);
        let mut slices = Vec::with_capacity(42);
        let (mut build_s, mut solve_s, mut solves) = (0.0, 0.0, 0u64);
        let (mut ev48, mut s48, mut ev1024, mut s1024) = (0u64, 0.0, 0u64, 0.0);
        let (_, wall_s) = rec.time("paper_sweep.rep", 1, || {
            for name in roster::NAMES {
                for (choice, kernel) in KERNELS {
                    let (models, s) = rec.time("workloads.model_build", 2, || {
                        (
                            roster::model(name, choice).expect("roster name resolves"),
                            roster::model_on(name, choice, self.big).expect("roster name resolves"),
                        )
                    });
                    let mut cell_build_s = s;
                    let (model, big_model) = models;

                    let mut net48 = None;
                    let mut ops_per_cycle_per_core = 0.0;
                    for n in 1..=PAPER_CORES {
                        let (net, s) = rec.time("workloads.network", 1, || model.network(n));
                        cell_build_s += s;
                        let (r, s) = rec.time("sim.mva.solve", 1, || net.solve(n));
                        cell_build_s += s;
                        solve_s += s;
                        solves += 1;
                        if n == PAPER_CORES {
                            ops_per_cycle_per_core = r.ops_per_cycle_per_core();
                            net48 = Some(net);
                        }
                    }
                    let net48: Network = net48.expect("the loop reaches 48 cores");
                    let (c48, s) = rec.time("sim.des.c48", 1, || {
                        des::simulate(&net48, PAPER_CORES, ops.0, self.seed)
                    });
                    ev48 += c48.events_processed;
                    s48 += s;
                    slices.push(Slice {
                        side: Side::Light,
                        ops: c48.events_processed as f64,
                        secs: s,
                    });

                    let (net1024, s) =
                        rec.time("workloads.network", 1, || big_model.network(BIG_CORES));
                    cell_build_s += s;
                    let (c1024, s) = rec.time("sim.des.c1024", 1, || {
                        des::simulate(&net1024, BIG_CORES, ops.1, self.seed)
                    });
                    ev1024 += c1024.events_processed;
                    s1024 += s;
                    slices.push(Slice {
                        side: Side::Heavy,
                        ops: c1024.events_processed as f64,
                        secs: s,
                    });
                    // Model build, the networks and the MVA solves.
                    slices.push(Slice {
                        side: Side::Other,
                        ops: 1.0,
                        secs: cell_build_s,
                    });
                    build_s += cell_build_s;

                    cells.push(Cell {
                        name,
                        choice,
                        kernel,
                        ops_per_cycle_per_core,
                        c48,
                        c1024,
                    });
                }
            }
        });

        if !self.cells.is_empty()
            && self
                .cells
                .iter()
                .zip(&cells)
                .any(|(a, b)| a.c48 != b.c48 || a.c1024 != b.c1024)
        {
            eprintln!("paper_sweep: two reps at one seed simulated different results");
            self.reps_disagree = true;
        }
        self.cells = cells;

        let events = ev48 + ev1024;
        ledger.sample("workloads.model_build_ns", (build_s - solve_s) * 1e9 / 14.0);
        ledger.sample("sim.mva.solve_ns", solve_s * 1e9 / solves as f64);
        ledger.sample("sim.des.c48.events_per_s", ev48 as f64 / s48);
        ledger.sample("sim.des.c1024.events_per_s", ev1024 as f64 / s1024);
        ledger.sample("sim.des.ns_per_event", (s48 + s1024) * 1e9 / events as f64);
        ledger.sample("sim.des.self_share", (s48 + s1024) / wall_s);
        ledger.counter("sim.des.events", events);
        ledger.counter(
            "sim.des.line_transfers",
            self.cells
                .iter()
                .flat_map(|c| c.c48.line_transfers.iter().chain(&c.c1024.line_transfers))
                .sum(),
        );
        Rep {
            wall_s,
            slices,
            attempted: 28,
            failed: 0,
        }
    }

    /// Replays every cell on the `des::reference` heap engine and
    /// returns how many results differ from the wheel's.
    fn reference(&self, rec: &Recorder, ledger: &mut Ledger) -> u64 {
        let mut differ = 0;
        let (mut ev48, mut s48, mut ev1024, mut s1024) = (0u64, 0.0, 0u64, 0.0);
        for cell in &self.cells {
            let net48 = roster::model(cell.name, cell.choice)
                .expect("roster name resolves")
                .network(PAPER_CORES);
            let (r, s) = rec.time("sim.des_reference.c48", 1, || {
                des::reference::simulate(&net48, PAPER_CORES, self.ops.0, self.seed)
            });
            ev48 += r.events_processed;
            s48 += s;
            differ += u64::from(r != cell.c48);

            let net1024 = roster::model_on(cell.name, cell.choice, self.big)
                .expect("roster name resolves")
                .network(BIG_CORES);
            let (r, s) = rec.time("sim.des_reference.c1024", 1, || {
                des::reference::simulate(&net1024, BIG_CORES, self.ops.1, self.seed)
            });
            ev1024 += r.events_processed;
            s1024 += s;
            differ += u64::from(r != cell.c1024);
        }
        ledger.sample("sim.des_reference.c48.events_per_s", ev48 as f64 / s48);
        ledger.sample(
            "sim.des_reference.c1024.events_per_s",
            ev1024 as f64 / s1024,
        );
        differ
    }
}

impl Workload for PaperSweep {
    const NAME: &'static str = "paper_sweep";

    fn setup(seed: u64, smoke: bool) -> Self {
        let mut w = Self {
            seed,
            ops: if smoke { SMOKE_OPS } else { FULL_OPS },
            big: MachineSpec::with_topology(64, 16).expect("64 x 16 is a valid topology"),
            cells: Vec::new(),
            reps_disagree: false,
        };
        let warm = if smoke { SMOKE_OPS } else { WARM_OPS };
        w.sweep(warm, &Recorder::new(false), &mut Ledger::default());
        w.cells.clear();
        w
    }

    fn rep(&mut self, rec: &Recorder, ledger: &mut Ledger) -> Rep {
        self.sweep(self.ops, rec, ledger)
    }

    fn probes(&mut self, rec: &Recorder, ledger: &mut Ledger) -> (u64, u64) {
        (28, self.reference(rec, ledger))
    }

    fn verify(&mut self, stats: &mut Stats) -> (u64, u64) {
        // Wheel == heap oracle on every cell, at any seed.
        let mut failed = self.reference(&Recorder::new(false), &mut Ledger::default());
        failed += u64::from(self.reps_disagree);

        let committed = crate::json::parse(BENCH_SCALE).expect("BENCH_scale.json parses");
        for c in &self.cells {
            let prefix = format!("{}.{}", c.name, c.kernel);
            // The committed key is units/s/core through the model's
            // caps and unit conversion; recompute it the same way.
            let model = roster::model(c.name, c.choice).expect("roster name resolves");
            let point = pk_sim::CoreSweep::point(model.as_ref(), PAPER_CORES);
            let key = format!("model.{}.{}.c48.per_core_per_sec", c.name, c.kernel);
            let want = committed.get(&key).and_then(crate::json::Json::as_f64);
            if want.map(|w| format!("{w:.6}")) != Some(format!("{:.6}", point.per_core_per_sec)) {
                eprintln!(
                    "paper_sweep: {key} = {:.6}, committed {want:?}",
                    point.per_core_per_sec
                );
                failed += 1;
            }
            stats.insert(
                format!("{prefix}.mva.c48.ops_per_cycle_per_core"),
                format!("{:.12e}", c.ops_per_cycle_per_core),
            );
            for (label, r) in [("c48", &c.c48), ("c1024", &c.c1024)] {
                stats.insert(
                    format!("{prefix}.{label}.cycles_per_op"),
                    format!("{:.6}", r.cycles_per_op),
                );
                stats.insert(
                    format!("{prefix}.{label}.completed_ops"),
                    r.completed_ops.to_string(),
                );
                stats.insert(
                    format!("{prefix}.{label}.events_processed"),
                    r.events_processed.to_string(),
                );
                stats.insert(
                    format!("{prefix}.{label}.line_transfers"),
                    r.line_transfers.iter().sum::<u64>().to_string(),
                );
            }
        }
        (28 + 14, failed)
    }
}
