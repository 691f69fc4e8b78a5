//! Roster-wide lockdep harness.
//!
//! Drives all seven MOSBENCH workloads — functional drivers where they
//! exist, plus the discrete-event models perturbed by
//! `sim.lock_holder_preempt` — under both kernel configs with the
//! pk-lockdep validator observing every lock acquisition. The validator
//! state is global and accumulates across runs, so after the roster
//! completes, [`pk_lockdep::edges`] holds the union lock-order graph
//! and [`pk_lockdep::violations`] every discipline breach.
//!
//! Single-core drivers are wrapped in [`pk_lockdep::ActingCore`] so the
//! per-core discipline checks are live; the internally-threaded drivers
//! (gmake, pedsort, metis) declare no acting core and exercise only the
//! lock-order and epoch rules.

use pk_fault::{FaultPlane, FaultSchedule};
use pk_kernel::{Kernel, Personality};
use pk_lockdep::ActingCore;
use pk_percpu::CoreId;
use pk_sim::des;
use pk_workloads::apache::ApacheDriver;
use pk_workloads::exim::EximDriver;
use pk_workloads::gmake_exec::{BuildGraph, ParallelMake};
use pk_workloads::memcached::MemcachedDriver;
use pk_workloads::metis::MetisDriver;
use pk_workloads::pedsort_indexer::Indexer;
use pk_workloads::postgres::PostgresDriver;
use pk_workloads::roster;
use std::sync::Arc;

/// Simulated operations per core for the DES leg.
const DES_OPS_PER_CORE: u64 = 1_000;

/// One workload × config outcome under the validator.
#[derive(Debug, Clone)]
pub struct LockdepRow {
    /// Workload name from the roster.
    pub workload: &'static str,
    /// Kernel config label (`stock` / `PK`).
    pub config: &'static str,
    /// Operations the functional driver completed (0 = DES-only).
    pub functional_ops: u64,
    /// Schedule-perturbation faults injected into the DES leg.
    pub des_faults: u64,
    /// Lock acquisitions observed by the validator so far (cumulative).
    pub acquisitions: u64,
    /// Violations recorded so far (cumulative; a growing number pins
    /// the offending row).
    pub violations: usize,
}

/// Runs the functional driver for `name` (if any) with per-core work
/// wrapped in [`ActingCore`] declarations. Returns ops completed.
fn run_functional(name: &str, choice: Personality, cores: usize) -> u64 {
    match name {
        "exim" => {
            let d = EximDriver::new(choice, cores).expect("boot exim");
            for conn in 0..cores * 3 {
                let core = conn % cores;
                let _ac = ActingCore::enter(core);
                let _ = d.run_connection(CoreId(core), conn);
            }
            d.delivered()
        }
        "memcached" => {
            let d = MemcachedDriver::new(choice, cores);
            for round in 0..cores as u32 * 3 {
                let core = round as usize % cores;
                let _ac = ActingCore::enter(core);
                d.client_batch(round, core);
            }
            loop {
                let mut progress = false;
                for core in 0..cores {
                    let _ac = ActingCore::enter(core);
                    if d.server_poll(core) > 0 {
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            d.served()
        }
        "apache" => {
            let d = ApacheDriver::new(choice, cores);
            for i in 0..cores as u32 * 8 {
                d.client_connect(0x0a00_0000 + i);
            }
            loop {
                let mut progress = false;
                for core in 0..cores {
                    let _ac = ActingCore::enter(core);
                    if d.serve_one(core).is_some() {
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            d.served()
        }
        "postgres" => {
            let d = PostgresDriver::new(roster::pairing(choice).postgres, cores, 256)
                .expect("boot postgres");
            for i in 0..cores as u64 * 32 {
                let core = (i as usize) % cores;
                let _ac = ActingCore::enter(core);
                let _ = d.query(core, i % 256, i % 4 == 0);
            }
            d.queries()
        }
        "gmake" => {
            let k = Arc::new(Kernel::new(choice.config(cores)));
            let objects = 12;
            k.vfs().mkdir_p("/src", CoreId(0)).expect("mkdir /src");
            for i in 0..objects {
                k.vfs()
                    .write_file(
                        &format!("/src/f{i}.c"),
                        format!("source {i}").as_bytes(),
                        CoreId(0),
                    )
                    .expect("write source");
            }
            let report = ParallelMake::new(cores * 2)
                .build(&k, &BuildGraph::kernel_build(objects))
                .expect("gmake build");
            report.processes
        }
        "pedsort" => {
            // Both pedsort variants share the functional indexer; the
            // threads/processes split only matters to the DES model.
            let k = Arc::new(Kernel::new(choice.config(cores)));
            k.vfs().mkdir_p("/corpus", CoreId(0)).expect("mkdir corpus");
            for i in 0..8 {
                k.vfs()
                    .write_file(
                        &format!("/corpus/doc{i}"),
                        format!(
                            "alpha beta gamma delta doc{i} token{} token{}",
                            i * 7,
                            i * 13
                        )
                        .as_bytes(),
                        CoreId(0),
                    )
                    .expect("write corpus");
            }
            let stats = Indexer::new(Arc::clone(&k))
                .run("/corpus", "/out", cores.min(4))
                .expect("indexer run");
            stats.distinct_terms as u64
        }
        "metis" => {
            let d = MetisDriver::new(roster::pairing(choice).metis, cores);
            let docs: Vec<String> = (0..16)
                .map(|i| format!("word{} word{} shared common doc{i}", i % 5, i % 11))
                .collect();
            d.run_job(&docs, cores.min(4)).expect("metis job") as u64
        }
        _ => 0,
    }
}

/// DES leg: simulates the workload's queueing model with lock-holder
/// preemption armed from `seed`, so the validator also sees the
/// schedules the simulator perturbs. Returns faults injected.
fn run_des(name: &str, choice: Personality, cores: usize, seed: u64) -> u64 {
    let Some(model) = roster::model(name, choice) else {
        return 0;
    };
    let net = model.network(cores);
    let plane = FaultPlane::with_seed(seed);
    plane.set("sim.lock_holder_preempt", FaultSchedule::EveryNth(211));
    plane.enable();
    let _ = des::simulate_with_faults(&net, cores, DES_OPS_PER_CORE, seed, &plane);
    plane.injected_total()
}

/// Drives the whole roster × {stock, PK} under the validator.
pub fn run_roster(seed: u64, cores: usize) -> Vec<LockdepRow> {
    let mut rows = Vec::new();
    for name in roster::NAMES {
        for choice in [Personality::Stock, Personality::Pk] {
            let functional_ops = run_functional(name, choice, cores);
            let des_faults = run_des(name, choice, cores, seed);
            rows.push(LockdepRow {
                workload: name,
                config: choice.legend(),
                functional_ops,
                des_faults,
                acquisitions: pk_lockdep::acquisition_count(),
                violations: pk_lockdep::violation_count(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_runs_clean_under_the_validator() {
        let rows = run_roster(42, 4);
        assert_eq!(rows.len(), roster::NAMES.len() * 2);
        for r in &rows {
            assert!(
                r.functional_ops > 0,
                "{} ({}) did no functional work",
                r.workload,
                r.config
            );
        }
        // PK models hold locks so briefly that EveryNth(211) may never
        // fire for an individual row; the roster as a whole must still
        // have exercised perturbed schedules.
        let total_faults: u64 = rows.iter().map(|r| r.des_faults).sum();
        assert!(total_faults > 0, "DES leg injected no faults at all");
        // The roster itself must be violation-free; negative tests
        // construct their violations in their own processes.
        assert_eq!(
            pk_lockdep::violations(),
            vec![],
            "roster produced lockdep violations"
        );
        if pk_lockdep::enabled() {
            assert!(pk_lockdep::acquisition_count() > 0);
            assert!(!pk_lockdep::edges().is_empty(), "no lock-order edges seen");
        }
    }
}
