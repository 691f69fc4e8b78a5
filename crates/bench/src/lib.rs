//! Shared harness code behind the `pk-bench` binary.
//!
//! Every `pk-bench` subcommand regenerates one of the paper's tables or
//! figures, or one of the repo's gated reports. This library holds the
//! report computations plus the small kit they share: the argument
//! parser ([`args`]), personality resolution ([`personality::resolve`]:
//! the roster's model, or `pk-adapt`'s converged one), the JSON joiner
//! ([`json`]) and the helpers below
//! that render core sweeps as aligned text tables.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod args;
pub mod chaos;
pub mod json;
pub mod latency;
pub mod lockdep;
pub mod personality;
pub mod profile;
pub mod scale;
pub mod tail;

pub use personality::{resolve, Resolved};

/// Serializes tests that read deltas of the process-global `rcu.*`
/// counters: concurrent churn from a sibling test would perturb the
/// exact counts they assert on.
#[cfg(test)]
pub(crate) fn rcu_serial() -> std::sync::MutexGuard<'static, ()> {
    static RCU_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    RCU_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

use pk_obs::ContentionReport;
use pk_sim::SweepPoint;

/// Builds the contention report for one resolved workload model from
/// the analytic (MVA) solve: the paper's "which resource eats the
/// cycles" diagnostic, derived from the model's per-station residence
/// rather than a hardcoded bottleneck table.
pub fn contention_report(resolved: &Resolved) -> ContentionReport {
    let cores = resolved.cores;
    let solved = resolved.model.network(cores).solve(cores);
    ContentionReport::from_snapshot(
        display_name(&resolved.model.name()),
        resolved.config.clone(),
        cores,
        &solved.snapshot(),
    )
}

/// Like [`contention_report`], but from the discrete-event simulator's
/// *measured* per-station waits and cache-line transfer counts — the
/// cross-check that the attribution is not an artifact of the MVA
/// approximation. Deterministic for a fixed `seed`.
pub fn contention_report_des(
    resolved: &Resolved,
    ops_per_core: u64,
    seed: u64,
) -> ContentionReport {
    let cores = resolved.cores;
    let net = resolved.model.network(cores);
    let measured = pk_sim::des::simulate(&net, cores, ops_per_core, seed);
    ContentionReport::from_snapshot(
        display_name(&resolved.model.name()),
        resolved.config.clone(),
        cores,
        &measured.snapshot(&net),
    )
}

/// Model names embed their config (`Exim/Stock`); the report prints
/// the config separately, so keep only the application part.
fn display_name(model_name: &str) -> String {
    model_name
        .split('/')
        .next()
        .unwrap_or(model_name)
        .to_string()
}

/// Prints a figure header.
pub fn header(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}\n");
}

/// Prints one or more labelled sweeps as a throughput-per-core table,
/// in the units given (e.g. "msgs/sec/core").
pub fn print_throughput(unit: &str, scale: f64, series: &[(String, Vec<SweepPoint>)]) {
    print!("{:>6}", "cores");
    for (label, _) in series {
        print!("  {label:>18}");
    }
    println!("    ({unit})");
    let n = series[0].1.len();
    for i in 0..n {
        print!("{:>6}", series[0].1[i].cores);
        for (_, sweep) in series {
            let p = &sweep[i];
            let capped = if p.hw_capped { "*" } else { " " };
            print!("  {:>17.1}{capped}", p.per_core_per_sec * scale);
        }
        println!();
    }
    println!("  (*: bound by a hardware ceiling — NIC or DRAM)");
}

/// Prints the CPU-time breakdown (user/system per operation) for one
/// sweep, in the units given (e.g. "µsec/message").
pub fn print_cpu_breakdown(label: &str, unit: &str, scale: f64, sweep: &[SweepPoint]) {
    println!("\n{label} CPU time ({unit}):");
    println!(
        "{:>6}  {:>12}  {:>12}  {:>24}",
        "cores", "user", "system", "bottleneck"
    );
    for p in sweep {
        println!(
            "{:>6}  {:>12.2}  {:>12.2}  {:>24}",
            p.cores,
            p.user_usec * scale,
            p.system_usec * scale,
            p.bottleneck
        );
    }
}

/// Prints the scalability summary line the tests assert on: per-core
/// throughput at max cores relative to one core.
pub fn print_ratio(label: &str, sweep: &[SweepPoint]) {
    let first = sweep.first().expect("non-empty sweep");
    let last = sweep.last().expect("non-empty sweep");
    println!(
        "{label}: per-core throughput at {} cores = {:.2}x of 1 core",
        last.cores,
        last.per_core_per_sec / first.per_core_per_sec
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_sim::{CoreSweep, MachineSpec, Network, Station, WorkloadModel};

    struct Flat;

    impl WorkloadModel for Flat {
        fn name(&self) -> String {
            "flat".into()
        }

        fn machine(&self) -> MachineSpec {
            MachineSpec::paper()
        }

        fn network(&self, _cores: usize) -> Network {
            let mut n = Network::new();
            n.push(Station::delay("user", 1000.0, false));
            n
        }
    }

    #[test]
    fn printers_do_not_panic() {
        let sweep = CoreSweep::run(&Flat);
        header("Figure X", "caption");
        print_throughput("ops/sec/core", 1.0, &[("flat".to_string(), sweep.clone())]);
        print_cpu_breakdown("flat", "µsec/op", 1.0, &sweep);
        print_ratio("flat", &sweep);
    }
}
