//! `report contention`: the paper's diagnostic method as a tool. For
//! any workload × kernel personality × core count, print the top-N
//! contended resources with their share of total cycles — re-deriving
//! Figure 1's bottleneck column from the model solve and the
//! discrete-event measurement instead of a hardcoded table.
//!
//! The `adaptive` personality first converges the
//! [`pk_adapt::AdaptController`] over the workload's model (printing
//! its decision log), then reports on whatever fix subset the
//! controller promoted.
//!
//! `--topology 16x12` swaps in a scaled machine (16 sockets × 12
//! cores), so `CORES` may range up to 192 — the §7 "past 48 cores"
//! extrapolation. Oversubscribing the topology is a usage error.
//!
//! Defaults: Exim on the stock kernel at 48 cores, top 10 — the
//! configuration behind Figure 4's collapse, whose report must name
//! the vfsmount-table lock first.

use pk_adapt::render_log;
use pk_bench::args::{self, Args, Kind, Spec};
use pk_bench::{contention_report, contention_report_des, header, resolve};
use pk_kernel::Personality;
use pk_percpu::CoreId;
use pk_sim::MachineSpec;
use pk_workloads::exim::EximDriver;
use pk_workloads::roster;

pub const SPEC: Spec = Spec {
    command: "report contention",
    positionals: &[
        ("WORKLOAD", Kind::OneOf(&roster::NAMES)),
        ("PERSONALITY", Kind::OneOf(&args::PERSONALITIES)),
        ("CORES", Kind::Cores(48)),
    ],
    required: 0,
    flags: &[
        ("--top", Kind::Num),
        ("--all", Kind::Switch),
        ("--no-des", Kind::Switch),
        ("--functional", Kind::Switch),
        ("--topology", Kind::Topology),
    ],
};

/// Deterministic seed and per-core op count for the DES cross-check.
const DES_OPS_PER_CORE: u64 = 2_000;
const DES_SEED: u64 = 42;

fn report_one(
    workload: &str,
    personality: Personality,
    cores: usize,
    top: usize,
    des: bool,
    machine: MachineSpec,
) {
    let resolved = resolve(personality, workload, cores, machine, DES_SEED)
        .expect("the parser admits only roster workloads");
    if let Some(out) = &resolved.adapt {
        println!(
            "adaptive controller (seed {DES_SEED}): {} epochs, converged={}, \
             {} promoted, max direction changes {}",
            out.epochs,
            out.converged,
            out.config.enabled_count(),
            out.max_direction_changes()
        );
        print!("{}", render_log(&out.decisions));
        println!();
    }
    let analytic = contention_report(&resolved);
    println!("{}", analytic.render(top));
    if let Some(bottleneck) = analytic.top() {
        println!(
            "bottleneck: {} ({:.1}% of cycles)\n",
            bottleneck.name,
            bottleneck.share * 100.0
        );
    }
    if des {
        let measured = contention_report_des(&resolved, DES_OPS_PER_CORE, DES_SEED);
        println!("cross-check — discrete-event measurement (seed {DES_SEED}):");
        println!("{}", measured.render(top));
    }
}

/// Runs the functional Exim driver on a kernel booted as `personality`
/// (adaptive: zero fixes, sloppy refs armed but degraded to central)
/// and prints the kernel's own measured contention counters: the same
/// resource names as the model stations, but from real lock
/// acquisitions. Returns the driver it ran.
fn functional_exim(personality: Personality, cores: usize) -> EximDriver {
    header(
        "functional kernel measurement",
        "EximDriver on the userspace kernel; counters from Kernel::obs_snapshot()",
    );
    let driver = EximDriver::new(personality, cores).expect("boot exim");
    for core in 0..cores {
        for user in 0..2 {
            driver
                .run_connection(CoreId(core), core * 2 + user)
                .expect("delivery succeeds");
        }
    }
    println!(
        "delivered {} messages on {} cores\n",
        driver.delivered(),
        cores
    );
    print!("{}", driver.kernel().obs_snapshot());
    driver
}

pub fn run(args: &Args) -> Result<(), String> {
    let workload = args.text("WORKLOAD").unwrap_or("exim");
    let personality = args
        .text("PERSONALITY")
        .and_then(Personality::parse)
        .unwrap_or(Personality::Stock);
    let cores = args.cores("CORES");
    let top = args.get("--top").unwrap_or(10);
    let des = !args.has("--no-des");
    if args.has("--all") {
        for workload in roster::NAMES {
            for p in Personality::ALL {
                header(
                    &format!("{workload} / {}", p.legend()),
                    "cycle attribution from the MVA solve",
                );
                report_one(workload, p, cores, top, des, args.machine());
            }
        }
    } else {
        report_one(workload, personality, cores, top, des, args.machine());
        if args.has("--functional") && workload == "exim" {
            let _ = functional_exim(personality, cores);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--functional` used to boot stock for `adaptive`: the kernel the
    /// driver runs on must be the personality that was asked for.
    #[test]
    fn functional_exim_boots_the_requested_personality() {
        for p in Personality::ALL {
            let driver = functional_exim(p, 2);
            assert_eq!(driver.kernel().config().personality(), p);
            assert!(driver.delivered() > 0);
        }
    }
}
