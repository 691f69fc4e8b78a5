//! `report chaos`: prints [`pk_bench::chaos`]'s soak matrix — the
//! functional drivers under the acceptance fault mix, then the DES,
//! adaptive-controller, open-loop overload, exhausted-deadline and RCU
//! overflow legs. Exits 1 if any run panicked or violated an invariant
//! (with `--strict`, also if a faulted run injected nothing).
//!
//! The whole report is a pure function of its arguments: re-running
//! with the same seed replays the identical fault trace.

use super::header;
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::chaos::{
    self, AdaptiveChaosRow, ChaosReport, DesChaosRow, OverloadChaosRow, RcuChaosReport,
};
use pk_kernel::Personality;
use pk_obs::Table;
use pk_workloads::roster::{self, SERVING};

pub const SPEC: Spec = Spec::flags(
    "report chaos",
    &[
        ("--seed", Kind::Num),
        ("--workloads", Kind::ListOf(&roster::NAMES)),
        ("--cores", Kind::Cores(4)),
        ("--strict", Kind::Switch),
    ],
);

/// A row's `ok?` cell.
fn verdict(passed: bool) -> &'static str {
    if passed {
        "pass"
    } else {
        "FAIL"
    }
}

/// Prints a row's violations under it; returns whether it had any.
fn print_violations(violations: &[String]) -> bool {
    for v in violations {
        println!("{:>10}   violation: {v}", "");
    }
    !violations.is_empty()
}

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    let cores = args.cores("--cores");
    let strict = args.has("--strict");
    let workloads: Vec<String> = args
        .list("--workloads")
        .unwrap_or_else(|| SERVING.map(String::from).to_vec());
    header(
        "Chaos soak report",
        "Each workload runs the same offered load fault-free (baseline) \
         and under the acceptance fault mix; failures must degrade \
         throughput visibly, never crash or leak.",
    );
    println!(
        "seed {}  cores {}  mix: {}\n",
        seed,
        cores,
        chaos::FaultMix::acceptance().label
    );

    let names: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let reports = chaos::soak(seed, &names, cores);
    for name in &names {
        if !reports
            .iter()
            .any(|r| r.workload.eq_ignore_ascii_case(name))
        {
            println!("(no functional driver for {name:?}; covered by the DES sweep below)");
        }
    }

    let soaks = Table::<ChaosReport>::new()
        .col("{workload:>10}", "", |r| r.workload)
        .col(" {config:>6}", "", |r| r.config)
        .col(" {baseline:>10}", "", |r| r.baseline_ops)
        .col(" {faulted:>10}", "", |r| r.faulted_ops)
        .col(" {degr%:>6.1}%", "", ChaosReport::degradation_pct)
        .col(" {retries:>8}", "", |r| r.retries)
        .col(" {backoff_cyc:>12}", "", |r| r.backoff_cycles)
        .col(" {checked:>9}", "", |r| r.faults_checked)
        .col(" {injected:>9}", "", |r| r.faults_injected)
        .col(" {ok?:>6}", "", |r| verdict(r.passed()));
    println!("{}", soaks.header());
    let mut failed = false;
    for r in &reports {
        println!("{}", soaks.row(r));
        if r.panicked {
            failed = true;
            println!("{:>10}   PANICKED", "");
        }
        failed |= print_violations(&r.violations);
        if strict && r.faults_injected == 0 {
            failed = true;
            println!("{:>10}   strict: fault mix never fired", "");
        }
    }

    println!("\nDES chaos (lock-holder preemption + core stalls), PK config:");
    let des = Table::<DesChaosRow>::new()
        .col("{workload:>10}", "", |r| r.workload)
        .col(" {base ops/cyc:>16.6}", "", |r| r.baseline_ops_per_cycle)
        .col(" {faulted ops/cyc:>16.6}", "", |r| r.faulted_ops_per_cycle)
        .col(" {degr%:>6.1}%", "", DesChaosRow::degradation_pct)
        .col(" {injected:>9}", "", |r| r.faults_injected);
    println!("{}", des.header());
    for row in chaos::des_chaos(Personality::Pk, cores, seed) {
        println!("{}", des.row(&row));
        if strict && row.faults_injected == 0 {
            failed = true;
            println!("{:>10}   strict: no scheduler faults fired", "");
        }
    }

    println!("\nAdaptive-controller chaos (convergence under scheduler faults):");
    let adaptive = Table::<AdaptiveChaosRow>::new()
        .col("{workload:>10}", "", |r| r.workload)
        .col(" {clean:>8}", "", |r| r.clean_promoted)
        .col(" {faulted:>8}", "", |r| r.faulted_promoted)
        .col(" {epochs:>7}", "", |r| r.epochs)
        .col(" {flips:>6}", "", |r| r.max_flips)
        .col(" {injected:>9}", "", |r| r.faults_injected)
        .col(" {final ops/cyc:>16.6}", "", |r| r.final_ops_per_cycle)
        .col(" {ok?:>6}", "", |r| verdict(r.passed()));
    println!("{}", adaptive.header());
    for r in chaos::adaptive_chaos(cores, seed) {
        println!("{}", adaptive.row(&r));
        failed |= print_violations(&r.violations);
    }

    println!("\nOpen-loop overload (2x arrivals, shedding on, 1% net.rx_drop):");
    let overload = Table::<OverloadChaosRow>::new()
        .col("{workload:>10}", "", |r| r.workload)
        .col(" {config:>6}", "", |r| r.config)
        .col(" {arrivals:>9}", "", |r| r.arrivals)
        .col(" {completed:>9}", "", |r| r.completed)
        .col(" {rx-drop:>8}", "", |r| r.nic_dropped)
        .col(" {shed:>8}", "", |r| r.shed)
        .col(" {cancelled:>9}", "", |r| r.deadline_cancelled)
        .col(" {p999:>12}", "", |r| r.p999)
        .col(" {peak/cap:>9}", "", |r| {
            format!("{:>6}/{:<2}", r.queue_depth_peak, r.admission_cap)
        })
        .col(" {ok?:>6}", "", |r| verdict(r.passed()));
    println!("{}", overload.header());
    for choice in [Personality::Stock, Personality::Pk] {
        for r in chaos::overload_chaos(choice, cores, seed) {
            println!("{}", overload.row(&r));
            failed |= print_violations(&r.violations);
            if strict && r.nic_dropped == 0 {
                failed = true;
                println!("{:>10}   strict: rx-drop never fired", "");
            }
        }
    }

    println!("\nExhausted-deadline row (budget spent mid-retry must surface Timeout):");
    let r = chaos::run_exhausted_deadline(seed);
    println!(
        "  {} requests: {} timeouts, {} admitted, depth after {} — {}",
        r.requests,
        r.timeouts,
        r.admitted,
        r.depth_after,
        verdict(r.passed())
    );
    for v in &r.violations {
        failed = true;
        println!("    violation: {v}");
    }

    println!("\nRCU deferred-reclamation soak (forced queue spills via rcu.defer_overflow):");
    let rcu = Table::<RcuChaosReport>::new()
        .col("{config:>10}", "", |r| r.config)
        .col(" {call_rcu:>9}", "", |r| r.call_rcu)
        .col(" {freed:>8}", "", |r| r.freed)
        .col(" {pending:>9}", "", |r| r.pending_after_barrier)
        .col(" {injected:>9}", "", |r| r.injected)
        .col(" {spills:>8}", "", |r| r.spills)
        .col(" {ok?:>6}", "", |r| verdict(r.passed()));
    println!("{}", rcu.header());
    for choice in [Personality::Stock, Personality::Pk] {
        let r = chaos::run_rcu_overflow(choice, cores, seed);
        println!("{}", rcu.row(&r));
        failed |= print_violations(&r.violations);
    }

    // When the validator is compiled in, the soak doubles as a lockdep
    // run: faults must not induce ordering or discipline violations.
    if pk_lockdep::enabled() {
        let violations = pk_lockdep::violations();
        println!(
            "\nlockdep (under fault mix): {} acquisitions, {} violations",
            pk_lockdep::acquisition_count(),
            violations.len()
        );
        for v in &violations {
            failed = true;
            println!("  [{}] {}", v.kind.label(), v.message);
        }
    }

    if failed {
        return Err("\nchaos soak FAILED (see violations above)".to_string());
    }
    println!("\nchaos soak passed: degradation was graceful and accounted for.");
    Ok(())
}
