//! `report chaos`: prints [`pk_bench::chaos`]'s soak matrix — the
//! functional drivers under the acceptance fault mix, then the DES,
//! adaptive-controller, open-loop overload, exhausted-deadline and RCU
//! overflow legs. Exits 1 if any run panicked or violated an invariant
//! (with `--strict`, also if a faulted run injected nothing).
//!
//! The whole report is a pure function of its arguments: re-running
//! with the same seed replays the identical fault trace.

use pk_bench::args::{Args, Kind, Spec};
use pk_bench::{chaos, header};
use pk_kernel::Personality;
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

    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>7} {:>8} {:>12} {:>9} {:>9} {:>6}",
        "workload",
        "config",
        "baseline",
        "faulted",
        "degr%",
        "retries",
        "backoff_cyc",
        "checked",
        "injected",
        "ok?"
    );
    let mut failed = false;
    for r in &reports {
        println!(
            "{:>10} {:>6} {:>10} {:>10} {:>6.1}% {:>8} {:>12} {:>9} {:>9} {:>6}",
            r.workload,
            r.config,
            r.baseline_ops,
            r.faulted_ops,
            r.degradation_pct(),
            r.retries,
            r.backoff_cycles,
            r.faults_checked,
            r.faults_injected,
            if r.passed() { "pass" } else { "FAIL" }
        );
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
    println!(
        "{:>10} {:>16} {:>16} {:>7} {:>9}",
        "workload", "base ops/cyc", "faulted ops/cyc", "degr%", "injected"
    );
    for row in chaos::des_chaos(Personality::Pk, cores, seed) {
        println!(
            "{:>10} {:>16.6} {:>16.6} {:>6.1}% {:>9}",
            row.workload,
            row.baseline_ops_per_cycle,
            row.faulted_ops_per_cycle,
            row.degradation_pct(),
            row.faults_injected
        );
        if strict && row.faults_injected == 0 {
            failed = true;
            println!("{:>10}   strict: no scheduler faults fired", "");
        }
    }

    println!("\nAdaptive-controller chaos (convergence under scheduler faults):");
    println!(
        "{:>10} {:>8} {:>8} {:>7} {:>6} {:>9} {:>16} {:>6}",
        "workload", "clean", "faulted", "epochs", "flips", "injected", "final ops/cyc", "ok?"
    );
    for r in chaos::adaptive_chaos(cores, seed) {
        println!(
            "{:>10} {:>8} {:>8} {:>7} {:>6} {:>9} {:>16.6} {:>6}",
            r.workload,
            r.clean_promoted,
            r.faulted_promoted,
            r.epochs,
            r.max_flips,
            r.faults_injected,
            r.final_ops_per_cycle,
            if r.passed() { "pass" } else { "FAIL" }
        );
        failed |= print_violations(&r.violations);
    }

    println!("\nOpen-loop overload (2x arrivals, shedding on, 1% net.rx_drop):");
    println!(
        "{:>10} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9} {:>12} {:>9} {:>6}",
        "workload",
        "config",
        "arrivals",
        "completed",
        "rx-drop",
        "shed",
        "cancelled",
        "p999",
        "peak/cap",
        "ok?"
    );
    for choice in [Personality::Stock, Personality::Pk] {
        for r in chaos::overload_chaos(choice, cores, seed) {
            println!(
                "{:>10} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9} {:>12} {:>6}/{:<2} {:>6}",
                r.workload,
                r.config,
                r.arrivals,
                r.completed,
                r.nic_dropped,
                r.shed,
                r.deadline_cancelled,
                r.p999,
                r.queue_depth_peak,
                r.admission_cap,
                if r.passed() { "pass" } else { "FAIL" }
            );
            failed |= print_violations(&r.violations);
            if strict && r.nic_dropped == 0 {
                failed = true;
                println!("{:>10}   strict: rx-drop never fired", "");
            }
        }
    }

    println!("\nExhausted-deadline row (budget spent mid-retry must surface Timeout):");
    {
        let r = chaos::run_exhausted_deadline(seed);
        println!(
            "  {} requests: {} timeouts, {} admitted, depth after {} — {}",
            r.requests,
            r.timeouts,
            r.admitted,
            r.depth_after,
            if r.passed() { "pass" } else { "FAIL" }
        );
        for v in &r.violations {
            failed = true;
            println!("    violation: {v}");
        }
    }

    println!("\nRCU deferred-reclamation soak (forced queue spills via rcu.defer_overflow):");
    println!(
        "{:>10} {:>9} {:>8} {:>9} {:>9} {:>8} {:>6}",
        "config", "call_rcu", "freed", "pending", "injected", "spills", "ok?"
    );
    for choice in [Personality::Stock, Personality::Pk] {
        let r = chaos::run_rcu_overflow(choice, cores, seed);
        println!(
            "{:>10} {:>9} {:>8} {:>9} {:>9} {:>8} {:>6}",
            r.config,
            r.call_rcu,
            r.freed,
            r.pending_after_barrier,
            r.injected,
            r.spills,
            if r.passed() { "pass" } else { "FAIL" }
        );
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
