//! `report chaos`: prints [`pk_bench::chaos`]'s soak matrix — the
//! functional drivers under the acceptance fault mix, then the DES,
//! adaptive-controller, open-loop overload, exhausted-deadline and RCU
//! overflow legs. Exits 1 if any row fails a check that gates (with
//! `--strict`, any failed check: see [`pk_bench::chaos::Check`]).
//!
//! The whole report is a pure function of its arguments: re-running
//! with the same seed replays the identical fault trace.

use super::header;
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::chaos::{self, Leg, Soak};
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
    let mix = chaos::FaultMix::acceptance().label;
    println!("seed {seed}  cores {cores}  mix: {mix}\n");

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

    let mut failed = false;
    let mut print = |leg: &Leg, rows: &[Soak]| {
        let (text, leg_failed) = chaos::render(leg, rows, strict);
        print!("{text}");
        failed |= leg_failed;
    };
    let both = [Personality::Stock, Personality::Pk];
    print(&chaos::FUNCTIONAL, &reports);
    print(&chaos::DES, &chaos::des_chaos(Personality::Pk, cores, seed));
    print(&chaos::ADAPTIVE, &chaos::adaptive_chaos(cores, seed));
    let overload = both.map(|choice| chaos::overload_chaos(choice, cores, seed));
    print(&chaos::OVERLOAD, &overload.concat());
    print(&chaos::DEADLINE, &[chaos::run_exhausted_deadline(seed)]);
    print(
        &chaos::RCU,
        &both.map(|c| chaos::run_rcu_overflow(c, cores, seed)),
    );

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
