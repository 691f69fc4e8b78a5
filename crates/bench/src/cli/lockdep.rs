//! `report lockdep`: runs [`pk_bench::lockdep`]'s roster under the
//! pk-lockdep runtime validator, then prints the observed lock classes,
//! the lock-order graph, the pk-obs sample export, and every recorded
//! violation. Exits 1 if any violation was recorded.
//!
//! Build with `--features lockdep`; without the feature the hooks are
//! no-ops and the report says so (exit 0), so accidentally running the
//! plain build is loud but not a false failure.

use pk_bench::args::{Args, Kind, Spec};
use pk_bench::lockdep::run_roster;

pub const SPEC: Spec = Spec::flags(
    "report lockdep",
    &[("--seed", Kind::Num), ("--cores", Kind::Cores(4))],
);

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    let cores = args.cores("--cores");
    println!("== lockdep roster report ==");
    println!(
        "seed {}  cores {}  validator {}",
        seed,
        cores,
        if pk_lockdep::enabled() {
            "ENABLED"
        } else {
            "disabled (build with --features lockdep)"
        }
    );
    println!();

    let rows = run_roster(seed, cores);

    println!(
        "{:<12} {:<7} {:>10} {:>10} {:>13} {:>10}",
        "workload", "config", "func ops", "des flts", "acquisitions", "violations"
    );
    for r in &rows {
        println!(
            "{:<12} {:<7} {:>10} {:>10} {:>13} {:>10}",
            r.workload, r.config, r.functional_ops, r.des_faults, r.acquisitions, r.violations
        );
    }
    println!();

    let classes = pk_lockdep::classes();
    let (anon, named): (Vec<_>, Vec<_>) = classes.iter().partition(|c| c.name.starts_with("anon."));
    println!("lock classes observed: {}", classes.len());
    for c in &named {
        println!("  {:<28} {:<12} {}", c.name, c.krate, c.kind.label());
    }
    if !anon.is_empty() {
        println!("  (plus {} anonymous per-instance classes)", anon.len());
    }
    println!();

    let edges = pk_lockdep::edges();
    println!("lock-order edges observed: {}", edges.len());
    for e in &edges {
        println!(
            "  {:<28} -> {:<28} x{:<6} ({} -> {})",
            e.from, e.to, e.count, e.from_site, e.to_site
        );
    }
    println!();

    // The pk-obs export: the same samples any `Collect` consumer sees.
    let mut snapshot = pk_obs::Snapshot::new();
    pk_lockdep::collector().collect(&mut snapshot);
    println!("pk-obs samples:");
    for s in snapshot.iter().filter(|s| s.name.starts_with("lockdep.")) {
        println!("  {s}");
    }
    println!();

    let violations = pk_lockdep::violations();
    if violations.is_empty() {
        println!("RESULT: PASS — no lockdep violations across the roster");
        return Ok(());
    }
    println!("RESULT: FAIL — {} violation(s):", violations.len());
    for v in &violations {
        println!("  [{}] {}", v.kind.label(), v.message);
    }
    Err("lockdep roster FAILED (see violations above)".to_string())
}
