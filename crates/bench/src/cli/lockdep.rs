//! `report lockdep`: runs [`pk_bench::lockdep`]'s roster under the
//! pk-lockdep runtime validator, then prints the observed lock classes,
//! the lock-order graph, the validator's counters, and every recorded
//! violation. Exits 1 if any violation was recorded.
//!
//! Build with `--features lockdep`; without the feature the hooks are
//! no-ops and the report says so (exit 0), so accidentally running the
//! plain build is loud but not a false failure.

use pk_bench::args::{Args, Kind, Spec};
use pk_bench::lockdep::{run_roster, LockdepRow};
use pk_obs::Table;

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

    let table = Table::<LockdepRow>::new()
        .col("{workload:<12}", "", |r| r.workload)
        .col(" {config:<7}", "", |r| r.config)
        .col(" {func ops:>10}", "", |r| r.functional_ops)
        .col(" {des flts:>10}", "", |r| r.des_faults)
        .col(" {acquisitions:>13}", "", |r| r.acquisitions)
        .col(" {violations:>10}", "", |r| r.violations);
    println!("{}", table.text(&rows));

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

    println!("pk-obs samples:");
    let counters = [
        ("enabled", usize::from(pk_lockdep::enabled())),
        ("classes", classes.len()),
        ("edges", edges.len()),
        ("max_held_depth", pk_lockdep::max_held_depth()),
        ("acquisitions", pk_lockdep::acquisition_count() as usize),
        ("violations", pk_lockdep::violation_count()),
    ];
    for (name, value) in counters {
        println!("  lockdep.{name} = {value}");
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
