//! `report tail`: prints [`pk_bench::tail`]'s per-request tail
//! decomposition over `SERVING × {stock, coarse, pk, adaptive}`; exits
//! 1 if any of its three derived claims fails.
//!
//! `--perfetto DIR` writes Perfetto-loadable traces of the exim
//! stock/pk cells; `--lockdep-live` appends the functional-Exim
//! overload row (meaningful under `--features lockdep`). Every
//! artifact is a pure function of the seed.

use super::write_artifact;
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::{header, tail};
use pk_kernel::Personality;

pub const SPEC: Spec = Spec::flags(
    "report tail",
    &[
        ("--seed", Kind::Num),
        ("--json", Kind::Text),
        ("--openmetrics", Kind::Text),
        ("--perfetto", Kind::Text),
        ("--lockdep-live", Kind::Switch),
    ],
);

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    header(
        "Where the p999 goes",
        "Per-request causal traces folded into span trees; tail quantiles \
         decomposed over latency = queue + service + class waits + slack. \
         Arrivals anchored to PK saturation capacity for every personality.",
    );
    println!(
        "seed {}  cores {}  requests/cell {}  load {}%  exemplars/cell {}\n",
        seed,
        tail::TAIL_CORES,
        tail::TAIL_REQUESTS,
        tail::TAIL_LOAD_PCT,
        tail::EXEMPLARS_PER_CELL
    );

    let grid = tail::run_grid(seed);
    print!("{}", tail::table(&grid));

    println!("\nExim p999 decomposition, all personalities:");
    print!("{}", tail::class_table(&grid, "exim"));

    // Ring health: every cell already hard-failed on overflow; print
    // the margin so a shrinking one is visible before it bites.
    let worst = grid
        .cells
        .iter()
        .map(|c| c.dropped_by_track.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    println!(
        "\ntrace rings: 0 events dropped across {} cells (sizing rule \
         flow_ring_capacity; worst cell dropped {worst})",
        grid.cells.len()
    );

    let asserts = tail::assess(&grid);
    println!("\nDerived claims:");
    for v in &asserts.verdicts {
        println!(
            "  {:>10}: stock p999 {} vs PK p999 {} — {}",
            v.workload,
            v.stock_p999,
            v.pk_p999,
            if v.inverted {
                "inverted"
            } else {
                "NOT inverted"
            }
        );
    }
    println!(
        "  stock exim {} share of p999 waits: {:.1}% (floor {:.0}%)",
        tail::MOUNT_CLASS,
        asserts.stock_exim_mount_share * 100.0,
        tail::STOCK_MOUNT_SHARE_FLOOR * 100.0
    );
    println!(
        "  pk exim widest class: {} at {} bp of tail latency (ceiling {} bp)",
        if asserts.pk_exim_max_class.is_empty() {
            "-"
        } else {
            &asserts.pk_exim_max_class
        },
        asserts.pk_exim_max_class_bp,
        tail::PK_CLASS_BP_CEILING
    );

    if let Some(path) = args.text("--json") {
        write_artifact(path, &tail::report_json(&grid, &asserts))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.text("--openmetrics") {
        write_artifact(path, &tail::metrics(&grid).render())?;
        println!("wrote {path}");
    }
    if let Some(dir) = args.text("--perfetto") {
        for p in [Personality::Stock, Personality::Pk] {
            let (_, events) = tail::run_cell("exim", p, seed);
            let path = format!("{dir}/tail-exim-{}.json", p.label());
            write_artifact(&path, &pk_trace::chrome_trace_json(&events))?;
            println!("wrote {path}");
        }
    }

    let mut failed = !asserts.ok();
    if args.has("--lockdep-live") {
        let row = tail::run_lockdep_live(seed);
        println!(
            "\nlockdep-live: {} connections on {} cores, {} delivered, \
             {} acquisitions observed, {} violations, {} ctx leaks",
            row.connections,
            row.cores,
            row.delivered,
            row.acquisitions,
            row.violations,
            row.ctx_leaks
        );
        if row.violations != 0 || row.ctx_leaks != 0 {
            eprintln!("lockdep-live row FAILED");
            failed = true;
        }
    }

    if failed {
        return Err("\ntail report FAILED: an attribution claim did not reproduce".to_string());
    }
    println!("\ntail report passed: the p999 is named, not just measured.");
    Ok(())
}
