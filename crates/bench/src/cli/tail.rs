//! `report tail`: prints [`pk_bench::tail`]'s per-request tail
//! decomposition over `SERVING × {stock, coarse, pk, adaptive}`; exits
//! 1 if any of its three derived claims (or, with `--lockdep-live`,
//! that row's two checks) fails.
//!
//! `--perfetto DIR` writes Perfetto-loadable traces of the exim
//! stock/pk cells; `--lockdep-live` appends the functional-Exim
//! overload row (meaningful under `--features lockdep`). Every
//! artifact is a pure function of the seed.

use super::{finish, header, write_artifact};
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::tail;
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
    print!("{}", tail::cell_table().text(&grid.cells));

    println!("\nExim p999 decomposition, all personalities:");
    print!("{}", tail::decomposition(&grid, "exim"));

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

    let verdicts = tail::verdicts(&grid);
    println!("\nDerived claims:");
    for v in &verdicts {
        let (w, stock, pk) = (v.workload, v.stock_p999, v.pk_p999);
        let inverted = if v.inverted {
            "inverted"
        } else {
            "NOT inverted"
        };
        println!("  {w:>10}: stock p999 {stock} vs PK p999 {pk} — {inverted}");
    }
    let exim = tail::exim_p999(&grid);
    let mut checks = tail::assess(&verdicts, &exim);
    let (share, class, bp) = &exim;
    println!(
        "  stock exim {} share of p999 waits: {:.1}% (floor {:.0}%)",
        tail::MOUNT_CLASS,
        share * 100.0,
        tail::STOCK_MOUNT_SHARE_FLOOR * 100.0
    );
    println!(
        "  pk exim widest class: {} at {bp} bp of tail latency (ceiling {} bp)",
        if class.is_empty() { "-" } else { class },
        tail::PK_CLASS_BP_CEILING
    );

    if let Some(path) = args.text("--json") {
        write_artifact(path, &tail::report_json(&grid, &verdicts, &exim, &checks))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.text("--openmetrics") {
        write_artifact(path, &tail::openmetrics(&grid))?;
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
        checks.extend(row.checks());
    }

    finish(&checks, false)?;
    println!("\ntail report passed: the p999 is named, not just measured.");
    Ok(())
}
