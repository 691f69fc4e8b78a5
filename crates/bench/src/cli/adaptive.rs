//! `report adaptive`: the acceptance harness for the adaptive kernel
//! personality (see [`pk_bench::adaptive`] for the run and its gates).
//!
//! On top of the library's gates this checks the determinism contract
//! in-process: the JSON artifact must be byte-identical across two
//! full runs at the same seed. Exits 1 if any gate fails.

use super::write_artifact;
use pk_bench::adaptive::{
    failures, report_json, run_all, MAX_FLIPS, MEASURE_OPS_PER_CORE, PK_FLOOR,
};
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::header;

pub const SPEC: Spec = Spec::flags(
    "report adaptive",
    &[
        ("--seed", Kind::Num),
        ("--cores", Kind::Cores(48)),
        ("--ops", Kind::Num),
        ("--json", Kind::Text),
    ],
);

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    let cores = args.cores("--cores");
    let ops = args.get("--ops").unwrap_or(MEASURE_OPS_PER_CORE);

    header(
        "Adaptive personality acceptance (pk-adapt)",
        &format!(
            "{cores} simulated cores, {ops} ops/core, seed {seed}: \
             roster × {{stock, PK, adaptive}}, adaptive must reach \
             {:.0}% of PK everywhere with ≤{MAX_FLIPS} flips per knob",
            100.0 * PK_FLOOR
        ),
    );

    let rows = run_all(seed, cores, ops);
    let mut fails = failures(&rows);

    println!(
        "{:>10}  {:>12}  {:>12}  {:>12}  {:>8}  {:>8}  {:>7}  {:>5}",
        "workload",
        "stock op/cy",
        "pk op/cy",
        "adapt op/cy",
        "vs PK",
        "promoted",
        "epochs",
        "flips"
    );
    for r in &rows {
        println!(
            "{:>10}  {:>12.6}  {:>12.6}  {:>12.6}  {:>7.1}%  {:>8}  {:>7}  {:>5}",
            r.workload,
            r.stock_ops_per_cycle,
            r.pk_ops_per_cycle,
            r.adaptive_ops_per_cycle,
            100.0 * r.ratio_vs_pk(),
            r.promoted,
            r.epochs,
            r.max_flips
        );
    }
    println!();
    for r in &rows {
        if !r.decisions.is_empty() {
            println!("{} decision log:", r.workload);
            print!("{}", pk_adapt::render_log(&r.decisions));
        }
    }

    // Determinism gate: a second full run at the same seed must render
    // the byte-identical artifact.
    let rerun = run_all(seed, cores, ops);
    if report_json(seed, cores, ops, &rows, &fails)
        != report_json(seed, cores, ops, &rerun, &failures(&rerun))
    {
        fails.push("artifact not byte-identical across reruns at the same seed".to_string());
    }

    if let Some(path) = args.text("--json") {
        // Rendered last so the determinism verdict is folded into `pass`.
        write_artifact(path, &report_json(seed, cores, ops, &rows, &fails))?;
        println!("wrote {path}");
    }

    if !fails.is_empty() {
        return Err(fails
            .iter()
            .map(|f| format!("FAIL: {f}"))
            .collect::<Vec<_>>()
            .join("\n"));
    }
    println!(
        "PASS: adaptive ≥ {:.0}% of PK on all {} workloads, ≤{MAX_FLIPS} flips per knob, \
         byte-identical artifact",
        100.0 * PK_FLOOR,
        rows.len()
    );
    Ok(())
}
