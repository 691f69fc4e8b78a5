//! `report latency`: prints [`pk_bench::latency`]'s open-loop serving
//! grid, its two derived claims and the trace-ring health; exits 1 if
//! a claim fails to reproduce or a ring overflowed, each its own check.
//!
//! The report — and the `--json` artifact — is a pure function of the
//! seed: same seed, byte-identical output.

use super::{finish, header, write_artifact};
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::latency;

pub const SPEC: Spec = Spec::flags(
    "report latency",
    &[("--seed", Kind::Num), ("--json", Kind::Text)],
);

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    header(
        "Tail latency under overload",
        "Open-loop arrivals anchored to PK saturation capacity; latency \
         in simulated cycles from arrival to completion. The SLO is 8x \
         the PK kernel's mean request time, shared by every variant.",
    );
    println!(
        "seed {}  cores {}  requests/run {}  loads {{{}%, {}%}}\n",
        seed,
        latency::CORES,
        latency::REQUESTS,
        latency::NORMAL_LOAD_PCT,
        latency::OVERLOAD_PCT
    );

    let grid = latency::run_grid(seed);
    print!("{}", latency::run_table().text(&grid.runs));
    let verdicts = latency::verdicts(&grid);
    let mut checks = latency::assess(&verdicts);

    println!("\nDerived claims:");
    let table = latency::verdict_table();
    for v in &verdicts {
        println!("{}", table.row(v));
    }
    println!(
        "\ninversion: {}/{} workloads (need {});  shedding bounds the tail: {}",
        verdicts.iter().filter(|v| v.inverted).count(),
        verdicts.len(),
        latency::INVERSION_MIN_WORKLOADS,
        verdicts.iter().all(|v| v.shed_holds)
    );

    println!("\nTrace ring health (flow engine, rings sized by flow_ring_capacity):");
    let health = latency::trace_ring_health(seed);
    for h in &health {
        println!(
            "  {:>10}: {} events captured, {} dropped — {}",
            h.workload,
            h.events,
            h.dropped_total,
            if h.dropped_total == 0 {
                "ok"
            } else {
                "OVERFLOW"
            }
        );
    }

    if let Some(path) = args.text("--json") {
        write_artifact(path, &latency::report_json(&grid, &verdicts, &checks))?;
        println!("wrote {path}");
    }

    checks.extend(latency::ring_check(&health));
    finish(&checks, false)?;
    println!("\nlatency report passed: tails inverted and shedding held the SLO.");
    Ok(())
}
