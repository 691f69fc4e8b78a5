//! `report latency`: prints [`pk_bench::latency`]'s open-loop serving
//! grid, its two derived claims and the trace-ring health; exits 1 if
//! a claim fails to reproduce or a ring overflowed.
//!
//! The report — and the `--json` artifact — is a pure function of the
//! seed: same seed, byte-identical output.

use super::write_artifact;
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::{header, latency};

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
    print!("{}", latency::table(&grid));
    let asserts = latency::assess(&grid);

    println!("\nDerived claims:");
    for v in &asserts.verdicts {
        println!(
            "  {:>10}: stock p999 {} vs PK p999 {} at {}% load — {}",
            v.workload,
            v.stock_p999,
            v.pk_p999,
            latency::NORMAL_LOAD_PCT,
            if v.inverted {
                "inverted"
            } else {
                "NOT inverted"
            }
        );
        println!(
            "  {:>10}  shed@{}%: p999 {} (bound {}), goodput {:.1}% of capacity; \
             unbounded queue ends at {} (floor {}) — {}",
            "",
            latency::OVERLOAD_PCT,
            v.shed_p999,
            v.shed_p999_bound,
            100.0 * v.shed_goodput,
            v.noshed_queue_end,
            v.divergence_floor,
            if v.shed_holds { "bounded" } else { "UNBOUNDED" }
        );
    }
    println!(
        "\ninversion: {}/{} workloads (need {});  shedding bounds the tail: {}",
        asserts.inversions,
        asserts.verdicts.len(),
        latency::INVERSION_MIN_WORKLOADS,
        asserts.shedding_bounds_tail
    );

    println!("\nTrace ring health (flow engine, rings sized by flow_ring_capacity):");
    let mut ring_overflow = false;
    for h in latency::trace_ring_health(seed) {
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
        if h.dropped_total > 0 {
            ring_overflow = true;
            eprintln!(
                "warning: {} trace rings overflowed, per-track drops {:?}; \
                 span trees folded from this capture would be incomplete",
                h.workload, h.dropped_by_track
            );
        }
    }

    if let Some(path) = args.text("--json") {
        write_artifact(path, &latency::report_json(&grid, &asserts))?;
        println!("wrote {path}");
    }

    if !asserts.ok() || ring_overflow {
        return Err("\nlatency report FAILED: an overload claim did not reproduce".to_string());
    }
    println!("\nlatency report passed: tails inverted and shedding held the SLO.");
    Ok(())
}
