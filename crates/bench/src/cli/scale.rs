//! `scale`: regenerate or check the deterministic `BENCH_scale.json`
//! metric set, and run the engine-throughput smoke.
//!
//! * Default: compute the metric set for `--seed` (default 42), write
//!   it to `--out` (default `BENCH_scale.json`) and print the writer
//!   stall headline.
//! * `--check PATH`: recompute the metrics and diff them against the
//!   committed baseline at `PATH`; exits 1 on any key drift or a >10%
//!   regression in a cycles metric.
//! * `--check-engine PATH`: time the calendar-queue DES engine over
//!   the 48-core roster and compare events/sec against the committed
//!   floor baseline at `PATH` (`BENCH_engine.json`); exits 1 if the
//!   measured rate regresses more than 20% below the floor. Runs only
//!   the engine timing — no metrics.
//!
//! Host-cost numbers (primitive ns/op, wheel vs heap events/sec) are
//! recorded by the repo benchmark, `benchmark/README.md`.

use pk_bench::args::{Args, Kind, Spec};
use pk_bench::scale;

pub const SPEC: Spec = Spec::flags(
    "scale",
    &[
        ("--seed", Kind::Num),
        ("--out", Kind::Text),
        ("--check", Kind::Text),
        ("--check-engine", Kind::Text),
    ],
);

/// Ops/core for the engine timing: enough events (~3.9M over the
/// roster) for a stable rate.
const ENGINE_TIMING_OPS: u64 = 500;

/// A measured rate this far below the committed floor fails the CI
/// smoke (the issue's 20% budget).
const ENGINE_REGRESSION_BUDGET: f64 = 0.20;

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    if let Some(baseline_path) = args.text("--check-engine") {
        return check_engine_throughput(baseline_path, seed);
    }

    let metrics = scale::deterministic_metrics(seed);

    if let Some(baseline_path) = args.text("--check") {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("scale: cannot read baseline {baseline_path}: {e}"))?;
        let report = scale::check_report(&baseline, &metrics);
        if report.passed() {
            println!(
                "scale --check: {} metrics match {baseline_path} (seed {seed})",
                metrics.len()
            );
            return Ok(());
        }
        eprintln!("scale --check FAILED against {baseline_path}:");
        for f in &report.drift {
            eprintln!("  {f}");
        }
        if !report.regressions.is_empty() {
            eprintln!(
                "  top {} regressed metrics (of {}, worst first):",
                report.regressions.len().min(3),
                report.regressions.len()
            );
            for r in report.regressions.iter().take(3) {
                eprintln!(
                    "    {}: baseline {:.3} -> candidate {:.3} ({:+.1}%)",
                    r.key,
                    r.baseline,
                    r.candidate,
                    (r.ratio - 1.0) * 100.0
                );
            }
        }
        return Err(format!("scale: {baseline_path} does not match seed {seed}"));
    }

    let out = args.text("--out").unwrap_or("BENCH_scale.json");
    super::write_artifact(out, &metrics.to_json())?;
    println!(
        "scale: wrote {} metrics to {out} (seed {seed})",
        metrics.len()
    );
    report_stall_headline(&metrics);
    Ok(())
}

/// The CI engine-throughput smoke: measure the wheel engine and fail
/// if it regresses more than 20% below the committed floor. The floor
/// in `BENCH_engine.json` is deliberately conservative (about half a
/// warm local run) so shared-runner noise does not flap the gate while
/// a real structural regression — an accidental O(n) scan or per-event
/// allocation in the hot loop — still trips it.
fn check_engine_throughput(baseline_path: &str, seed: u64) -> Result<(), String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("scale: cannot read engine baseline {baseline_path}: {e}"))?;
    let floor = scale::Metrics::parse_json(&baseline)
        .ok()
        .and_then(|m| {
            m.get("engine.wheel.events_per_sec.floor")?
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("scale: {baseline_path} lacks engine.wheel.events_per_sec.floor"))?;
    let measured = scale::roster_events_per_sec(ENGINE_TIMING_OPS, seed);
    let limit = floor * (1.0 - ENGINE_REGRESSION_BUDGET);
    println!(
        "engine smoke: wheel {measured:.0} events/sec vs committed floor {floor:.0} \
         (fail below {limit:.0})"
    );
    if measured < limit {
        return Err(format!(
            "scale --check-engine FAILED: {measured:.0} events/sec is more than \
             {:.0}% below the committed floor {floor:.0}",
            ENGINE_REGRESSION_BUDGET * 100.0
        ));
    }
    Ok(())
}

/// Prints the acceptance-criteria headline: dcache writer stall under
/// both reclamation disciplines.
fn report_stall_headline(m: &scale::Metrics) {
    let blocking = m.get("stall.dcache.blocking.modeled_stall_cycles");
    let deferred = m.get("stall.dcache.deferred.modeled_stall_cycles");
    let pct = m.get("stall.dcache.stall_reduction_pct");
    if let (Some(b), Some(d), Some(p)) = (blocking, deferred, pct) {
        println!(
            "dcache writer stall: blocking synchronize {b:.0} cycles vs deferred call_rcu {d:.0} cycles ({p:.1}% reduction)"
        );
    }
}
