//! `scale`: regenerate the deterministic `BENCH_scale.json` metric set,
//! and run the engine-throughput smoke.
//!
//! * Default: compute the metric set for `--seed` (default 42), write
//!   it to `--out` (default `BENCH_scale.json`). The metrics are a pure
//!   function of the seed, so checking a committed baseline is `cmp`
//!   against a regenerated file.
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
        ("--check-engine", Kind::Text),
    ],
);

/// Ops/core for the engine timing: enough events (~3.9M over the
/// roster) for a stable rate.
const ENGINE_TIMING_OPS: u64 = 500;

/// A measured rate this far below the committed floor fails the CI
/// smoke.
const ENGINE_BUDGET: f64 = 0.20;

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    if let Some(baseline_path) = args.text("--check-engine") {
        return check_engine_throughput(baseline_path, seed);
    }

    let metrics = scale::deterministic_metrics(seed);
    let out = args.text("--out").unwrap_or("BENCH_scale.json");
    super::write_artifact(out, &metrics.to_json())?;
    println!(
        "scale: wrote {} metrics to {out} (seed {seed})",
        metrics.len()
    );
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
    let limit = floor * (1.0 - ENGINE_BUDGET);
    println!(
        "engine smoke: wheel {measured:.0} events/sec vs committed floor {floor:.0} \
         (fail below {limit:.0})"
    );
    if measured < limit {
        return Err(format!(
            "scale --check-engine FAILED: {measured:.0} events/sec is more than \
             {:.0}% below the committed floor {floor:.0}",
            ENGINE_BUDGET * 100.0
        ));
    }
    Ok(())
}
