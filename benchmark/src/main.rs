//! The repo's benchmark: four host-cost workloads measured from outside
//! the layer crates. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! pk-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out DIR]
//! pk-benchmark compare <dirA> <dirB>
//! ```

mod compare;
mod harness;
mod json;
mod kernel_apps;
mod paper_sweep;
mod primitives;
mod serving_tail;

use harness::{Ledger, Recorder, Reduce, Reduced, Watchdog};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The registration the driver reads; the program takes every metric's
/// unit (and `compare` every bound) from it, so the two cannot drift.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 4] = ["paper_sweep", "serving_tail", "kernel_apps", "primitives"];

/// Set-ups per run; `setup_s` is the best of them.
const SETUPS: usize = 7;
/// A best-of-N is never taken over fewer reps than this.
const MIN_REPS: usize = 5;
/// Recorded wall time of a run beyond its `--seconds` (verification,
/// the other workloads' sections of a traced run), in seconds.
const RUN_OVERHEAD_S: f64 = 8.0;
/// Untraced reps a traced run pairs with its first traced reps, as
/// the base of `bench.trace_overhead_ratio`.
const PLAIN_REPS: usize = 5;

/// Calls the generic function `$f::<W>(args..)` for the workload type
/// named `$name` (names are checked when the arguments are parsed).
macro_rules! for_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            "paper_sweep" => $f::<paper_sweep::PaperSweep>($($arg),*),
            "serving_tail" => $f::<serving_tail::ServingTail>($($arg),*),
            "kernel_apps" => $f::<kernel_apps::KernelApps>($($arg),*),
            _ => $f::<primitives::Primitives>($($arg),*),
        }
    };
}

/// Simulated statistics and exact counters of a run, by name; what the
/// golden files pin.
pub type Stats = BTreeMap<String, String>;

/// Which end-to-end rate a slice of a rep counts towards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Side {
    /// The workload's cheap-per-op half.
    Light,
    /// Its expensive-per-op half.
    Heavy,
    /// Part of the rep's wall time only.
    Other,
}

/// One timed piece of a rep: the same `ops` of the same work in every
/// rep of a run, so its times across reps are samples of one quantity.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub side: Side,
    pub ops: f64,
    pub secs: f64,
}

/// What one fixed-work rep reports.
#[derive(Debug, Clone)]
pub struct Rep {
    pub wall_s: f64,
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
}

/// A workload: fixed inputs made from the seed, a fixed batch of work
/// per rep, extra probes for the traced run, and checks of its outputs.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Everything before the first timed rep: inputs from `seed`,
    /// models, kernels, populated caches, and a warm-up slice.
    fn setup(seed: u64, smoke: bool) -> Self;
    /// One batch of fixed work. Per-layer samples go to `ledger`.
    fn rep(&mut self, rec: &Recorder, ledger: &mut Ledger) -> Rep;
    /// The measurements only a traced run makes, once per traced rep.
    /// Returns (attempted, failed).
    fn probes(&mut self, rec: &Recorder, ledger: &mut Ledger) -> (u64, u64);
    /// Fixes the ledger values that reduce over all reps, if any.
    fn finish(&mut self, _ledger: &mut Ledger) {}
    /// Checks the outputs and fills `stats`. Returns (attempted, failed).
    fn verify(&mut self, stats: &mut Stats) -> (u64, u64);
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: pk-benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       pk-benchmark compare <dirA> <dirB>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_run(args: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--workload" => a.workload = value().to_string(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    let seconds_ok = a.seconds > 0.0 && a.seconds <= 60.0;
    if !WORKLOADS.contains(&a.workload.as_str()) || !seconds_ok {
        usage();
    }
    a
}

/// Tells glibc's allocator to keep freed memory: no `mmap` per large
/// allocation, no trimming of the heap top. Otherwise every rep of the
/// 1 024-core simulation and of the 50 MB trace rings maps, faults in
/// and unmaps its memory again, and the timed reps measure the host
/// kernel's page-fault path (a tenth of run-to-run spread on the traced
/// chain) instead of this repository's code.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tunable setter; it takes
    // two plain integers, and it is called before the first thread is
    // spawned.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() {
    keep_freed_memory();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("run") => run(&parse_run(&argv[1..])),
        Some("compare") if argv.len() == 3 => {
            compare::compare(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        _ => usage(),
    };
    std::process::exit(code)
}

/// A metric ready to print: value, unit from `BENCHMARK.json`, and the
/// number of samples behind the value.
struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
    counter: bool,
}

/// (name, unit, better) for one list (`end_to_end` or `per_layer`).
pub fn declared(list: &str) -> Vec<(String, String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(list)
        .expect("BENCHMARK.json has the list")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(json::Json::as_str).expect("metric field");
            (
                field("name").to_string(),
                field("unit").to_string(),
                field("better").to_string(),
            )
        })
        .collect()
}

/// How each per-layer metric reduces: times to their smallest sample
/// and rates to their largest (the quiet-machine estimate); a ratio of
/// two measured quantities has no such direction and takes its median.
fn reductions() -> BTreeMap<String, Reduce> {
    declared("per_layer")
        .into_iter()
        .map(|(name, unit, better)| {
            let how = match (unit.as_str(), better.as_str()) {
                ("ratio", _) => Reduce::Median,
                (_, "lower") => Reduce::Min,
                _ => Reduce::Max,
            };
            (name, how)
        })
        .collect()
}

/// Pairs the measured values with the declared names and units. A
/// declared metric that was not measured, or a measured one that was
/// not declared, is a bug in this crate, so it panics.
fn metrics_for(list: &str, mut measured: BTreeMap<String, Reduced>) -> Vec<Metric> {
    let out: Vec<Metric> = declared(list)
        .into_iter()
        .map(|(name, unit, _)| {
            let r = measured
                .remove(&name)
                .unwrap_or_else(|| panic!("{name} is declared in BENCHMARK.json but not measured"));
            assert!(r.value.is_finite(), "{name} is not finite: {}", r.value);
            Metric {
                name,
                value: r.value,
                unit,
                samples: r.samples,
                counter: r.counter,
            }
        })
        .collect();
    assert!(
        measured.is_empty(),
        "measured but not declared in BENCHMARK.json: {:?}",
        measured.keys().collect::<Vec<_>>()
    );
    out
}

struct Section {
    reps: usize,
    attempted: u64,
    failed: u64,
    /// Best wall time of the fixed-work part of a rep.
    rep_wall_s: f64,
    /// Median rep wall over best rep wall: how noisy the host was.
    noise: f64,
}

/// Runs workload `W` for a traced run: one set-up, then traced reps
/// (fixed work plus probes) for `budget_s`, or a single rep without a
/// budget.
fn traced_section<W: Workload>(
    args: &Args,
    rec: &Recorder,
    ledger: &mut Ledger,
    budget_s: Option<f64>,
) -> Section {
    let mut w = W::setup(args.seed, args.smoke);
    let (mut attempted, mut failed) = (0, 0);

    // For the home workload, each of the first few traced reps follows
    // an untraced one: the quotients of those pairs give the tracing
    // overhead free of the host's drift.
    let mut pairs = Vec::new();
    let pairs_wanted = match budget_s {
        None => 0,
        Some(_) if args.smoke => 1,
        Some(_) => PLAIN_REPS,
    };

    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let plain = (pairs.len() < pairs_wanted)
            .then(|| w.rep(&Recorder::new(false), &mut Ledger::default()).wall_s);
        rec.set_rep(walls.len() as u32);
        let (r, _) = rec.time(W::NAME, 1, || {
            let r = w.rep(rec, ledger);
            let (pa, pf) = rec
                .time(&format!("{}.probes", W::NAME), 1, || w.probes(rec, ledger))
                .0;
            attempted += r.attempted + pa;
            failed += r.failed + pf;
            r
        });
        walls.push(r.wall_s);
        pairs.extend(plain.map(|p| r.wall_s / p));
        let enough = match budget_s {
            None => true,
            Some(_) if args.smoke => true,
            Some(s) => walls.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if enough {
            break;
        }
    }
    w.finish(ledger);
    let rep_wall_s = harness::best_time(&walls);
    if !pairs.is_empty() {
        ledger.fix(
            "bench.trace_overhead_ratio",
            harness::median(&pairs),
            pairs.len(),
        );
    }
    let (va, vf) = verified(&mut w, args);
    Section {
        reps: walls.len(),
        attempted: attempted + va,
        failed: failed + vf,
        rep_wall_s,
        noise: harness::median(&walls) / rep_wall_s,
    }
}

/// Verifies `w`'s outputs; at seed 42 and full size also against the
/// golden file, byte for byte.
fn verified<W: Workload>(w: &mut W, args: &Args) -> (u64, u64) {
    let mut stats = Stats::new();
    let (attempted, mut failed) = w.verify(&mut stats);
    if args.seed == 42 && !args.smoke {
        let text = render_stats(&stats);
        let path = args.out.join(format!("{}.seed42.json", W::NAME));
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("{}: cannot write {}: {e}", W::NAME, path.display());
        }
        if text != golden(W::NAME) {
            eprintln!(
                "{}: simulated statistics differ from benchmark/golden/{}.seed42.json \
                 (this run's are in {})",
                W::NAME,
                W::NAME,
                path.display()
            );
            failed += 1;
        }
    }
    (attempted + 1, failed)
}

fn golden(workload: &str) -> &'static str {
    match workload {
        "paper_sweep" => include_str!("../golden/paper_sweep.seed42.json"),
        "serving_tail" => include_str!("../golden/serving_tail.seed42.json"),
        "kernel_apps" => include_str!("../golden/kernel_apps.seed42.json"),
        "primitives" => include_str!("../golden/primitives.seed42.json"),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// Flat JSON, one sorted `"key": "value"` per line, so a golden
/// mismatch shows as a one-line diff.
fn render_stats(stats: &Stats) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in stats.iter().enumerate() {
        let comma = if i + 1 == stats.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  \"{}\": \"{}\"{comma}",
            json::escape(k),
            json::escape(v)
        );
    }
    out.push_str("}\n");
    out
}

fn untraced<W: Workload>(args: &Args, rec: &Recorder) -> (Vec<Metric>, Section) {
    let timed_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let w = W::setup(args.seed, args.smoke);
        setups.push(t.elapsed().as_secs_f64());
        w
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = timed_setup(&mut setups);

    let mut ledger = Ledger::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let r = w.rep(rec, &mut ledger);
        attempted += r.attempted;
        failed += r.failed;
        reps.push(r);
        let elapsed = started.elapsed().as_secs_f64();
        if args.smoke || (reps.len() >= MIN_REPS && elapsed >= args.seconds) {
            break;
        }
        // The set-ups are spread over the run, like the reps, so that a
        // noisy second at its start cannot spoil them all: the workload
        // is dropped and built again, from the same seed.
        if setups.len() < SETUPS && elapsed >= args.seconds * setups.len() as f64 / SETUPS as f64 {
            drop(w);
            w = timed_setup(&mut setups);
        }
    }
    failed += ledger.counter_mismatches.len() as u64;
    for m in &ledger.counter_mismatches {
        eprintln!("{}: counter moved between reps: {m}", W::NAME);
    }
    let (va, vf) = verified(&mut w, args);

    // Each slice's best time across reps; the rep and the two paths are
    // rebuilt from those.
    let quiet: Vec<f64> = (0..reps[0].slices.len())
        .map(|i| {
            let samples: Vec<f64> = reps.iter().map(|r| r.slices[i].secs).collect();
            harness::best_time(&samples)
        })
        .collect();
    let rate = |side: Side| {
        harness::geomean(
            reps[0]
                .slices
                .iter()
                .zip(&quiet)
                .filter(|(s, _)| s.side == side)
                .map(|(s, q)| s.ops / q),
        )
    };
    let reduced = |value: f64, samples: usize| Reduced {
        value,
        samples,
        counter: false,
    };
    let rep_wall_s: f64 = quiet.iter().sum();
    let measured = BTreeMap::from([
        (
            "setup_s".to_string(),
            reduced(harness::best_time(&setups), setups.len()),
        ),
        (
            "rep_wall_ms".to_string(),
            reduced(rep_wall_s * 1e3, reps.len()),
        ),
        (
            "light_path_per_s".to_string(),
            reduced(rate(Side::Light), reps.len()),
        ),
        (
            "heavy_path_per_s".to_string(),
            reduced(rate(Side::Heavy), reps.len()),
        ),
        (
            "peak_rss_mb".to_string(),
            reduced(harness::peak_rss_mb(), 1),
        ),
    ]);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let section = Section {
        reps: reps.len(),
        attempted: attempted + va,
        failed: failed + vf,
        rep_wall_s,
        noise: harness::median(&walls) / harness::best_time(&walls),
    };
    (metrics_for("end_to_end", measured), section)
}

fn traced(args: &Args, rec: &Recorder) -> (Vec<Metric>, Section) {
    let mut ledger = Ledger::default();
    let mut home = None;
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        let budget = (name == args.workload).then_some(args.seconds);
        let s = for_workload!(name, traced_section(args, rec, &mut ledger, budget));
        attempted += s.attempted;
        failed += s.failed;
        if budget.is_some() {
            home = Some(s);
        }
    }
    failed += ledger.counter_mismatches.len() as u64;
    for m in &ledger.counter_mismatches {
        eprintln!("counter moved between reps: {m}");
    }
    let home = home.expect("the home workload is one of WORKLOADS");
    let section = Section {
        attempted,
        failed,
        ..home
    };
    let how = reductions();
    let reduced = ledger.reduce(|name| {
        *how.get(name)
            .unwrap_or_else(|| panic!("{name} is measured but not declared in BENCHMARK.json"))
    });
    (metrics_for("per_layer", reduced), section)
}

fn run(args: &Args) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return 2;
    }
    let rec = Arc::new(Recorder::new(args.trace));
    let trace_path = args.out.join(format!("trace.{}.json", args.workload));
    // Ten times the recorded run time, inside the driver's 180 s.
    let limit = (10.0 * (args.seconds + RUN_OVERHEAD_S)).min(170.0);
    let meta = |reps: usize| harness::host_facts(args.seed, reps);
    let watchdog = Watchdog::arm(
        Duration::from_secs_f64(limit),
        Arc::clone(&rec),
        trace_path.clone(),
        meta(0),
    );

    let (metrics, section) = if args.trace {
        traced(args, &rec)
    } else {
        for_workload!(args.workload.as_str(), untraced(args, &rec))
    };
    watchdog.disarm();

    let host = meta(section.reps);
    if args.trace {
        if let Err(e) = rec.write_json(&trace_path, &host) {
            eprintln!("cannot write {}: {e}", trace_path.display());
            return 2;
        }
    }

    let correct = section.failed == 0;
    println!(
        "workload {}  seed {}  reps {}  best rep {:.1} ms  median/best {:.3}  trace {}",
        args.workload,
        args.seed,
        section.reps,
        section.rep_wall_s * 1e3,
        section.noise,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!(
            "{:<44} {:>18.6} {:<9} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }

    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let last_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        section.attempted, section.failed
    );

    let mut detail = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(
            detail,
            "  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"counter\": {}}}{comma}",
            m.name, m.value, m.unit, m.samples, m.counter
        );
    }
    let results = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"smoke\": {}, \"host\": {host}, \"noise\": {},\n\
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {},\n\"metrics\": {{\n{detail}}}}}\n",
        args.workload, args.trace, args.smoke, section.noise, section.attempted, section.failed
    );
    let results_path = args.out.join(if args.trace {
        format!("layers.{}.seed{}.json", args.workload, args.seed)
    } else {
        format!("results.{}.seed{}.json", args.workload, args.seed)
    });
    if let Err(e) = std::fs::write(&results_path, results) {
        eprintln!("cannot write {}: {e}", results_path.display());
        return 2;
    }

    println!("{last_line}");
    i32::from(!correct)
}
