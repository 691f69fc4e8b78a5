//! `report profile`: cycle-attribution tables for all seven MOSBENCH
//! workloads under the four kernel personalities, plus the CI gates on
//! the paper's Exim headline (§5.2) and the §7 "past 48 cores"
//! generation-2 inversions.
//!
//! For each workload × {stock, coarse, PK, adaptive} this traces a
//! discrete-event run and prints the paper-style "top functions by % of
//! cycles" table (the adaptive column first converges the
//! `pk_adapt::AdaptController` and profiles its promoted config).
//!
//! Gates, selected by core count:
//! * **≤ 48 cores** — the Exim diagnosis: vfsmount-table lock spans
//!   must dominate stock exclusive cycles and disappear under PK.
//! * **> 48 cores** — the generation-2 inversions: for at least two
//!   workloads, the named gen-2 structure (path-walk refs, SNZI-less
//!   refcounts, flow-director table, page freelist) must hold ≥ 40% of
//!   stock cycles and drop to ≤ 5% under PK's new fixes.
//!
//! A functional pass runs the real Exim driver under the global tracer
//! so the lock/syscall/RCU hook plumbing is exercised end to end
//! (skipped when `--workloads` filters Exim out).
//!
//! Artifacts, each written only when its flag is given:
//! * `--json PATH` — deterministic attribution summary, byte-identical
//!   for a fixed `--seed`.
//! * `--perfetto PATH` — Chrome `trace_event` JSON of the stock Exim
//!   run, loadable in Perfetto / chrome://tracing.
//!
//! `--workloads a,b,c` restricts the roster (CI's `scale1024` job runs
//! only the two worst collapsing workloads at `--topology 64x16`).
//! `--ops` defaults to [`profile::OPS_PER_CORE`] at ≤ 48 cores and
//! scales down inversely with the core count above that, keeping the
//! total traced event volume (and the ring memory) roughly constant.

use super::write_artifact;
use pk_bench::args::{Args, Kind, Spec};
use pk_bench::{header, profile, resolve};
use pk_kernel::Personality;
use pk_percpu::CoreId;
use pk_workloads::exim::EximDriver;
use pk_workloads::roster;

pub const SPEC: Spec = Spec::flags(
    "report profile",
    &[
        ("--seed", Kind::Num),
        ("--cores", Kind::Cores(48)),
        ("--ops", Kind::Num),
        ("--json", Kind::Text),
        ("--perfetto", Kind::Text),
        ("--topology", Kind::Topology),
        ("--workloads", Kind::ListOf(&roster::NAMES)),
    ],
);

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed").unwrap_or(42);
    let cores = args.cores("--cores");
    let machine = args.machine();
    // Keep total event volume roughly constant as cores grow: 400
    // ops/core at 48 cores ≈ 40 ops/core at 1024 with the same ring
    // memory. An explicit --ops always wins.
    let ops = args.get("--ops").unwrap_or_else(|| {
        if cores <= 48 {
            profile::OPS_PER_CORE
        } else {
            (profile::OPS_PER_CORE * 48 / cores as u64).max(20)
        }
    });
    // Roster order, filtered — keeps the JSON artifact deterministic
    // regardless of the order given on the command line.
    let selected: Option<Vec<String>> = args.list("--workloads");
    let names: Vec<&str> = roster::NAMES
        .iter()
        .copied()
        .filter(|n| selected.as_ref().is_none_or(|s| s.iter().any(|w| w == n)))
        .collect();

    header(
        "Cycle attribution (pk-trace)",
        &format!("{cores} simulated cores, {ops} ops/core, seed {seed}"),
    );

    let mut runs = Vec::new();
    // (stock, pk) attribution per workload, in roster order.
    let mut pairs: Vec<(profile::WorkloadAttribution, profile::WorkloadAttribution)> = Vec::new();
    let mut exim_stock_events = Vec::new();
    for &name in &names {
        let mut stock_attr = None;
        for p in Personality::ALL {
            let resolved = resolve(p, name, cores, machine, seed)
                .expect("the parser admits only roster workloads");
            let (attr, events) = profile::trace(&resolved, name, ops, seed);
            match &resolved.adapt {
                None => println!("--- {name} / {} ---", attr.config),
                Some(out) => println!(
                    "--- {name} / adaptive ({} promoted in {} epochs) ---",
                    out.config.enabled_count(),
                    out.epochs
                ),
            }
            print!("{}", attr.table);
            if attr.dropped_events > 0 {
                println!(
                    "  (! {} events dropped to ring overflow)",
                    attr.dropped_events
                );
            }
            match p {
                Personality::Stock => {
                    if name == "exim" {
                        exim_stock_events = events;
                    }
                    stock_attr = Some(attr.clone());
                }
                Personality::Pk => {
                    let stock = stock_attr.take().expect("stock runs before pk");
                    pairs.push((stock, attr.clone()));
                }
                Personality::Coarse | Personality::Adaptive => {}
            }
            runs.push(attr);
        }
    }

    if names.contains(&"exim") {
        functional_exim_pass();
    }

    let inversion = pairs
        .iter()
        .find(|(stock, _)| stock.workload == "exim")
        .map(|(stock, pk)| {
            let inv = profile::exim_inversion(stock, pk);
            println!("\nExim vfsmount attribution at {cores} cores:");
            println!(
                "  stock: {:5.1}% of cycles (top class: {})",
                100.0 * inv.stock_share,
                inv.stock_top
            );
            println!("  pk:    {:5.1}% of cycles", 100.0 * inv.pk_share);
            inv
        });

    let gen2: Vec<profile::Gen2Inversion> = pairs
        .iter()
        .filter_map(|(stock, pk)| profile::gen2_inversion(stock, pk))
        .collect();
    if cores > 48 && !gen2.is_empty() {
        println!("\nGeneration-2 inversions at {cores} cores:");
        for g in &gen2 {
            println!(
                "  {:10} {:28} stock {:5.1}% -> pk {:4.1}%  [{}]",
                g.workload,
                g.structure,
                100.0 * g.stock_share.min(1.0),
                100.0 * g.pk_share,
                if g.observed {
                    "observed"
                } else {
                    "NOT observed"
                }
            );
        }
    }

    if let Some(path) = args.text("--json") {
        let json = profile::report_json(seed, cores, &runs, inversion.as_ref(), &gen2);
        write_artifact(path, &json)?;
        println!("wrote {path}");
    }
    if let Some(path) = args
        .text("--perfetto")
        .filter(|_| !exim_stock_events.is_empty())
    {
        write_artifact(path, &pk_trace::chrome_trace_json(&exim_stock_events))?;
        println!("wrote {path} ({} events)", exim_stock_events.len());
    }

    // Gate selection: at the paper's scale the Exim headline is the
    // gate; past 48 cores the gen-2 inversions are.
    if cores <= 48 {
        match &inversion {
            Some(inv) if inv.observed => {
                println!(
                    "PASS: stock cycles concentrate in the vfsmount lock and the \
                     attribution moves off it under PK"
                );
            }
            Some(_) => {
                return Err(format!(
                    "FAIL: expected vfsmount dominance >= {:.0}% on stock and <= {:.0}% under PK",
                    100.0 * profile::STOCK_DOMINANCE,
                    100.0 * profile::PK_CEILING
                ));
            }
            None => println!("exim filtered out; vfsmount gate skipped"),
        }
    } else {
        let observed = gen2.iter().filter(|g| g.observed).count();
        let required = gen2.len().min(2);
        if observed >= required && required > 0 {
            println!(
                "PASS: {observed}/{} gen-2 structures dominate stock and vanish under PK",
                gen2.len()
            );
        } else {
            return Err(format!(
                "FAIL: {observed}/{} gen-2 inversions observed (need >= {required}): \
                 expected the named structure >= {:.0}% of stock cycles and <= {:.0}% under PK",
                gen2.len(),
                100.0 * profile::STOCK_DOMINANCE,
                100.0 * profile::PK_CEILING
            ));
        }
    }
    Ok(())
}

/// Drives the real Exim substrate under the process-global tracer: the
/// lock, RCU, syscall, and fault hooks all feed the same rings the
/// profiler folds, so this catches plumbing rot the DES path cannot.
fn functional_exim_pass() {
    let tracer = pk_trace::install_global(pk_trace::DEFAULT_RING_CAPACITY);
    let _core = pk_percpu::registry::current_or_register();
    let driver = EximDriver::new(Personality::Stock, 4).expect("exim boots");
    for conn in 0..4 {
        driver
            .run_connection(CoreId(0), conn)
            .expect("fault-free delivery");
    }
    let events = tracer.drain();
    let p = pk_trace::Profile::build(&events);
    println!("--- exim functional driver (driver clock domain) ---");
    print!("{}", p.table(10));
    assert!(
        !events.is_empty(),
        "global tracer hooks recorded nothing — wiring broke"
    );
}
