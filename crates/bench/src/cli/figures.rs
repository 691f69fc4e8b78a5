//! `fig <1..12>`: one section per paper figure or table, printing the
//! same rows/series the paper plots.

use pk_bench::{header, print_cpu_breakdown, print_ratio, print_throughput};
use pk_kernel::{Personality, FIXES, LINES_ADDED, LINES_REMOVED};
use pk_percpu::CoreId;
use pk_sim::SweepPoint;
use pk_sloppy::SloppyCounter;
use pk_workloads::metis::{self, MetisVariant};
use pk_workloads::pedsort::{self, PedsortVariant};
use pk_workloads::postgres::{self, PgVariant};
use pk_workloads::{apache, exim, gmake, memcached, summary};

type Series = Vec<(String, Vec<SweepPoint>)>;

/// Runs `figure` under each variant and prints the throughput table.
fn throughput<V: Copy>(
    unit: &str,
    scale: f64,
    variants: &[V],
    label: impl Fn(V) -> &'static str,
    figure: impl Fn(V) -> Vec<SweepPoint>,
) -> Series {
    let series: Series = variants
        .iter()
        .map(|&v| (label(v).to_string(), figure(v)))
        .collect();
    print_throughput(unit, scale, &series);
    series
}

/// The stock-vs-PK throughput table most application figures open with.
fn stock_vs_pk(unit: &str, scale: f64, figure: fn(Personality) -> Vec<SweepPoint>) -> Series {
    throughput(
        unit,
        scale,
        &[Personality::Stock, Personality::Pk],
        Personality::legend,
        figure,
    )
}

/// The closing scalability lines, one per series.
fn ratios(series: &Series) {
    for (label, sweep) in series {
        print_ratio(label, sweep);
    }
}

/// Figure 1: the table of 16 kernel scalability problems, affected
/// applications, and fixes.
pub fn fig1() {
    header(
        "Figure 1",
        "Linux scalability problems encountered by MOSBENCH applications \
         and their corresponding fixes.",
    );
    for fix in FIXES {
        let apps: Vec<String> = fix.apps.iter().map(|a| a.to_string()).collect();
        println!("{}   [{}]", fix.name, apps.join(", "));
        println!("  {}", fix.problem);
        println!("  => {}", fix.solution);
        println!();
    }
    println!(
        "The fixes add {LINES_ADDED} lines of code to Linux and remove \
         {LINES_REMOVED} lines of code from Linux."
    );
}

/// Figure 2: the sloppy-counter operation trace — a thread on core 0
/// acquires a reference from the central counter, releases it locally,
/// and a second thread on core 0 reacquires the spare without touching
/// the central counter.
pub fn fig2() {
    fn state(c: &SloppyCounter, step: &str) {
        println!(
            "{step:<55} central={} spares={} in-use={} (central ops so far: {})",
            c.central(),
            c.spares(),
            c.in_use(),
            c.op_counts().0
        );
    }
    header(
        "Figure 2",
        "The kernel using a sloppy counter for dentry reference counting.",
    );
    let c = SloppyCounter::new(2);
    state(&c, "initial");
    c.acquire(CoreId(0), 1);
    state(&c, "core 0 acquires a reference from the central counter");
    c.release(CoreId(0), 1);
    state(
        &c,
        "core 0 releases it as a local spare (central untouched)",
    );
    c.acquire(CoreId(0), 1);
    state(
        &c,
        "another thread on core 0 takes the spare (central untouched)",
    );
    c.release(CoreId(0), 1);
    state(&c, "released again: still banked locally");
    let exact = c.reconcile();
    state(&c, "reconcile (the expensive dealloc-time operation)");
    println!("\nexact value after reconcile: {exact}");
    assert_eq!(
        c.op_counts().0,
        2,
        "exactly one central acquire + reconcile"
    );
}

/// Figure 3: the MOSBENCH summary — per-core throughput at 48 cores
/// relative to one core, stock vs PK, for all seven applications.
pub fn fig3() {
    header(
        "Figure 3",
        "MOSBENCH results summary. 1.0 indicates perfect scalability \
         (48 cores yielding a speedup of 48). Each pair of bars compares \
         an application before and after the kernel and application \
         modifications.",
    );
    println!("{:<12} {:>8} {:>8}", "app", "Stock", "PK");
    for b in &summary::figure3(48) {
        let bar = |v: f64| "#".repeat((v * 40.0).round() as usize);
        println!("{:<12} {:>8.2} {:>8.2}", b.app, b.stock, b.pk);
        println!("{:<12} {}", "", bar(b.stock));
        println!("{:<12} {}", "", bar(b.pk));
    }
    println!(
        "\nMost applications scale significantly better with the \
         modifications; all fall short of perfect scalability."
    );
}

/// Figure 4: Exim throughput and runtime breakdown.
pub fn fig4() {
    header(
        "Figure 4",
        "Exim throughput (messages/sec/core) and CPU time (usec/message), 1-48 cores.",
    );
    let series = stock_vs_pk("messages/sec/core", 1.0, exim::figure4);
    print_cpu_breakdown("PK", "usec/message", 1.0, &series[1].1);
    println!();
    ratios(&series);
}

/// Figure 5: memcached throughput.
pub fn fig5() {
    header(
        "Figure 5",
        "memcached throughput (requests/sec/core), 1-48 cores. The PK \
         decline past 16 cores is the IXGBE card, not the kernel.",
    );
    let series = stock_vs_pk("requests/sec/core", 1.0, memcached::figure5);
    println!();
    ratios(&series);
}

/// Figure 6: Apache throughput and runtime breakdown.
pub fn fig6() {
    header(
        "Figure 6",
        "Apache throughput (requests/sec/core) and CPU time \
         (usec/request), 1-48 cores. Past 36 cores the card's receive \
         FIFO overflows.",
    );
    let series = stock_vs_pk("requests/sec/core", 1.0, apache::figure6);
    let pk = &series[1].1;
    print_cpu_breakdown("PK", "usec/request", 1.0, pk);
    let idle48 = pk.last().expect("non-empty sweep").idle_fraction;
    println!(
        "\nPK server idle time at 48 cores: {:.0}% (paper reports 18%)",
        idle48 * 100.0
    );
    println!();
    ratios(&series);
}

const PG_VARIANTS: [PgVariant; 3] = [PgVariant::Stock, PgVariant::StockModPg, PgVariant::PkModPg];

/// Figure 7: PostgreSQL read-only workload.
pub fn fig7() {
    header(
        "Figure 7",
        "PostgreSQL read-only workload throughput (queries/sec/core) and \
         runtime breakdown, 1-48 cores.",
    );
    let series = throughput(
        "queries/sec/core",
        1.0,
        &PG_VARIANTS,
        PgVariant::label,
        |v| postgres::figure(v, true),
    );
    print_cpu_breakdown("Stock + mod PG", "usec/query", 1.0, &series[1].1);
    print_cpu_breakdown("PK + mod PG", "usec/query", 1.0, &series[2].1);
    println!();
    ratios(&series);
}

/// Figure 8: PostgreSQL 95%/5% read/write workload.
pub fn fig8() {
    header(
        "Figure 8",
        "PostgreSQL read/write workload throughput (queries/sec/core) and \
         runtime breakdown, 1-48 cores. Unmodified PostgreSQL peaks at 28 \
         cores on its own 16-mutex lock manager.",
    );
    let series = throughput(
        "queries/sec/core",
        1.0,
        &PG_VARIANTS,
        PgVariant::label,
        |v| postgres::figure(v, false),
    );
    print_cpu_breakdown("Stock (unmodified PG)", "usec/query", 1.0, &series[0].1);
    println!();
    ratios(&series);
}

/// Figure 9: gmake throughput and runtime breakdown.
pub fn fig9() {
    header(
        "Figure 9",
        "gmake throughput (builds/hour/core) and CPU time (sec/build), \
         1-48 cores. gmake scales well on both kernels (35x at 48 cores).",
    );
    // Builds/hour = per-second * 3600.
    let series = stock_vs_pk("builds/hour/core", 3600.0, gmake::figure9);
    let pk = &series[1].1;
    // Seconds/build = usec * 1e-6.
    print_cpu_breakdown("PK", "sec/build", 1e-6, pk);
    println!();
    let speedup = pk.last().expect("non-empty sweep").total_per_sec / pk[0].total_per_sec;
    println!("PK speedup at 48 cores: {speedup:.1}x");
    ratios(&series);
}

/// Figure 10: pedsort throughput and runtime breakdown.
pub fn fig10() {
    header(
        "Figure 10",
        "pedsort throughput (jobs/hour/core) and CPU time (sec/job), \
         1-48 cores: threads vs processes vs round-robin placement.",
    );
    let series = throughput(
        "jobs/hour/core",
        3600.0,
        &[
            PedsortVariant::Threads,
            PedsortVariant::Procs,
            PedsortVariant::ProcsRoundRobin,
        ],
        PedsortVariant::label,
        pedsort::figure10,
    );
    print_cpu_breakdown("Stock + Procs RR", "sec/job", 1e-6, &series[2].1);
    print_cpu_breakdown("Stock + Threads", "sec/job", 1e-6, &series[0].1);
    println!();
    ratios(&series);
}

/// Figure 11: Metis throughput and runtime breakdown.
pub fn fig11() {
    header(
        "Figure 11",
        "Metis throughput (jobs/hour/core) and CPU time (sec/job), \
         1-48 cores: 4 KB pages vs 2 MB super-pages. With super-pages the \
         reduce phase runs into DRAM bandwidth (50.0 of 51.5 GB/s).",
    );
    let series = throughput(
        "jobs/hour/core",
        3600.0,
        &[MetisVariant::StockSmallPages, MetisVariant::PkSuperPages],
        MetisVariant::label,
        metis::figure11,
    );
    print_cpu_breakdown("Stock + 4KB pages", "sec/job", 1e-6, &series[0].1);
    print_cpu_breakdown("PK + 2MB pages", "sec/job", 1e-6, &series[1].1);
    println!();
    ratios(&series);
}

/// Figure 12: the residual bottleneck summary.
pub fn fig12() {
    header(
        "Figure 12",
        "Summary of the current bottlenecks in MOSBENCH, attributed \
         either to hardware (HW) or application structure (App).",
    );
    println!(
        "{:<12} {:<42} model diagnostic at 48 cores",
        "Application", "Bottleneck"
    );
    for row in summary::figure12() {
        println!("{:<12} {:<42} {}", row.app, row.description, row.observed);
    }
}
