//! End-to-end checks that the harness reproduces every figure's headline
//! claims, and that regeneration is fully deterministic.

use mosbench::kernel::Personality;
use mosbench::workloads::{apache, exim, gmake, memcached, metis, pedsort, postgres, summary};

/// The paper's one-sentence summary of Figure 3: "except for gmake, all
/// applications trigger scalability bottlenecks inside a recent Linux
/// kernel" and "most of the applications scale significantly better with
/// our modifications."
#[test]
fn figure3_headline() {
    let bars = summary::figure3(48);
    for b in &bars {
        if b.app == "gmake" {
            assert!(b.stock > 0.6, "gmake scales well even stock: {}", b.stock);
        } else {
            assert!(
                b.stock < 0.5,
                "{} must bottleneck on the stock kernel: {}",
                b.app,
                b.stock
            );
            assert!(
                b.pk > 1.5 * b.stock,
                "{} must improve significantly: {} → {}",
                b.app,
                b.stock,
                b.pk
            );
        }
    }
}

/// §7 "past 48 cores": the Figure-3 claims re-evaluated at 96, 192,
/// and 1024 cores on matching topologies. Stock degrades monotonically
/// with scale for every application; gmake — the one workload that
/// scaled at 48 — collapses by 192 cores (its global page freelist is
/// the generation-2 bottleneck); and at 1024 cores PK's fixes are
/// worth at least an order of magnitude on every workload.
#[test]
fn figure3_claims_past_48_cores() {
    use mosbench::sim::MachineSpec;
    let scales = [
        (8usize, 6usize, 48usize),
        (16, 6, 96),
        (16, 12, 192),
        (64, 16, 1024),
    ];
    let sweeps: Vec<_> = scales
        .iter()
        .map(|&(s, c, cores)| {
            let machine = MachineSpec::with_topology(s, c).expect("valid topology");
            (cores, summary::figure3_on(cores, machine))
        })
        .collect();
    // The bars come from the roster, so the paper's before/after
    // application pairing is whatever `roster::pairing` says. Pin it:
    // each paired bar must equal the figure's own variant model, bit
    // for bit.
    {
        use metis::MetisVariant::{PkSuperPages, StockSmallPages};
        use mosbench::sim::{CoreSweep, WorkloadModel};
        use pedsort::PedsortVariant::{ProcsRoundRobin, Threads};
        use postgres::PgVariant;
        let ratio = |m: &dyn WorkloadModel| CoreSweep::figure3_ratio(m, 48);
        let paired = [
            (
                "PostgreSQL",
                ratio(&postgres::PostgresModel::new(PgVariant::Stock, true)),
                ratio(&postgres::PostgresModel::new(PgVariant::PkModPg, true)),
            ),
            (
                "pedsort",
                ratio(&pedsort::PedsortModel::new(Threads)),
                ratio(&pedsort::PedsortModel::new(ProcsRoundRobin)),
            ),
            (
                "Metis",
                ratio(&metis::MetisModel::new(StockSmallPages)),
                ratio(&metis::MetisModel::new(PkSuperPages)),
            ),
        ];
        for (app, before, after) in paired {
            let bar = sweeps[0].1.iter().find(|b| b.app == app).unwrap();
            assert_eq!(bar.stock, before, "{app}: stock pairing drifted");
            assert_eq!(bar.pk, after, "{app}: pk pairing drifted");
        }
    }
    for (i, (cores, bars)) in sweeps.iter().enumerate() {
        for (j, b) in bars.iter().enumerate() {
            // PK never loses to stock, at any scale.
            assert!(
                b.pk >= b.stock,
                "{} at {cores}: pk {} < stock {}",
                b.app,
                b.pk,
                b.stock
            );
            // Stock scalability only degrades as the machine grows.
            if i > 0 {
                let prev = &sweeps[i - 1].1[j];
                assert!(
                    b.stock <= prev.stock,
                    "{} stock improved from {} to {cores} cores",
                    b.app,
                    sweeps[i - 1].0
                );
            }
            // Past 48 cores every app but gmake is collapsed on stock;
            // gmake holds out until its page freelist saturates at 192.
            if *cores >= 96 && b.app != "gmake" {
                assert!(b.stock < 0.2, "{} at {cores}: stock {}", b.app, b.stock);
            }
            if *cores >= 192 {
                assert!(b.stock < 0.1, "{} at {cores}: stock {}", b.app, b.stock);
            }
            // At the largest scale the generation-2 fixes are worth at
            // least an order of magnitude everywhere.
            if *cores == 1024 {
                assert!(
                    b.pk > 10.0 * b.stock,
                    "{} at {cores}: pk {} vs stock {}",
                    b.app,
                    b.pk,
                    b.stock
                );
                assert!(b.pk > 0.01, "{} at {cores}: pk ratio {}", b.app, b.pk);
            }
        }
    }
    // The gmake exception is generation-bound: it scales at 48 and 96,
    // and is collapsed by 192.
    let gmake = |i: usize| sweeps[i].1.iter().find(|b| b.app == "gmake").unwrap().stock;
    assert!(gmake(0) > 0.6, "gmake scales at 48: {}", gmake(0));
    assert!(gmake(1) > 0.5, "gmake still scales at 96: {}", gmake(1));
    assert!(gmake(2) < 0.05, "gmake collapses by 192: {}", gmake(2));
}

/// Abstract of the paper: per-core stock throughput at 48 cores is
/// "much less work per core with 48 cores than with one core."
#[test]
fn stock_kernels_do_less_work_per_core() {
    for (name, sweep) in [
        ("exim", exim::figure4(Personality::Stock)),
        ("memcached", memcached::figure5(Personality::Stock)),
        ("apache", apache::figure6(Personality::Stock)),
        (
            "postgres",
            postgres::figure(postgres::PgVariant::Stock, true),
        ),
    ] {
        let r = sweep.last().unwrap().per_core_per_sec / sweep[0].per_core_per_sec;
        assert!(r < 0.5, "{name}: stock ratio {r}");
    }
}

/// Figure-by-figure crossover claims.
#[test]
fn crossover_positions() {
    // Exim stock collapses in the teens of cores.
    let exim_stock = exim::figure4(Personality::Stock);
    let peak = exim_stock
        .iter()
        .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
        .unwrap();
    assert!(
        (8..=24).contains(&peak.cores),
        "exim stock total peaks mid-teens: {}",
        peak.cores
    );
    // memcached PK's per-core knee is at/before 16 cores (the card).
    let mc_pk = memcached::figure5(Personality::Pk);
    let knee = mc_pk
        .iter()
        .max_by(|a, b| a.per_core_per_sec.total_cmp(&b.per_core_per_sec))
        .unwrap();
    assert!(knee.cores <= 16);
    // Apache PK total throughput peaks near 36 (RX FIFO overflow).
    let ap_pk = apache::figure6(Personality::Pk);
    let ap_peak = ap_pk
        .iter()
        .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
        .unwrap();
    assert!((32..=40).contains(&ap_peak.cores));
    // PostgreSQL stock+modPG collapses in the mid-30s (lseek).
    let pg = postgres::figure(postgres::PgVariant::StockModPg, true);
    let pg_peak = pg
        .iter()
        .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
        .unwrap();
    assert!((24..=44).contains(&pg_peak.cores));
    // gmake speedup ≈35× on both kernels.
    for choice in [Personality::Stock, Personality::Pk] {
        let g = gmake::figure9(choice);
        let speedup = g.last().unwrap().total_per_sec / g[0].total_per_sec;
        assert!((32.0..38.0).contains(&speedup));
    }
    // pedsort: procs beat threads everywhere, including one core.
    let th = pedsort::figure10(pedsort::PedsortVariant::Threads);
    let pr = pedsort::figure10(pedsort::PedsortVariant::Procs);
    for (a, b) in th.iter().zip(pr.iter()) {
        assert!(
            b.per_core_per_sec > a.per_core_per_sec,
            "at {} cores",
            a.cores
        );
    }
    // Metis 2 MB beats 4 KB everywhere and hits DRAM at 48.
    let small = metis::figure11(metis::MetisVariant::StockSmallPages);
    let big = metis::figure11(metis::MetisVariant::PkSuperPages);
    for (a, b) in small.iter().zip(big.iter()) {
        assert!(
            b.per_core_per_sec > a.per_core_per_sec,
            "at {} cores",
            a.cores
        );
    }
    assert!(big.last().unwrap().hw_capped);
}

/// Figure 12: with PK, "none are limited by Linux-induced bottlenecks."
#[test]
fn figure12_no_kernel_bottlenecks_remain() {
    for row in summary::figure12() {
        let o = &row.observed;
        for kernel_lock in ["vfsmount", "lseek", "d_lock", "open-file", "region-list"] {
            assert!(
                !o.contains(kernel_lock),
                "{}: kernel bottleneck '{kernel_lock}' survived PK: {o}",
                row.app
            );
        }
    }
}

/// Leave-one-out: removing an application's dominant fix from PK
/// collapses it again (§5.2: Exim's gains come "primarily [from]
/// improvements to the vfsmount table").
#[test]
fn dominant_fix_is_load_bearing() {
    use mosbench::kernel::{FixId, KernelConfig};
    use mosbench::sim::{CoreSweep, WorkloadModel};
    let ratio = |m: &dyn WorkloadModel| CoreSweep::figure3_ratio(m, 48);
    let pk = ratio(&exim::EximModel::new(Personality::Pk));
    let without_vfsmount = ratio(&exim::EximModel::with_config(
        KernelConfig::pk(48).with_fix(FixId::PerCoreMountCache, false),
    ));
    assert!(without_vfsmount < 0.2 * pk, "{without_vfsmount} vs {pk}");
    // And enabling it alone nearly recovers PK's ratio.
    let only_vfsmount = ratio(&exim::EximModel::with_config(
        KernelConfig::stock(48).with_fix(FixId::PerCoreMountCache, true),
    ));
    assert!(only_vfsmount > 0.9 * pk, "{only_vfsmount} vs {pk}");
}

/// The whole evaluation is deterministic: two runs are identical.
#[test]
fn regeneration_is_deterministic() {
    let a = summary::figure3(48);
    let b = summary::figure3(48);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.app, y.app);
        assert!((x.stock - y.stock).abs() == 0.0);
        assert!((x.pk - y.pk).abs() == 0.0);
    }
    let s1 = exim::figure4(Personality::Pk);
    let s2 = exim::figure4(Personality::Pk);
    for (p, q) in s1.iter().zip(s2.iter()) {
        assert_eq!(p.per_core_per_sec, q.per_core_per_sec);
        assert_eq!(p.system_usec, q.system_usec);
    }
}

/// Sanity: at one core, every model's user+system time equals the
/// inverse of its throughput (no hidden cycles).
#[test]
fn one_core_time_accounting_balances() {
    use mosbench::sim::{CoreSweep, MachineSpec, WorkloadModel};
    let machine = MachineSpec::paper();
    let models: Vec<Box<dyn WorkloadModel>> = vec![
        Box::new(exim::EximModel::new(Personality::Pk)),
        Box::new(memcached::MemcachedModel::new(Personality::Pk)),
        Box::new(apache::ApacheModel::new(Personality::Pk)),
        Box::new(gmake::GmakeModel::new(Personality::Pk)),
    ];
    for m in models {
        let p = CoreSweep::point(m.as_ref(), 1);
        let time_per_op_sec = (p.user_usec + p.system_usec) * 1e-6;
        let throughput_time = 1.0 / p.per_core_per_sec;
        let err = (time_per_op_sec - throughput_time).abs() / throughput_time;
        assert!(
            err < 1e-9,
            "{}: {} vs {}",
            m.name(),
            time_per_op_sec,
            throughput_time
        );
        let _ = machine;
    }
}
