//! Pins the roster's one name → model table: every workload under
//! every personality, on the paper machine and past it.

use pk_kernel::Personality;
use pk_sim::MachineSpec;
use pk_workloads::roster::{self, NAMES};

/// `name()` and `solve(48).ops_per_cycle` on the paper machine for
/// every workload × [`Personality::ALL`], captured at the commit before
/// the personality enums and the roster's three tables merged (the
/// adaptive column from what was then `model_with_config(name,
/// &KernelConfig::adaptive(48), paper)`). The names pin the application
/// pairing — "pedsort/stock is the threaded version" is stated only in
/// `roster::pairing` now — and the throughputs pin the demands behind
/// them, bit for bit.
const PINNED: [(&str, [(&str, f64); 4]); 7] = [
    (
        "exim",
        [
            ("Exim/Stock", 2.9791403845546606e-7),
            ("Exim/Coarse", 2.039792865293538e-7),
            ("Exim/PK", 9.988225026756851e-6),
            ("Exim/Adaptive(0 promoted)", 2.9791403845546606e-7),
        ],
    ),
    (
        "memcached",
        [
            ("memcached/Stock", 2.4357915783588602e-4),
            ("memcached/Coarse", 3.476075949190875e-5),
            ("memcached/PK", 5.142857142857143e-3),
            ("memcached/Adaptive(0 promoted)", 2.4357915783588602e-4),
        ],
    ),
    (
        "apache",
        [
            ("Apache/Stock", 2.5620940226004427e-6),
            ("Apache/Coarse", 1.1892671766944638e-6),
            ("Apache/PK", 1.6981132075471697e-4),
            ("Apache/Adaptive(0 promoted)", 2.5620940226004427e-6),
        ],
    ),
    (
        "postgres",
        [
            ("PostgreSQL ro/Stock", 4.941991712158353e-5),
            ("PostgreSQL ro/Stock", 2.7167679325897875e-5),
            ("PostgreSQL ro/PK + mod PG", 2.3025456950816875e-4),
            ("PostgreSQL ro/Adaptive(0 promoted)", 4.941867009228461e-5),
        ],
    ),
    (
        "gmake",
        [
            ("gmake/Stock", 2.2229863805135634e-11),
            ("gmake/Coarse", 2.224009401111106e-11),
            ("gmake/PK", 2.2282181547112633e-11),
            ("gmake/Adaptive(0 promoted)", 2.2229863805135634e-11),
        ],
    ),
    (
        "pedsort",
        [
            ("Stock + Threads", 3.446379898055703e-12),
            ("Stock + Threads", 3.4463622395907704e-12),
            ("Stock + Procs RR", 1.9852720271475393e-10),
            ("Stock + Procs RR", 1.9852720271475393e-10),
        ],
    ),
    (
        "metis",
        [
            ("Metis/Stock + 4KB pages", 5.835667600111576e-11),
            ("Metis/Stock + 4KB pages", 5.835667600118437e-11),
            ("Metis/PK + 2MB pages", 1.8333333333333332e-10),
            (
                "Metis/2MB pages + Adaptive(0 promoted)",
                9.548538393353009e-11,
            ),
        ],
    ),
];

#[test]
fn every_cell_builds_solves_and_keeps_its_name() {
    let machines = [
        MachineSpec::paper(),
        MachineSpec::with_topology(16, 12).expect("valid topology"),
    ];
    for (name, cells) in PINNED {
        for (personality, (expected_name, ops48)) in Personality::ALL.into_iter().zip(cells) {
            for machine in machines {
                let n = machine.cores();
                let m = roster::model_on(name, personality, machine).expect("roster name");
                assert_eq!(m.machine().cores(), n, "{name}/{personality:?} topology");
                assert_eq!(
                    m.name(),
                    expected_name,
                    "{name}/{personality:?} on {n} cores"
                );
                let ops = m.network(n).solve(n).ops_per_cycle;
                assert!(ops > 0.0, "{name}/{personality:?} solves at {n} cores");
                if n == 48 {
                    assert_eq!(ops, ops48, "{name}/{personality:?}: demands moved");
                }
            }
        }
    }
    assert_eq!(PINNED.map(|(name, _)| name), NAMES);
}

#[test]
fn coarse_clusters_the_lock_classes_stock_keeps_apart() {
    let stations = |personality| -> Vec<String> {
        let net = roster::model("exim", personality).unwrap().network(48);
        net.stations()
            .iter()
            .filter_map(|s| s.class.map(str::to_string))
            .collect()
    };
    let (stock, coarse) = (stations(Personality::Stock), stations(Personality::Coarse));
    assert!(stock.iter().any(|c| c == "vfs.mount_table"), "{stock:?}");
    assert!(!stock.iter().any(|c| c.starts_with("coarse.")), "{stock:?}");
    assert!(coarse.iter().any(|c| c == "coarse.vfs_lock"), "{coarse:?}");
    assert!(!coarse.iter().any(|c| c == "vfs.mount_table"), "{coarse:?}");
    // Every workload's coarse network carries at least one coarse lock.
    for name in NAMES {
        let net = roster::model(name, Personality::Coarse)
            .unwrap()
            .network(48);
        assert!(
            net.stations().iter().any(|s| s
                .class
                .is_some_and(|c| c.starts_with("coarse.") && c.ends_with("_lock"))),
            "{name}: no coarse.*_lock station"
        );
    }
}

#[test]
fn pairing_follows_the_paper() {
    use pk_workloads::metis::MetisVariant;
    use pk_workloads::pedsort::PedsortVariant;
    use pk_workloads::postgres::PgVariant;
    for before in [Personality::Stock, Personality::Coarse] {
        let p = roster::pairing(before);
        assert_eq!(p.postgres, PgVariant::Stock);
        assert_eq!(p.pedsort, PedsortVariant::Threads);
        assert_eq!(p.metis, MetisVariant::StockSmallPages);
    }
    for after in [Personality::Pk, Personality::Adaptive] {
        let p = roster::pairing(after);
        assert_eq!(p.postgres, PgVariant::PkModPg);
        assert_eq!(p.pedsort, PedsortVariant::ProcsRoundRobin);
        assert_eq!(p.metis, MetisVariant::PkSuperPages);
    }
}
