//! `sweep`: run any MOSBENCH model at any core counts.
//!
//! ```text
//! pk-bench sweep exim --kernel stock --cores 1,12,24,48
//! pk-bench sweep postgres --rw --kernel pk
//! ```

use pk_bench::args::{self, Args, Kind, Spec};
use pk_kernel::Personality;
use pk_sim::{CoreSweep, WorkloadModel};
use pk_workloads::{metis, pedsort, postgres, roster};

pub const SPEC: Spec = Spec {
    command: "sweep",
    positionals: &[(
        "APP",
        Kind::OneOf(&[
            "exim",
            "memcached",
            "apache",
            "postgres",
            "gmake",
            "pedsort-threads",
            "pedsort-procs",
            "pedsort-rr",
            "metis-4k",
            "metis-2m",
        ]),
    )],
    required: 1,
    flags: &[
        ("--kernel", Kind::OneOf(&KERNELS)),
        ("--cores", Kind::CoreList),
        ("--rw", Kind::Switch),
    ],
};

/// No `adaptive`: its model needs a controller converged at one core
/// count (`report contention APP adaptive N`), and a sweep has many.
const KERNELS: [&str; 3] = args::labels([Personality::Stock, Personality::Coarse, Personality::Pk]);

/// The rows that name an application variant the roster does not (mod
/// PG on stock, `--rw`, each pedsort and Metis line) are built here, on
/// the variant's own kernel; the rest is the roster's model.
fn model(app: &str, personality: Personality, rw: bool) -> Box<dyn WorkloadModel> {
    let m: Box<dyn WorkloadModel> = match app {
        "postgres" => {
            // Always the modified PostgreSQL: Figure 7/8's kernel axis.
            let variant = match personality {
                Personality::Pk => postgres::PgVariant::PkModPg,
                _ => postgres::PgVariant::StockModPg,
            };
            Box::new(postgres::PostgresModel::new(variant, !rw))
        }
        "pedsort-threads" => Box::new(pedsort::PedsortModel::new(pedsort::PedsortVariant::Threads)),
        "pedsort-procs" => Box::new(pedsort::PedsortModel::new(pedsort::PedsortVariant::Procs)),
        "pedsort-rr" => Box::new(pedsort::PedsortModel::new(
            pedsort::PedsortVariant::ProcsRoundRobin,
        )),
        "metis-4k" => Box::new(metis::MetisModel::new(metis::MetisVariant::StockSmallPages)),
        "metis-2m" => Box::new(metis::MetisModel::new(metis::MetisVariant::PkSuperPages)),
        // exim, memcached, apache, gmake; the roster coarsens itself.
        _ => return roster::model(app, personality).expect("the parser admits only SPEC's apps"),
    };
    if personality == Personality::Coarse {
        Box::new(pk_sim::Coarsened(m))
    } else {
        m
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let personality = args
        .text("--kernel")
        .and_then(Personality::parse)
        .unwrap_or(Personality::Pk);
    let app = args.text("APP").expect("required positional");
    let m = model(app, personality, args.has("--rw"));
    let counts = args
        .list("--cores")
        .unwrap_or_else(CoreSweep::paper_core_counts);
    println!("{}", m.name());
    println!(
        "{:>6} {:>16} {:>16} {:>12} {:>12} {:>6}",
        "cores", "total/s", "per-core/s", "user µs", "sys µs", "cap?"
    );
    for n in counts {
        let p = CoreSweep::point(m.as_ref(), n);
        println!(
            "{:>6} {:>16.1} {:>16.1} {:>12.2} {:>12.2} {:>6}",
            p.cores,
            p.total_per_sec,
            p.per_core_per_sec,
            p.user_usec,
            p.system_usec,
            if p.hw_capped { "HW" } else { "" }
        );
    }
    Ok(())
}
