//! `sweep`: run any MOSBENCH model at any core counts.
//!
//! ```text
//! pk-bench sweep exim --kernel stock --cores 1,12,24,48
//! pk-bench sweep postgres --rw --kernel pk
//! ```

use pk_bench::args::{Args, Kind, Spec};
use pk_sim::{CoreSweep, WorkloadModel};
use pk_workloads::{apache, exim, gmake, memcached, metis, pedsort, postgres, KernelChoice};

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
        ("--kernel", Kind::OneOf(&["stock", "coarse", "pk"])),
        ("--cores", Kind::CoreList),
        ("--rw", Kind::Switch),
    ],
};

fn model(app: &str, choice: KernelChoice, rw: bool) -> Box<dyn WorkloadModel> {
    let m: Box<dyn WorkloadModel> = match app {
        "exim" => Box::new(exim::EximModel::new(choice)),
        "memcached" => Box::new(memcached::MemcachedModel::new(choice)),
        "apache" => Box::new(apache::ApacheModel::new(choice)),
        "postgres" => {
            let variant = match choice {
                KernelChoice::Stock | KernelChoice::Coarse => postgres::PgVariant::StockModPg,
                KernelChoice::Pk => postgres::PgVariant::PkModPg,
            };
            Box::new(postgres::PostgresModel::new(variant, !rw))
        }
        "gmake" => Box::new(gmake::GmakeModel::new(choice)),
        "pedsort-threads" => Box::new(pedsort::PedsortModel::new(pedsort::PedsortVariant::Threads)),
        "pedsort-procs" => Box::new(pedsort::PedsortModel::new(pedsort::PedsortVariant::Procs)),
        "pedsort-rr" => Box::new(pedsort::PedsortModel::new(
            pedsort::PedsortVariant::ProcsRoundRobin,
        )),
        "metis-4k" => Box::new(metis::MetisModel::new(metis::MetisVariant::StockSmallPages)),
        "metis-2m" => Box::new(metis::MetisModel::new(metis::MetisVariant::PkSuperPages)),
        other => unreachable!("the parser admits only SPEC's apps, got {other}"),
    };
    if choice == KernelChoice::Coarse {
        Box::new(pk_sim::Coarsened(m))
    } else {
        m
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let choice = match args.text("--kernel") {
        Some("stock") => KernelChoice::Stock,
        Some("coarse") => KernelChoice::Coarse,
        _ => KernelChoice::Pk,
    };
    let app = args.text("APP").expect("required positional");
    let m = model(app, choice, args.has("--rw"));
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
