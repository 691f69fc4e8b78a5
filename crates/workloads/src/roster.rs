//! Name-keyed access to the seven MOSBENCH workload models.
//!
//! The figure sections each hardcode their own model; the diagnostic
//! tools (`pk-bench report contention`) instead take a workload name
//! on the command line, so they need one place that maps names to
//! models and kernel choices to the paper's before/after variants.

use crate::common::KernelChoice;
use crate::{apache, exim, gmake, memcached, metis, pedsort, postgres};
use pk_sim::{MachineSpec, WorkloadModel};

/// Every workload name [`model`] accepts.
pub const NAMES: [&str; 7] = [
    "exim",
    "memcached",
    "apache",
    "postgres",
    "gmake",
    "pedsort",
    "metis",
];

/// The serving subset: workloads that are network servers with
/// latency SLOs (the open-loop `pk-serve` roster), as opposed to the
/// batch jobs. Order matches [`NAMES`].
pub const SERVING: [&str; 3] = ["exim", "memcached", "apache"];

/// Builds the model for `name` under `choice`, following the paper's
/// before/after pairings (pedsort's "stock" is the threaded version,
/// Metis's the 4 KB-page version). Names are case-insensitive;
/// returns `None` for unknown workloads.
pub fn model(name: &str, choice: KernelChoice) -> Option<Box<dyn WorkloadModel>> {
    model_on(name, choice, MachineSpec::paper())
}

/// [`model`] on an arbitrary machine topology — the §7 "past 48 cores"
/// axis. Every workload's demands derive from per-socket constants, so
/// the same model sweeps any `sockets × cores_per_socket` shape.
pub fn model_on(
    name: &str,
    choice: KernelChoice,
    machine: MachineSpec,
) -> Option<Box<dyn WorkloadModel>> {
    let m: Box<dyn WorkloadModel> = match name.to_ascii_lowercase().as_str() {
        "exim" => {
            let mut m = exim::EximModel::new(choice);
            m.machine = machine;
            Box::new(m)
        }
        "memcached" => {
            let mut m = memcached::MemcachedModel::new(choice);
            m.machine = machine;
            Box::new(m)
        }
        "apache" => {
            let mut m = apache::ApacheModel::new(choice);
            m.machine = machine;
            Box::new(m)
        }
        "postgres" | "postgresql" => {
            // Coarse is a kernel-side locking regime: the application
            // keeps its stock pairing (unmodified PostgreSQL, threaded
            // pedsort, 4 KB-page Metis).
            let variant = match choice {
                KernelChoice::Stock | KernelChoice::Coarse => postgres::PgVariant::Stock,
                KernelChoice::Pk => postgres::PgVariant::PkModPg,
            };
            let mut m = postgres::PostgresModel::new(variant, true);
            m.machine = machine;
            Box::new(m)
        }
        "gmake" => {
            let mut m = gmake::GmakeModel::new(choice);
            m.machine = machine;
            Box::new(m)
        }
        "pedsort" => {
            let variant = match choice {
                KernelChoice::Stock | KernelChoice::Coarse => pedsort::PedsortVariant::Threads,
                KernelChoice::Pk => pedsort::PedsortVariant::ProcsRoundRobin,
            };
            let mut m = pedsort::PedsortModel::new(variant);
            m.machine = machine;
            Box::new(m)
        }
        "metis" => {
            let variant = match choice {
                KernelChoice::Stock | KernelChoice::Coarse => metis::MetisVariant::StockSmallPages,
                KernelChoice::Pk => metis::MetisVariant::PkSuperPages,
            };
            let mut m = metis::MetisModel::new(variant);
            m.machine = machine;
            Box::new(m)
        }
        _ => return None,
    };
    // The coarse personality keeps stock's demands but clusters the
    // named lock classes into per-subsystem coarse locks.
    if choice == KernelChoice::Coarse {
        return Some(Box::new(pk_sim::Coarsened(m)));
    }
    Some(m)
}

/// [`model_on`] for an arbitrary kernel fix subset — the axis the
/// adaptive personality's controller sweeps. Kernel-side demands derive
/// from `config`; the application side is pinned to the paper's PK
/// pairings (modified PostgreSQL, round-robin pedsort processes, 2 MB
/// Metis pages), because the config axis covers only the 16 kernel
/// fixes — the application modifications are part of the workload
/// definition, not levers the kernel can pull.
pub fn model_with_config(
    name: &str,
    config: &pk_kernel::KernelConfig,
    machine: MachineSpec,
) -> Option<Box<dyn WorkloadModel>> {
    let config = *config;
    let m: Box<dyn WorkloadModel> = match name.to_ascii_lowercase().as_str() {
        "exim" => {
            let mut m = exim::EximModel::with_config(config);
            m.machine = machine;
            Box::new(m)
        }
        "memcached" => {
            let mut m = memcached::MemcachedModel::with_config(config);
            m.machine = machine;
            Box::new(m)
        }
        "apache" => {
            let mut m = apache::ApacheModel::with_config(config);
            m.machine = machine;
            Box::new(m)
        }
        "postgres" | "postgresql" => {
            let mut m = postgres::PostgresModel::with_config(config, true);
            m.machine = machine;
            Box::new(m)
        }
        "gmake" => {
            let mut m = gmake::GmakeModel::with_config(config);
            m.machine = machine;
            Box::new(m)
        }
        "pedsort" => {
            // Purely application-level: no kernel fix moves pedsort.
            let mut m = pedsort::PedsortModel::new(pedsort::PedsortVariant::ProcsRoundRobin);
            m.machine = machine;
            Box::new(m)
        }
        "metis" => {
            let mut m = metis::MetisModel::with_config(config);
            m.machine = machine;
            Box::new(m)
        }
        _ => return None,
    };
    if config.personality() == pk_kernel::Personality::Coarse {
        return Some(Box::new(pk_sim::Coarsened(m)));
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_under_both_choices() {
        for name in NAMES {
            for choice in [KernelChoice::Stock, KernelChoice::Pk] {
                let m = model(name, choice).unwrap_or_else(|| panic!("{name} missing"));
                // The model must actually solve.
                let r = m.network(4).solve(4);
                assert!(r.ops_per_cycle > 0.0, "{name} solves");
            }
        }
    }

    #[test]
    fn every_workload_sweeps_larger_topologies() {
        use pk_sim::CoreSweep;
        let big = MachineSpec::with_topology(16, 12).expect("valid topology");
        for name in NAMES {
            let m = model_on(name, KernelChoice::Pk, big).unwrap();
            assert_eq!(m.machine().cores(), 192, "{name} carries the topology");
            let p = CoreSweep::try_point(m.as_ref(), 192).expect("192 cores fit 16x12");
            assert!(p.per_core_per_sec > 0.0, "{name} solves at 192 cores");
            // Oversubscription is now a typed error at the sweep entry.
            assert!(CoreSweep::try_point(m.as_ref(), 193).is_err());
        }
    }

    #[test]
    fn config_axis_with_all_fixes_matches_the_pk_pairing() {
        use pk_kernel::KernelConfig;
        // The config axis at full fix set must reproduce the PK variant
        // rows exactly — same app pairings, same demands.
        for name in NAMES {
            let pk = model(name, KernelChoice::Pk).unwrap();
            let cfg = model_with_config(name, &KernelConfig::pk(48), MachineSpec::paper()).unwrap();
            let (a, b) = (pk.network(48).solve(48), cfg.network(48).solve(48));
            assert!(
                (a.ops_per_cycle - b.ops_per_cycle).abs() / a.ops_per_cycle < 1e-9,
                "{name}: PK variant {} vs config axis {}",
                a.ops_per_cycle,
                b.ops_per_cycle
            );
        }
    }

    #[test]
    fn adaptive_boot_config_solves_everywhere() {
        use pk_kernel::KernelConfig;
        // Zero fixes promoted: every model must still build and solve
        // (this is the controller's epoch-0 measurement).
        let boot = KernelConfig::adaptive(48);
        for name in NAMES {
            let m = model_with_config(name, &boot, MachineSpec::paper()).unwrap();
            let r = m.network(48).solve(48);
            assert!(r.ops_per_cycle > 0.0, "{name} solves at boot config");
        }
    }

    #[test]
    fn names_are_case_insensitive_and_unknowns_fail() {
        assert!(model("Exim", KernelChoice::Stock).is_some());
        assert!(model("PostgreSQL", KernelChoice::Pk).is_some());
        assert!(model("solitaire", KernelChoice::Stock).is_none());
    }
}
