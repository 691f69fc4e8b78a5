//! Name-keyed access to the seven MOSBENCH workload models.
//!
//! The one table from workload name to model: [`model_with_config`]
//! builds any of the seven on any kernel configuration and machine, and
//! [`model`] / [`model_on`] are its presets for a bare
//! [`Personality`]. The paper's before/after *application* pairing —
//! which PostgreSQL, pedsort and Metis a personality runs — is
//! [`pairing`], stated once and shared with the functional drivers.

use crate::{apache, exim, gmake, memcached, metis, pedsort, postgres};
use pk_kernel::{KernelConfig, Personality};
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

/// The application side of a personality, for the three workloads
/// whose paper evaluation changed the application as well as the
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pairing {
    /// Unmodified vs. modified lock manager (Figures 7–8).
    pub postgres: postgres::PgVariant,
    /// Threads vs. round-robin processes (Figure 10).
    pub pedsort: pedsort::PedsortVariant,
    /// 4 KB vs. 2 MB table pages (Figure 11).
    pub metis: metis::MetisVariant,
}

/// The paper's before/after application pairing. Stock runs the
/// "before" applications (Figure 3's left bars). Coarse is a
/// kernel-side locking regime, so it keeps them. PK runs the "after"
/// applications, and so does Adaptive: the application modifications
/// are part of the workload definition, not levers the controller can
/// pull, so it starts from the modified applications on a zero-fix
/// kernel.
pub fn pairing(personality: Personality) -> Pairing {
    match personality {
        Personality::Stock | Personality::Coarse => Pairing {
            postgres: postgres::PgVariant::Stock,
            pedsort: pedsort::PedsortVariant::Threads,
            metis: metis::MetisVariant::StockSmallPages,
        },
        Personality::Pk | Personality::Adaptive => Pairing {
            postgres: postgres::PgVariant::PkModPg,
            pedsort: pedsort::PedsortVariant::ProcsRoundRobin,
            metis: metis::MetisVariant::PkSuperPages,
        },
    }
}

/// Builds the model for `name` under `personality` on the paper
/// machine. Names are case-insensitive; returns `None` for unknown
/// workloads.
pub fn model(name: &str, personality: Personality) -> Option<Box<dyn WorkloadModel>> {
    model_on(name, personality, MachineSpec::paper())
}

/// [`model`] on an arbitrary machine topology — the §7 "past 48 cores"
/// axis. Every workload's demands derive from per-socket constants, so
/// the same model sweeps any `sockets × cores_per_socket` shape.
pub fn model_on(
    name: &str,
    personality: Personality,
    machine: MachineSpec,
) -> Option<Box<dyn WorkloadModel>> {
    model_with_config(name, &personality.config(48), machine)
}

/// The model for `name` on an arbitrary kernel fix subset — the axis
/// the ablations and the adaptive controller sweep. Kernel-side demands
/// derive from `config`; the application side is [`pairing`] of its
/// personality; a coarse config's lock classes are clustered.
pub fn model_with_config(
    name: &str,
    config: &KernelConfig,
    machine: MachineSpec,
) -> Option<Box<dyn WorkloadModel>> {
    let config = *config;
    let app = pairing(config.personality());
    let m: Box<dyn WorkloadModel> = match name.to_ascii_lowercase().as_str() {
        "exim" => Box::new(exim::EximModel { config, machine }),
        "memcached" => Box::new(memcached::MemcachedModel { config, machine }),
        "apache" => Box::new(apache::ApacheModel { config, machine }),
        "postgres" | "postgresql" => Box::new(postgres::PostgresModel {
            variant: app.postgres,
            read_only: true,
            config,
            machine,
        }),
        "gmake" => Box::new(gmake::GmakeModel { config, machine }),
        // Purely application-level: no kernel fix moves pedsort.
        "pedsort" => Box::new(pedsort::PedsortModel {
            variant: app.pedsort,
            machine,
        }),
        "metis" => Box::new(metis::MetisModel {
            variant: app.metis,
            config,
            machine,
        }),
        _ => return None,
    };
    // The coarse personality keeps stock's demands but clusters the
    // named lock classes into per-subsystem coarse locks.
    if config.personality() == Personality::Coarse {
        return Some(Box::new(pk_sim::Coarsened(m)));
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_sweeps_larger_topologies() {
        use pk_sim::CoreSweep;
        let big = MachineSpec::with_topology(16, 12).expect("valid topology");
        for name in NAMES {
            let m = model_on(name, Personality::Pk, big).unwrap();
            assert_eq!(m.machine().cores(), 192, "{name} carries the topology");
            let p = CoreSweep::try_point(m.as_ref(), 192).expect("192 cores fit 16x12");
            assert!(p.per_core_per_sec > 0.0, "{name} solves at 192 cores");
            // Oversubscription is now a typed error at the sweep entry.
            assert!(CoreSweep::try_point(m.as_ref(), 193).is_err());
        }
    }

    #[test]
    fn config_axis_with_all_fixes_matches_the_pk_pairing() {
        // The config axis at full fix set must reproduce the PK variant
        // rows exactly — same app pairings, same demands.
        for name in NAMES {
            let pk = model(name, Personality::Pk).unwrap();
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
    fn one_core_throughput_matches_each_anchor() {
        use pk_sim::CoreSweep;
        let (both, stock) = (
            &[Personality::Stock, Personality::Pk][..],
            &[Personality::Stock][..],
        );
        for (name, per_sec, choices) in [
            ("exim", exim::MSGS_PER_SEC_1CORE, both),
            ("memcached", memcached::REQS_PER_SEC_1CORE, both),
            ("apache", apache::REQS_PER_SEC_1CORE, both),
            ("gmake", gmake::BUILDS_PER_HOUR_1CORE / 3600.0, stock),
        ] {
            for &choice in choices {
                let p = CoreSweep::point(model(name, choice).unwrap().as_ref(), 1);
                let err = (p.per_core_per_sec - per_sec).abs() / per_sec;
                assert!(err < 0.01, "{name} {choice:?}: {}", p.per_core_per_sec);
            }
        }
    }

    #[test]
    fn names_are_case_insensitive_and_unknowns_fail() {
        assert!(model("Exim", Personality::Stock).is_some());
        assert!(model("PostgreSQL", Personality::Pk).is_some());
        assert!(model("solitaire", Personality::Stock).is_none());
    }
}
