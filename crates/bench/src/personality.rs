//! The one personality axis every report sweeps.
//!
//! `pk-workloads` knows the three fixed kernels ([`KernelChoice`]);
//! `pk-adapt` knows how to converge a controller. This crate is the
//! only one that sees both, so the fourth personality — boot with zero
//! fixes, let the controller earn them, then model whatever it
//! promoted — is resolved here, once.

use pk_adapt::{AdaptController, AdaptPolicy, ConvergeOutcome};
use pk_kernel::KernelConfig;
use pk_sim::{MachineSpec, WorkloadModel};
use pk_workloads::{roster, KernelChoice};

/// The four kernel personalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// Stock Linux 2.6.35 behavior.
    Stock,
    /// One coarse lock per subsystem.
    Coarse,
    /// All paper fixes applied.
    Pk,
    /// `pk-adapt`'s converged configuration.
    Adaptive,
}

/// A workload's model under one personality at one core count, plus
/// the controller's outcome when the personality had to be converged.
pub struct Resolved {
    /// The personality that was resolved.
    pub personality: Personality,
    /// The core count it was resolved (and, if adaptive, converged) at.
    pub cores: usize,
    /// The config column of a contention report: the figure-legend
    /// label for a fixed personality, `Adaptive(n promoted)` otherwise.
    pub config: String,
    /// The workload model to solve or simulate.
    pub model: Box<dyn WorkloadModel>,
    /// The convergence run behind an adaptive model (`None` for the
    /// fixed personalities).
    pub adapt: Option<ConvergeOutcome>,
}

/// The adaptive personality: boots [`KernelConfig::adaptive`] at
/// `cores`, converges the default-policy controller on seeded DES
/// observations, and models the config it promoted. Returns `None` for
/// names outside [`roster::NAMES`].
///
/// # Panics
///
/// Panics if `cores` does not fit `machine`; the argument parser
/// rejects such input before any report runs.
pub fn converge(
    workload: &str,
    cores: usize,
    machine: MachineSpec,
    seed: u64,
) -> Option<(Box<dyn WorkloadModel>, ConvergeOutcome)> {
    machine
        .validate_cores(cores)
        .expect("core count validated by the caller");
    let boot = KernelConfig::adaptive(cores);
    // Probe the name once so the build closure cannot fail.
    roster::model_with_config(workload, &boot, machine)?;
    let build = |cfg: &KernelConfig| {
        roster::model_with_config(workload, cfg, machine)
            .expect("probed above")
            .network(cores)
    };
    let out = AdaptController::new(boot, AdaptPolicy::default(), seed).converge_des(build, cores);
    Some((
        roster::model_with_config(workload, &out.config, machine)?,
        out,
    ))
}

impl Personality {
    /// Grid order.
    pub const ALL: [Personality; 4] = [Self::Stock, Self::Coarse, Self::Pk, Self::Adaptive];

    /// Stable lowercase label used in tables, JSON, metric labels and
    /// on the command line.
    pub fn label(self) -> &'static str {
        match self {
            Self::Stock => "stock",
            Self::Coarse => "coarse",
            Self::Pk => "pk",
            Self::Adaptive => "adaptive",
        }
    }

    /// Parses a [`Personality::label`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }

    /// The fixed kernel behind this personality (`None` for adaptive).
    pub fn fixed(self) -> Option<KernelChoice> {
        match self {
            Self::Stock => Some(KernelChoice::Stock),
            Self::Coarse => Some(KernelChoice::Coarse),
            Self::Pk => Some(KernelChoice::Pk),
            Self::Adaptive => None,
        }
    }

    /// Builds `workload`'s model under this personality at `cores` on
    /// `machine`: fixed personalities come straight from the roster
    /// (which keeps the paper's before/after application pairings and
    /// coarsens internally), adaptive from [`converge`]. `None` and
    /// panics as there.
    pub fn resolve(
        self,
        workload: &str,
        cores: usize,
        machine: MachineSpec,
        seed: u64,
    ) -> Option<Resolved> {
        let (config, model, adapt) = match self.fixed() {
            Some(choice) => {
                machine
                    .validate_cores(cores)
                    .expect("core count validated by the caller");
                let model = roster::model_on(workload, choice, machine)?;
                (choice.label().to_string(), model, None)
            }
            None => {
                let (model, out) = converge(workload, cores, machine, seed)?;
                (pk_workloads::config_label(&out.config), model, Some(out))
            }
        };
        Some(Resolved {
            personality: self,
            cores,
            config,
            model,
            adapt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in Personality::ALL {
            assert_eq!(Personality::parse(p.label()), Some(p));
        }
        assert_eq!(Personality::parse("PK"), Some(Personality::Pk));
        assert_eq!(Personality::parse("fast"), None);
    }

    #[test]
    fn fixed_personalities_are_the_roster_models() {
        let machine = MachineSpec::paper();
        for p in [Personality::Stock, Personality::Coarse, Personality::Pk] {
            let choice = p.fixed().unwrap();
            let r = p.resolve("exim", 48, machine, 42).unwrap();
            let direct = roster::model_on("exim", choice, machine).unwrap();
            assert!(r.adapt.is_none());
            assert_eq!((r.cores, r.model.name()), (48, direct.name()));
            assert_eq!(
                r.model.network(48).solve(48).ops_per_cycle,
                direct.network(48).solve(48).ops_per_cycle
            );
            assert_eq!(r.config, choice.label());
        }
        for p in Personality::ALL {
            assert!(p.resolve("nethack", 48, machine, 42).is_none());
        }
    }

    /// The idiom the seven former call sites each spelled out by hand:
    /// at seed 42 `resolve` must land on the same promoted-fix count.
    #[test]
    fn adaptive_at_seed_42_matches_the_hand_rolled_idiom() {
        let machine = MachineSpec::paper();
        for name in roster::NAMES {
            let build = |cfg: &KernelConfig| {
                roster::model_with_config(name, cfg, machine)
                    .expect("roster name resolves")
                    .network(48)
            };
            let by_hand =
                AdaptController::new(KernelConfig::adaptive(48), AdaptPolicy::default(), 42)
                    .converge_des(build, 48);
            let r = Personality::Adaptive
                .resolve(name, 48, machine, 42)
                .expect("roster name resolves");
            let out = r.adapt.as_ref().expect("adaptive carries its outcome");
            assert_eq!(out.config, by_hand.config, "{name}: same promoted set");
            assert_eq!(out.config.enabled_count(), by_hand.config.enabled_count());
            assert_eq!(out.decisions, by_hand.decisions, "{name}: same log");
            assert_eq!(
                r.config,
                format!("Adaptive({} promoted)", by_hand.config.enabled_count())
            );
        }
    }
}
