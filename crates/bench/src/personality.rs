//! Resolving a workload under a personality.
//!
//! The axis itself is [`pk_kernel::Personality`], and `pk-workloads`'
//! roster builds the model for any of its values. What only this crate
//! can do is *earn* the adaptive personality's fixes: it sees both the
//! roster and `pk-adapt`'s controller, so "boot with zero fixes,
//! converge, then model whatever was promoted" is resolved here, once.

use pk_adapt::{AdaptController, AdaptPolicy, ConvergeOutcome};
use pk_kernel::{KernelConfig, Personality};
use pk_sim::{MachineSpec, WorkloadModel};
use pk_workloads::roster;

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

/// Builds `workload`'s model under `personality` at `cores` on
/// `machine`: the fixed personalities come straight from the roster,
/// adaptive from [`converge`]. `None` and panics as there.
pub fn resolve(
    personality: Personality,
    workload: &str,
    cores: usize,
    machine: MachineSpec,
    seed: u64,
) -> Option<Resolved> {
    let (config, model, adapt) = if personality == Personality::Adaptive {
        let (model, out) = converge(workload, cores, machine, seed)?;
        (pk_workloads::config_label(&out.config), model, Some(out))
    } else {
        machine
            .validate_cores(cores)
            .expect("core count validated by the caller");
        let model = roster::model_on(workload, personality, machine)?;
        (personality.legend().to_string(), model, None)
    };
    Some(Resolved {
        personality,
        cores,
        config,
        model,
        adapt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_personalities_are_the_roster_models() {
        let machine = MachineSpec::paper();
        for p in [Personality::Stock, Personality::Coarse, Personality::Pk] {
            let r = resolve(p, "exim", 48, machine, 42).unwrap();
            let direct = roster::model_on("exim", p, machine).unwrap();
            assert!(r.adapt.is_none());
            assert_eq!((r.cores, r.model.name()), (48, direct.name()));
            assert_eq!(
                r.model.network(48).solve(48).ops_per_cycle,
                direct.network(48).solve(48).ops_per_cycle
            );
            assert_eq!(r.config, p.legend());
        }
        for p in Personality::ALL {
            assert!(resolve(p, "nethack", 48, machine, 42).is_none());
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
            let r = resolve(Personality::Adaptive, name, 48, machine, 42)
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
