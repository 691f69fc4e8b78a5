//! The deterministic adaptation controller.
//!
//! The controller closes the paper's loop by machine: where Boyd-Wickizer
//! et al. profiled one bottleneck at a time and hand-placed 16 fixes,
//! [`AdaptController`] samples per-station contention at epoch
//! boundaries, maps each contended kernel structure to the lever
//! registered for it in the fix table ([`pk_kernel::fix_for_class`]),
//! and flips that lever in the live [`KernelConfig`] — promotion when a
//! structure's residence share crosses the upper threshold, demotion
//! when it falls below the lower one, with a cooldown in between so the
//! policy cannot flap.
//!
//! Everything is driven by the simulator's virtual clock and a pinned
//! seed: two runs at the same seed produce byte-identical decision
//! logs, which is what lets CI assert on the controller's behaviour.

use pk_fault::mix64;
use pk_kernel::{fix_for_class, FixId, KernelConfig};
use pk_sim::des::{self, DesResult};
use pk_sim::Network;
use std::collections::BTreeMap;

/// Residence share (basis points of cycles/op) above which a
/// structure's lever is promoted: 0.50% of cycles/op.
pub const PROMOTE_SHARE_BP: u64 = 50;
/// Residence share (basis points) at or below which an enabled lever is
/// demoted: 0.10%. The gap to [`PROMOTE_SHARE_BP`] is the hysteresis
/// band.
pub const DEMOTE_SHARE_BP: u64 = 10;
const _: () = assert!(
    DEMOTE_SHARE_BP < PROMOTE_SHARE_BP,
    "hysteresis requires demote < promote"
);
/// Epochs a knob is frozen after any change (no reversal inside the
/// window, whatever the signal does).
pub const COOLDOWN_EPOCHS: u32 = 2;
/// Consecutive decision-free epochs after which the controller declares
/// convergence.
pub const SETTLE_EPOCHS: u32 = 2;
/// Hard epoch cap for [`AdaptController::converge_with`].
pub const MAX_EPOCHS: u32 = 32;
/// DES operations per core per measurement epoch of
/// [`AdaptController::converge_des`].
pub const OPS_PER_CORE: u64 = 200;

/// One epoch's contention sample for one classed kernel structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The structure's class name (matches `Station::class` and
    /// `Fix::class`).
    pub class: &'static str,
    /// The structure's share of end-to-end cycles/op, in basis points
    /// (service + queueing wait). Integer so decision logs are
    /// byte-stable.
    pub share_bp: u64,
}

impl Observation {
    /// One observation per classed station of `net`: its residence
    /// (service demand + mean queueing wait in `result`) as a share of
    /// the run's cycles/op.
    pub fn from_des(net: &Network, result: &DesResult) -> Vec<Self> {
        net.stations()
            .iter()
            .enumerate()
            .filter_map(|(j, st)| {
                let class = st.class?;
                let residence = st.demand_cycles + result.mean_wait_cycles[j];
                let share_bp = (residence / result.cycles_per_op * 10_000.0).round() as u64;
                Some(Self { class, share_bp })
            })
            .collect()
    }
}

/// One policy change the controller committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Epoch (1-based) at which the change was made.
    pub epoch: u32,
    /// The structure class whose observation triggered the change.
    pub class: &'static str,
    /// The lever that was flipped.
    pub fix: FixId,
    /// New state of the lever.
    pub enabled: bool,
    /// The observed share that crossed the threshold.
    pub share_bp: u64,
}

/// Per-lever hysteresis state.
#[derive(Debug, Clone, Copy)]
struct KnobState {
    enabled: bool,
    /// Epoch of the most recent change (cooldown anchor).
    last_change: Option<u32>,
    /// How many times the knob has changed direction (first change
    /// counts as one). The ISSUE-8 convergence bound is ≤ 3.
    direction_changes: u32,
}

/// Result of running the controller to convergence.
#[derive(Debug, Clone)]
pub struct ConvergeOutcome {
    /// The final (post-adaptation) kernel configuration.
    pub config: KernelConfig,
    /// Measurement epochs consumed.
    pub epochs: u32,
    /// Whether the controller settled before [`MAX_EPOCHS`].
    pub converged: bool,
    /// Every decision, in commit order.
    pub decisions: Vec<Decision>,
    /// Direction changes per knob (class → count).
    pub direction_changes: BTreeMap<&'static str, u32>,
}

impl ConvergeOutcome {
    /// The largest direction-change count over all knobs (0 if no knob
    /// ever moved). The flap bound the report asserts on.
    pub fn max_direction_changes(&self) -> u32 {
        self.direction_changes.values().copied().max().unwrap_or(0)
    }
}

/// The epoch-driven promotion/demotion controller.
///
/// Workload-agnostic by construction: it sees only classed stations and
/// the fix registry, never workload names. Feed it observations
/// directly ([`AdaptController::observe`]), hand it a measurement
/// closure ([`AdaptController::converge_with`]) or let it measure
/// through the DES ([`AdaptController::converge_des`]).
#[derive(Debug)]
pub struct AdaptController {
    config: KernelConfig,
    seed: u64,
    epoch: u32,
    knobs: BTreeMap<&'static str, KnobState>,
    log: Vec<Decision>,
}

impl AdaptController {
    /// Creates a controller over `config` (normally
    /// [`KernelConfig::adaptive`]) with the given seed.
    pub fn new(config: KernelConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            epoch: 0,
            knobs: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// The controller's current configuration (fixes flipped so far).
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// The full decision log, in commit order.
    pub fn decisions(&self) -> &[Decision] {
        &self.log
    }

    /// Consumes one epoch of observations and commits any threshold
    /// crossings that survive hysteresis. Returns the decisions made
    /// this epoch.
    ///
    /// Rules, applied per classed structure in class order:
    /// * no registered lever ([`fix_for_class`] = `None`) → ignored;
    /// * inside the cooldown window after a change → frozen;
    /// * lever off and share ≥ promote threshold → promote;
    /// * lever on and share ≤ demote threshold → demote;
    /// * a structure **absent** from the epoch's observations (e.g. its
    ///   station vanished once the fix zeroed its demand) is *not*
    ///   treated as share 0 — no observation, no decision. This is the
    ///   anti-flap rule: promotion removes the signal, and the absence
    ///   of a signal must not argue for demotion.
    pub fn observe(&mut self, observations: &[Observation]) -> Vec<Decision> {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut sorted: Vec<&Observation> = observations.iter().collect();
        sorted.sort_by_key(|o| o.class);
        let mut made = Vec::new();
        for obs in sorted {
            let Some(fix) = fix_for_class(obs.class) else {
                continue;
            };
            let knob = self.knobs.entry(obs.class).or_insert(KnobState {
                enabled: self.config.has(fix),
                last_change: None,
                direction_changes: 0,
            });
            if let Some(at) = knob.last_change {
                if epoch - at < COOLDOWN_EPOCHS {
                    continue;
                }
            }
            let flip = if !knob.enabled {
                obs.share_bp >= PROMOTE_SHARE_BP
            } else {
                obs.share_bp <= DEMOTE_SHARE_BP
            };
            if !flip {
                continue;
            }
            knob.enabled = !knob.enabled;
            knob.last_change = Some(epoch);
            knob.direction_changes += 1;
            self.config = self.config.with_fix(fix, knob.enabled);
            let d = Decision {
                epoch,
                class: obs.class,
                fix,
                enabled: knob.enabled,
                share_bp: obs.share_bp,
            };
            self.log.push(d);
            made.push(d);
        }
        made
    }

    /// Runs measure→observe epochs until the policy settles (no
    /// decision for [`SETTLE_EPOCHS`] consecutive epochs) or
    /// [`MAX_EPOCHS`] is hit. `measure` gets the current config and the
    /// number of epochs observed so far (0-based), and returns that epoch's
    /// observations — how they are produced (which engine, which seed,
    /// with or without injected faults) is the caller's business.
    pub fn converge_with(
        mut self,
        mut measure: impl FnMut(&KernelConfig, u32) -> Vec<Observation>,
    ) -> ConvergeOutcome {
        let mut quiet = 0u32;
        let mut converged = false;
        while self.epoch < MAX_EPOCHS {
            let observations = measure(&self.config, self.epoch);
            let made = self.observe(&observations);
            if made.is_empty() {
                quiet += 1;
                if quiet >= SETTLE_EPOCHS {
                    converged = true;
                    break;
                }
            } else {
                quiet = 0;
            }
        }
        let direction_changes = self
            .knobs
            .iter()
            .map(|(class, k)| (*class, k.direction_changes))
            .collect();
        ConvergeOutcome {
            config: self.config,
            epochs: self.epoch,
            converged,
            decisions: self.log,
            direction_changes,
        }
    }

    /// [`Self::converge_with`] measuring through the fault-free DES at
    /// a per-epoch seed derived from the controller's. `build` lowers a
    /// config to the workload's queueing network — the only
    /// workload-specific input, supplied by the caller so this crate
    /// stays workload-agnostic.
    pub fn converge_des<F>(self, build: F, cores: usize) -> ConvergeOutcome
    where
        F: Fn(&KernelConfig) -> Network,
    {
        let seed = self.seed;
        self.converge_with(|config, epoch| {
            let net = build(config);
            let epoch_seed = mix64(seed ^ u64::from(epoch).wrapping_mul(0xA5A5_A5A5));
            let r = des::simulate(&net, cores, OPS_PER_CORE, epoch_seed);
            Observation::from_des(&net, &r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_sim::Station;

    fn obs(class: &'static str, share_bp: u64) -> Observation {
        Observation { class, share_bp }
    }

    #[test]
    fn promotes_above_threshold_and_maps_class_to_fix() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), 1);
        let made = c.observe(&[obs("vfs.mount_table", 4_000), obs("vfs.dentry_ref", 30)]);
        assert_eq!(made.len(), 1);
        assert_eq!(made[0].fix, FixId::PerCoreMountCache);
        assert!(made[0].enabled);
        assert!(c.config().has(FixId::PerCoreMountCache));
        assert!(!c.config().has(FixId::SloppyDentryRefs), "30bp < 50bp");
    }

    #[test]
    fn unknown_classes_are_ignored() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), 1);
        let made = c.observe(&[obs("app.lock_manager", 9_999)]);
        assert!(made.is_empty());
        assert_eq!(c.config().enabled_count(), 0);
    }

    #[test]
    fn cooldown_freezes_reversals() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), 1);
        assert_eq!(c.observe(&[obs("net.dst_ref", 800)]).len(), 1);
        // Signal collapses immediately, but the knob is frozen for the
        // cooldown window (epoch 2; change was at epoch 1).
        assert!(c.observe(&[obs("net.dst_ref", 0)]).is_empty());
        // Epoch 3: window over, demotion allowed.
        let made = c.observe(&[obs("net.dst_ref", 0)]);
        assert_eq!(made.len(), 1);
        assert!(!made[0].enabled);
    }

    #[test]
    fn absent_signal_does_not_demote() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), 1);
        c.observe(&[obs("vfs.dentry_ref", 900)]);
        // The fixed structure's station vanished: no observation at all.
        for _ in 0..10 {
            assert!(c.observe(&[]).is_empty());
        }
        assert!(
            c.config().has(FixId::SloppyDentryRefs),
            "no flap on silence"
        );
    }

    #[test]
    fn hysteresis_band_blocks_mid_range_flapping() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), 1);
        c.observe(&[obs("mm.page_line", 600)]);
        // Share in the (demote, promote) band: no decision either way.
        for _ in 0..10 {
            assert!(c.observe(&[obs("mm.page_line", 30)]).is_empty());
        }
        assert!(c.config().has(FixId::PageFalseSharing));
    }

    #[test]
    fn converge_des_promotes_the_modeled_bottleneck() {
        // Model world: a classed spinlock whose demand disappears once
        // its fix is on — the demand_unless idiom in miniature.
        let build = |cfg: &KernelConfig| {
            let mut n = Network::new();
            n.push(Station::delay("user", 10_000.0, false));
            let lock = if cfg.has(FixId::PerCoreMountCache) {
                0.0
            } else {
                900.0
            };
            n.push(Station::spinlock("mount lock", lock, 0.4, true).with_class("vfs.mount_table"));
            n
        };
        let c = AdaptController::new(KernelConfig::adaptive(16), 42);
        let out = c.converge_des(build, 16);
        assert!(out.converged);
        assert!(out.config.has(FixId::PerCoreMountCache));
        assert_eq!(out.decisions.len(), 1);
        assert_eq!(out.max_direction_changes(), 1);
    }

    #[test]
    fn converge_des_is_deterministic() {
        let build = |cfg: &KernelConfig| {
            let mut n = Network::new();
            n.push(Station::delay("user", 8_000.0, false));
            let d = if cfg.has(FixId::SloppyDstRefs) {
                0.0
            } else {
                400.0
            };
            n.push(Station::queue("dst refs", d, true).with_class("net.dst_ref"));
            n
        };
        let run = || AdaptController::new(KernelConfig::adaptive(8), 7).converge_des(build, 8);
        let (a, b) = (run(), run());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.config, b.config);
    }
}
