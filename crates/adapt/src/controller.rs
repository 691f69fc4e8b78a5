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

use pk_kernel::{fix_for_class, FixId, KernelConfig};
use pk_sim::des::{self, DesResult};
use pk_sim::Network;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tuning for the hysteresis state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptPolicy {
    /// Residence share (basis points of cycles/op) above which a
    /// structure's lever is promoted.
    pub promote_share_bp: u64,
    /// Residence share (basis points) below which an enabled lever is
    /// demoted. Must be strictly less than `promote_share_bp` — the gap
    /// is the hysteresis band.
    pub demote_share_bp: u64,
    /// Epochs a knob is frozen after any change (no reversal inside the
    /// window, whatever the signal does).
    pub cooldown_epochs: u32,
    /// Consecutive decision-free epochs after which the controller
    /// declares convergence.
    pub settle_epochs: u32,
    /// Hard epoch cap for [`AdaptController::converge_with`].
    pub max_epochs: u32,
    /// DES operations per core per measurement epoch.
    pub ops_per_core: u64,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        Self {
            promote_share_bp: 50, // 0.50% of cycles/op
            demote_share_bp: 10,  // 0.10%
            cooldown_epochs: 2,
            settle_epochs: 2,
            max_epochs: 32,
            ops_per_core: 200,
        }
    }
}

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
    /// Whether the controller settled before `max_epochs`.
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
    policy: AdaptPolicy,
    config: KernelConfig,
    seed: u64,
    epoch: u32,
    knobs: BTreeMap<&'static str, KnobState>,
    log: Vec<Decision>,
}

/// SplitMix64: the per-epoch seed mixer (deterministic, stateless).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl AdaptController {
    /// Creates a controller over `config` (normally
    /// [`KernelConfig::adaptive`]) with the given policy and seed.
    ///
    /// # Panics
    ///
    /// Panics if the policy's demote threshold is not strictly below
    /// its promote threshold (no hysteresis band → guaranteed flapping).
    pub fn new(config: KernelConfig, policy: AdaptPolicy, seed: u64) -> Self {
        assert!(
            policy.demote_share_bp < policy.promote_share_bp,
            "hysteresis requires demote < promote"
        );
        Self {
            policy,
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
                if epoch - at < self.policy.cooldown_epochs {
                    continue;
                }
            }
            let flip = if !knob.enabled {
                obs.share_bp >= self.policy.promote_share_bp
            } else {
                obs.share_bp <= self.policy.demote_share_bp
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
    /// decision for `settle_epochs` consecutive epochs) or `max_epochs`
    /// is hit. `measure` gets the current config and the number of
    /// epochs observed so far (0-based), and returns that epoch's
    /// observations — how they are produced (which engine, which seed,
    /// with or without injected faults) is the caller's business.
    pub fn converge_with(
        mut self,
        mut measure: impl FnMut(&KernelConfig, u32) -> Vec<Observation>,
    ) -> ConvergeOutcome {
        let mut quiet = 0u32;
        let mut converged = false;
        while self.epoch < self.policy.max_epochs {
            let observations = measure(&self.config, self.epoch);
            let made = self.observe(&observations);
            if made.is_empty() {
                quiet += 1;
                if quiet >= self.policy.settle_epochs {
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
        let (seed, ops_per_core) = (self.seed, self.policy.ops_per_core);
        self.converge_with(|config, epoch| {
            let net = build(config);
            let epoch_seed = splitmix64(seed ^ u64::from(epoch).wrapping_mul(0xA5A5_A5A5));
            let r = des::simulate(&net, cores, ops_per_core, epoch_seed);
            Observation::from_des(&net, &r)
        })
    }

    /// Renders the decision log as JSON lines (one object per
    /// decision, keys in fixed order). Byte-identical for identical
    /// seeds — the determinism contract's observable artifact.
    pub fn log_json(&self) -> String {
        render_log(&self.log)
    }
}

/// Renders a decision slice as JSON lines (shared by the controller and
/// [`ConvergeOutcome`] consumers).
pub fn render_log(decisions: &[Decision]) -> String {
    let mut out = String::new();
    for d in decisions {
        let _ = writeln!(
            out,
            "{{\"epoch\":{},\"class\":\"{}\",\"fix\":\"{:?}\",\"enabled\":{},\"share_bp\":{}}}",
            d.epoch, d.class, d.fix, d.enabled, d.share_bp
        );
    }
    out
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
        let mut c = AdaptController::new(KernelConfig::adaptive(8), AdaptPolicy::default(), 1);
        let made = c.observe(&[obs("vfs.mount_table", 4_000), obs("vfs.dentry_ref", 30)]);
        assert_eq!(made.len(), 1);
        assert_eq!(made[0].fix, FixId::PerCoreMountCache);
        assert!(made[0].enabled);
        assert!(c.config().has(FixId::PerCoreMountCache));
        assert!(!c.config().has(FixId::SloppyDentryRefs), "30bp < 50bp");
    }

    #[test]
    fn unknown_classes_are_ignored() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), AdaptPolicy::default(), 1);
        let made = c.observe(&[obs("app.lock_manager", 9_999)]);
        assert!(made.is_empty());
        assert_eq!(c.config().enabled_count(), 0);
    }

    #[test]
    fn cooldown_freezes_reversals() {
        let policy = AdaptPolicy {
            cooldown_epochs: 3,
            ..AdaptPolicy::default()
        };
        let mut c = AdaptController::new(KernelConfig::adaptive(8), policy, 1);
        assert_eq!(c.observe(&[obs("net.dst_ref", 800)]).len(), 1);
        // Signal collapses immediately, but the knob is frozen for the
        // cooldown window (epochs 2 and 3; change was at epoch 1).
        assert!(c.observe(&[obs("net.dst_ref", 0)]).is_empty());
        assert!(c.observe(&[obs("net.dst_ref", 0)]).is_empty());
        // Epoch 4: window over, demotion allowed.
        let made = c.observe(&[obs("net.dst_ref", 0)]);
        assert_eq!(made.len(), 1);
        assert!(!made[0].enabled);
    }

    #[test]
    fn absent_signal_does_not_demote() {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), AdaptPolicy::default(), 1);
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
        let mut c = AdaptController::new(KernelConfig::adaptive(8), AdaptPolicy::default(), 1);
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
        let c = AdaptController::new(KernelConfig::adaptive(16), AdaptPolicy::default(), 42);
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
        let run = || {
            AdaptController::new(KernelConfig::adaptive(8), AdaptPolicy::default(), 7)
                .converge_des(build, 8)
        };
        let (a, b) = (run(), run());
        assert_eq!(render_log(&a.decisions), render_log(&b.decisions));
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.config, b.config);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_panic() {
        let policy = AdaptPolicy {
            promote_share_bp: 10,
            demote_share_bp: 50,
            ..AdaptPolicy::default()
        };
        AdaptController::new(KernelConfig::adaptive(4), policy, 0);
    }
}
