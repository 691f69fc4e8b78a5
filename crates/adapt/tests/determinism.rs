//! The determinism contract and the hysteresis state machine, tested
//! from outside the crate.
//!
//! ISSUE-8's contract: at a pinned seed the controller's decision log
//! is **byte-identical** run to run, *including* runs racing on
//! separate OS threads — the controller is driven by the simulator's
//! virtual clock, so host scheduling must be unobservable. Hysteresis
//! is checked by property: over arbitrary observation streams, no knob
//! ever reverses inside its cooldown window, consecutive decisions for
//! a knob strictly alternate, and every decision's trigger share is on
//! the correct side of the band.

use pk_adapt::{AdaptController, Observation, COOLDOWN_EPOCHS, DEMOTE_SHARE_BP, PROMOTE_SHARE_BP};
use pk_kernel::{FixId, KernelConfig};
use pk_sim::{Network, Station};
use proptest::prelude::*;
use std::thread;

/// A three-bottleneck synthetic network: each classed station's demand
/// vanishes once its fix is promoted (the `demand_unless` idiom), at
/// which point the next-worst bottleneck dominates — forcing the
/// controller through a multi-epoch promotion cascade.
fn cascade(cfg: &KernelConfig) -> Network {
    let mut n = Network::new();
    n.push(Station::delay("user", 9_000.0, false));
    let d = |fix: FixId, cycles: f64| if cfg.has(fix) { 0.0 } else { cycles };
    n.push(
        Station::spinlock("mount lock", d(FixId::PerCoreMountCache, 700.0), 0.35, true)
            .with_class("vfs.mount_table"),
    );
    n.push(
        Station::queue("dentry refs", d(FixId::SloppyDentryRefs, 260.0), true)
            .with_class("vfs.dentry_ref"),
    );
    n.push(
        Station::queue("dst refs", d(FixId::SloppyDstRefs, 120.0), true).with_class("net.dst_ref"),
    );
    n
}

#[test]
fn decision_log_is_byte_identical_across_os_threads() {
    let run = || AdaptController::new(KernelConfig::adaptive(48), 42).converge_des(cascade, 48);
    let reference = run();
    assert!(reference.converged, "cascade must settle");
    assert!(
        !reference.decisions.is_empty(),
        "cascade must promote something"
    );

    // Eight racing controllers, each on its own OS thread, interleaved
    // however the host scheduler pleases.
    let handles: Vec<_> = (0..8)
        .map(|_| thread::spawn(move || run().decisions))
        .collect();
    for h in handles {
        assert_eq!(
            h.join().unwrap(),
            reference.decisions,
            "host scheduling leaked into the decision log"
        );
    }
}

#[test]
fn cascade_promotes_every_bottleneck_without_flapping() {
    let out = AdaptController::new(KernelConfig::adaptive(48), 42).converge_des(cascade, 48);
    assert!(out.config.has(FixId::PerCoreMountCache));
    assert!(out.config.has(FixId::SloppyDentryRefs));
    assert!(out.config.has(FixId::SloppyDstRefs));
    assert_eq!(
        out.max_direction_changes(),
        1,
        "each knob moves exactly once: {:?}",
        out.decisions
    );
}

#[test]
fn different_seeds_may_differ_but_each_seed_is_stable() {
    for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
        let run =
            |s: u64| AdaptController::new(KernelConfig::adaptive(24), s).converge_des(cascade, 24);
        let (a, b) = (run(seed), run(seed));
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.config, b.config);
        assert_eq!(a.epochs, b.epochs);
    }
}

/// Classes with registered fixes, used by the property streams.
const CLASSES: [&str; 4] = [
    "vfs.mount_table",
    "vfs.dentry_ref",
    "net.dst_ref",
    "mm.page_line",
];

fn observation_stream() -> impl Strategy<Value = Vec<Vec<(usize, u64)>>> {
    // Up to 40 epochs; each epoch observes a subset of the classes at
    // an arbitrary share in [0, 10000] basis points.
    proptest::collection::vec(
        proptest::collection::vec((0usize..CLASSES.len(), 0u64..10_001), 1..CLASSES.len()),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hysteresis_never_reverses_inside_cooldown(stream in observation_stream()) {
        let mut c = AdaptController::new(KernelConfig::adaptive(8), 1);
        for epoch in &stream {
            let obs: Vec<Observation> = epoch
                .iter()
                .map(|&(i, share_bp)| Observation { class: CLASSES[i], share_bp })
                .collect();
            c.observe(&obs);
        }
        // Per-knob invariants over the full log.
        for class in CLASSES {
            let knob: Vec<_> = c.decisions().iter().filter(|d| d.class == class).collect();
            for pair in knob.windows(2) {
                prop_assert_ne!(
                    pair[0].enabled, pair[1].enabled,
                    "consecutive decisions for a knob must alternate"
                );
                prop_assert!(
                    pair[1].epoch - pair[0].epoch >= COOLDOWN_EPOCHS,
                    "reversal inside the cooldown window: {:?} then {:?}",
                    pair[0], pair[1]
                );
            }
        }
        // Every decision fired on the correct side of the band.
        for d in c.decisions() {
            if d.enabled {
                prop_assert!(d.share_bp >= PROMOTE_SHARE_BP);
            } else {
                prop_assert!(d.share_bp <= DEMOTE_SHARE_BP);
            }
        }
    }

    #[test]
    fn identical_streams_give_identical_logs(stream in observation_stream()) {
        let feed = || {
            let mut c = AdaptController::new(KernelConfig::adaptive(8), 9);
            for epoch in &stream {
                let obs: Vec<Observation> = epoch
                    .iter()
                    .map(|&(i, share_bp)| Observation { class: CLASSES[i], share_bp })
                    .collect();
                c.observe(&obs);
            }
            c.decisions().to_vec()
        };
        prop_assert_eq!(feed(), feed());
    }
}
