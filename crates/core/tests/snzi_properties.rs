//! Property-based and concurrent tests for the SNZI tree — the
//! generation-2 refcount backing (ISSUE 9 satellite).
//!
//! The central properties, checked against a sequential model under
//! any interleaving of arrives, departs, cross-socket migration and
//! reconciliation:
//!
//! * the cheap indicator is **exact in the sequential model**: `query`
//!   is true iff some leaf or the central word is nonzero — so
//!   nonzero-detection is never lost, and a false `query` proves every
//!   leaf already drained;
//! * `value` always equals the model sum (migration drives leaves
//!   negative, never loses a unit);
//! * `reconcile` converges to the exact count and clears all residue.
//!
//! Real-thread stress mirrors `counter_properties.rs`: migration
//! through a producer/consumer pipe, plus a holder thread proving the
//! indicator never reports zero while a reference is provably held.

use pk_percpu::CoreId;
use pk_sloppy::{Snzi, SnziRefCount};
use proptest::prelude::*;

/// Sequential model of the tree: per-leaf counts and the central word.
/// Mirrors the documented update rules only — no surplus bookkeeping,
/// which is exactly what the properties probe.
struct Model {
    leaves: Vec<i64>,
    central: i64,
}

impl Model {
    fn new(cores: usize) -> Self {
        Self {
            leaves: vec![0; cores],
            central: 0,
        }
    }

    fn add(&mut self, core: usize, delta: i64) {
        self.leaves[core] += delta;
    }

    fn reconcile(&mut self) {
        self.central += self.leaves.iter().sum::<i64>();
        self.leaves.iter_mut().for_each(|l| *l = 0);
    }

    fn value(&self) -> i64 {
        self.central + self.leaves.iter().sum::<i64>()
    }

    /// What `query` must report sequentially: some leaf carries
    /// surplus, or the central word is nonzero.
    fn nonzero(&self) -> bool {
        self.central != 0 || self.leaves.iter().any(|&l| l != 0)
    }
}

/// One step of a tree workload, decoded from a `(kind, core, n)`
/// tuple: kinds 0–3 arrive, 4–7 depart, 8 reconcile. Arrive/depart
/// cores are drawn independently, so cross-socket migration (negative
/// leaves) is the common case, not the corner.
#[derive(Debug, Clone)]
enum Op {
    Arrive { core: usize, n: i64 },
    Depart { core: usize, n: i64 },
    Reconcile,
}

impl Op {
    fn decode(kind: usize, core: usize, n: i64) -> Self {
        match kind {
            0..=3 => Op::Arrive { core, n },
            4..=7 => Op::Depart { core, n },
            _ => Op::Reconcile,
        }
    }
}

proptest! {
    /// The indicator is exact in the sequential model at every step,
    /// for any tree shape — including sockets that don't divide the
    /// core count (the 64×16-style shapes the wheel math must survive).
    #[test]
    fn tree_indicator_is_exact_in_the_sequential_model(
        cores in 1..12usize,
        sockets in 1..5usize,
        raw in proptest::collection::vec((0..9usize, 0..12usize, 0..6i64), 1..200),
    ) {
        let s = Snzi::new(cores, sockets);
        let mut model = Model::new(cores);
        for &(kind, core, n) in &raw {
            let op = Op::decode(kind, core, n);
            match op {
                Op::Arrive { core, n } => {
                    let core = core % cores;
                    s.arrive(CoreId(core), n);
                    model.add(core, n);
                }
                Op::Depart { core, n } => {
                    let core = core % cores;
                    s.depart(CoreId(core), n);
                    model.add(core, -n);
                }
                Op::Reconcile => {
                    prop_assert_eq!(s.reconcile(), {
                        model.reconcile();
                        model.central
                    });
                }
            }
            prop_assert_eq!(s.value(), model.value());
            prop_assert_eq!(s.query(), model.nonzero(),
                "indicator diverged from the model after {:?}",
                Op::decode(kind, core, n));
        }
        // However the run ended, reconciliation converges and leaves
        // the indicator exact on the logical value.
        model.reconcile();
        prop_assert_eq!(s.reconcile(), model.central);
        prop_assert_eq!(s.query(), model.value() != 0);
    }

    /// The SNZI refcount lifecycle under migration: gets and puts on
    /// unrelated cores, exact `references`, conservative
    /// `maybe_referenced`, and deallocation exactly at zero.
    #[test]
    fn snzi_refcount_lifecycle_survives_migration(
        sockets in 1..5usize,
        ops in proptest::collection::vec((0..8usize, prop::bool::ANY), 1..120),
    ) {
        let rc = SnziRefCount::new(8, sockets);
        let mut refs: i64 = 1; // the creator's reference
        for &(core, get) in &ops {
            if get {
                rc.get(CoreId(core)).unwrap();
                refs += 1;
            } else if refs > 0 {
                // Release on the *opposite* core so every reference
                // migrates across the tree.
                rc.put(CoreId(7 - core));
                refs -= 1;
            }
            prop_assert_eq!(rc.references(), refs);
            if refs > 0 {
                // Nonzero-detection is never lost: a held reference
                // must keep the cheap probe true...
                prop_assert!(rc.maybe_referenced());
                // ...and block deallocation.
                prop_assert!(rc.try_dealloc().is_err());
            } else {
                prop_assert_eq!(rc.try_dealloc(), Ok(()));
                prop_assert!(rc.get(CoreId(core)).is_err(), "no resurrection");
                return Ok(());
            }
        }
    }
}

/// Concurrent migration through a producer/consumer pipe: every
/// reference is acquired on one socket and released on another. At
/// quiescence only the creator's reference remains, deallocation
/// succeeds, and the dead object refuses new gets.
#[test]
fn concurrent_migration_preserves_the_refcount() {
    use std::sync::mpsc;
    use std::sync::Arc;

    let rc = Arc::new(SnziRefCount::new(8, 4));
    let (tx, rx) = mpsc::channel::<u32>();
    let rx = Arc::new(std::sync::Mutex::new(rx));
    // Producers: get on sockets 0–1 (cores 0..4) and ship out.
    let producers: Vec<_> = (0..4)
        .map(|core| {
            let rc = Arc::clone(&rc);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    rc.get(CoreId(core)).unwrap();
                    tx.send(1).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    // Consumers: put on sockets 2–3 (cores 4..8) — never the core (or
    // socket) that acquired.
    let consumers: Vec<_> = (4..8)
        .map(|core| {
            let rc = Arc::clone(&rc);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || {
                while rx.lock().unwrap().recv().is_ok() {
                    rc.put(CoreId(core));
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    for h in consumers {
        h.join().unwrap();
    }
    assert_eq!(rc.references(), 1, "only the creator's reference remains");
    assert!(rc.maybe_referenced());
    rc.put(CoreId(7));
    assert_eq!(rc.references(), 0);
    assert_eq!(rc.try_dealloc(), Ok(()));
    assert!(rc.get(CoreId(0)).is_err(), "dead object refuses gets");
}

/// Nonzero-detection is never lost: while one thread provably holds a
/// reference, no interleaving of churn on other cores may ever let the
/// cheap probe report zero.
#[test]
fn indicator_never_drops_a_held_reference() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let s = Arc::new(Snzi::new(8, 4));
    s.arrive(CoreId(0), 1); // the held reference
    let stop = Arc::new(AtomicBool::new(false));
    let churners: Vec<_> = (1..8)
        .map(|core| {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.arrive(CoreId(core), 1);
                    s.depart(CoreId(core), 1);
                }
            })
        })
        .collect();
    for _ in 0..50_000 {
        assert!(s.query(), "indicator dropped a held reference");
    }
    stop.store(true, Ordering::Relaxed);
    for h in churners {
        h.join().unwrap();
    }
    assert!(s.query());
    assert_eq!(s.reconcile(), 1);
}
