//! Property-based tests for the counter designs.
//!
//! The central property is the paper's sloppy-counter invariant (§4.3):
//! the central counter equals the sum of per-core spare counts plus the
//! number of references in use — under *any* interleaving of acquires and
//! releases on any cores, with any threshold/prefetch tuning.

use pk_percpu::CoreId;
use pk_sloppy::{
    ApproxCounter, AtomicCounter, Counter, DistributedCounter, SloppyConfig, SloppyCounter,
    SnziCounter,
};
use proptest::prelude::*;

/// One step of a counter workload.
#[derive(Debug, Clone)]
enum Op {
    Acquire { core: usize, v: i64 },
    Release { core: usize, v: i64 },
}

fn op_strategy(cores: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cores, 0..8i64).prop_map(|(core, v)| Op::Acquire { core, v }),
        (0..cores, 0..8i64).prop_map(|(core, v)| Op::Release { core, v }),
    ]
}

proptest! {
    /// central = in_use + spares after every single operation.
    #[test]
    fn sloppy_invariant_holds_under_any_sequence(
        threshold in 0..32i64,
        prefetch in 0..8i64,
        ops in proptest::collection::vec(op_strategy(6), 1..200),
    ) {
        let c = SloppyCounter::with_config(6, SloppyConfig { threshold, prefetch });
        let mut in_use: i64 = 0;
        for op in &ops {
            match *op {
                Op::Acquire { core, v } => {
                    c.acquire(CoreId(core), v);
                    in_use += v;
                }
                Op::Release { core, v } => {
                    // Only release what is actually held, as refcount
                    // clients do.
                    let v = v.min(in_use);
                    c.release(CoreId(core), v);
                    in_use -= v;
                }
            }
            prop_assert_eq!(c.central(), in_use + c.spares());
            prop_assert!(c.central() >= in_use, "central is an upper bound");
            prop_assert_eq!(c.in_use(), in_use);
        }
        // Reconciliation always lands on the exact value and clears spares.
        prop_assert_eq!(c.reconcile(), in_use);
        prop_assert_eq!(c.spares(), 0);
    }

    /// All exact-read designs agree with a sequential model.
    #[test]
    fn designs_agree_with_sequential_model(
        deltas in proptest::collection::vec((0..4usize, -5..6i64), 1..100),
    ) {
        let atomic = AtomicCounter::new();
        let dist = DistributedCounter::new(4);
        let approx = ApproxCounter::new(4, 3);
        let mut model: i64 = 0;
        for &(core, delta) in &deltas {
            atomic.add(CoreId(core), delta);
            dist.add(CoreId(core), delta);
            approx.add(CoreId(core), delta);
            model += delta;
        }
        prop_assert_eq!(atomic.value(), model);
        prop_assert_eq!(dist.value(), model);
        prop_assert_eq!(approx.value(), model);
    }

    /// The approximate counter's cheap read is within its error bound.
    #[test]
    fn approx_error_bound_holds(
        batch in 1..16i64,
        deltas in proptest::collection::vec((0..4usize, -5..6i64), 1..200),
    ) {
        let approx = ApproxCounter::new(4, batch);
        for &(core, delta) in &deltas {
            approx.add(CoreId(core), delta);
            let err = (approx.value() - approx.approx_value()).abs();
            prop_assert!(err <= approx.max_error(),
                "error {} exceeds bound {}", err, approx.max_error());
        }
    }

    /// SNZI's cheap indicator always agrees with the exact value when
    /// arrives/departs pair up per leaf.
    #[test]
    fn snzi_indicator_matches_value(
        ops in proptest::collection::vec((0..4usize, 0..5i64, prop::bool::ANY), 1..150),
    ) {
        let s = SnziCounter::new(4);
        let mut held = [0i64; 4];
        for &(core, v, arrive) in &ops {
            if arrive {
                s.arrive(CoreId(core), v);
                held[core] += v;
            } else {
                let v = v.min(held[core]);
                s.depart(CoreId(core), v);
                held[core] -= v;
            }
            let total: i64 = held.iter().sum();
            prop_assert_eq!(s.query(), total > 0);
            prop_assert_eq!(s.value(), total);
        }
    }

    /// The refcount lifecycle: dealloc succeeds exactly when the model
    /// count reaches zero, and never resurrects.
    #[test]
    fn refcount_lifecycle(
        ops in proptest::collection::vec((0..4usize, prop::bool::ANY), 1..100,)
    ) {
        let rc = pk_sloppy::SloppyRefCount::new(4);
        let mut refs: i64 = 1;
        for &(core, get) in &ops {
            if get {
                rc.get(CoreId(core)).unwrap();
                refs += 1;
            } else if refs > 0 {
                rc.put(CoreId(core));
                refs -= 1;
            }
            prop_assert_eq!(rc.references(), refs);
            if refs > 0 {
                prop_assert!(rc.try_dealloc().is_err());
            } else {
                prop_assert_eq!(rc.try_dealloc(), Ok(()));
                prop_assert!(rc.get(CoreId(core)).is_err());
                return Ok(());
            }
        }
    }

    /// Thread migration: references acquired on core A and released on
    /// core B (never the same core) must preserve the invariant at every
    /// step — the spares just bank on a different core than the one that
    /// pulled from central.
    #[test]
    fn sloppy_invariant_survives_cross_core_migration(
        threshold in 0..16i64,
        prefetch in 0..8i64,
        moves in proptest::collection::vec((0..6usize, 1..6usize, 1..8i64), 1..100),
    ) {
        let c = SloppyCounter::with_config(6, SloppyConfig { threshold, prefetch });
        let mut in_use: i64 = 0;
        for &(from, hop, v) in &moves {
            // Acquire on `from`, release on a guaranteed-different core.
            let to = (from + hop) % 6;
            c.acquire(CoreId(from), v);
            in_use += v;
            prop_assert_eq!(c.central(), in_use + c.spares());
            c.release(CoreId(to), v);
            in_use -= v;
            prop_assert_eq!(c.central(), in_use + c.spares());
            prop_assert_eq!(c.in_use(), in_use);
        }
        // Migration leaves spares scattered across cores; reconcile must
        // still converge to the exact count and clear them all.
        prop_assert_eq!(c.reconcile(), in_use);
        prop_assert_eq!(c.spares(), 0);
        prop_assert_eq!(c.in_use(), in_use);
    }
}

/// Concurrent cross-core migration: producer threads acquire on their
/// own core and hand references to a consumer that releases them on a
/// *different* core, so every reference migrates. The invariant must
/// hold at quiescence and `reconcile()` must converge, for both the
/// default tuning and a prefetching, tiny-threshold config that
/// stresses the excess-return path.
#[test]
fn concurrent_migration_preserves_invariant() {
    use std::sync::mpsc;
    use std::sync::Arc;

    for config in [
        pk_sloppy::SloppyConfig::default(),
        pk_sloppy::SloppyConfig {
            threshold: 2,
            prefetch: 5,
        },
    ] {
        let cores = 8usize;
        let c = Arc::new(SloppyCounter::with_config(cores, config));
        let (tx, rx) = mpsc::channel::<i64>();
        let rx = Arc::new(std::sync::Mutex::new(rx));
        // Producers: acquire on cores 0..4 and ship the references out.
        let producers: Vec<_> = (0..4)
            .map(|core| {
                let c = Arc::clone(&c);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000i64 {
                        let v = 1 + (i % 3);
                        c.acquire(CoreId(core), v);
                        tx.send(v).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        // Consumers: release every shipped reference on cores 4..8 —
        // never the core that acquired it.
        let consumers: Vec<_> = (4..8)
            .map(|core| {
                let c = Arc::clone(&c);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    let v = match rx.lock().unwrap().recv() {
                        Ok(v) => v,
                        Err(_) => break,
                    };
                    c.release(CoreId(core), v);
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        for h in consumers {
            h.join().unwrap();
        }
        // Everything acquired was released: at quiescence the logical
        // value is zero, the invariant holds, and reconcile converges.
        assert_eq!(
            c.central(),
            c.spares(),
            "central = in_use + spares with in_use = 0 (config {config:?})"
        );
        assert_eq!(c.in_use(), 0, "all references released (config {config:?})");
        assert_eq!(c.reconcile(), 0, "reconcile converges (config {config:?})");
        assert_eq!(c.spares(), 0, "reconcile clears spares (config {config:?})");
    }
}
