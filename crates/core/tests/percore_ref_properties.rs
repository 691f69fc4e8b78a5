//! Property-based and concurrent tests for the per-core reference
//! count — the generation-2 backing of PK's dentries, vfsmounts and dst
//! entries. The properties `snzi_properties.rs` guards for the tree,
//! restated on the per-core counts:
//!
//! * while a reference is held, `references()` is at least 1;
//! * `references()` and the count `try_dealloc` settles on are exact
//!   after gets and puts migrated across cores, and deallocation
//!   succeeds exactly at zero, never resurrecting;
//! * a core's count may leave the 32-bit range (every reference of a
//!   busy object dropped on one core) and the sum stays exact.

use pk_percpu::CoreId;
use pk_sloppy::{Counter, DeallocError, PerCoreCount, PerCoreRefCount};
use proptest::prelude::*;

const CORES: usize = 8;

proptest! {
    /// Gets on one core, puts on another: `references` follows the
    /// model at every step, a refused dealloc names the exact count,
    /// and the dealloc at zero kills the object for good.
    #[test]
    fn settle_is_exact_after_migrated_gets_and_puts(
        ops in proptest::collection::vec((0..CORES, 0..CORES, prop::bool::ANY), 1..150),
    ) {
        let rc = PerCoreRefCount::new(CORES);
        let mut refs: i64 = 1; // the creator's reference
        for &(get_core, put_core, get) in &ops {
            if get {
                rc.get(CoreId(get_core)).unwrap();
                refs += 1;
            } else if refs > 1 {
                rc.put(CoreId(put_core));
                refs -= 1;
            }
            prop_assert_eq!(rc.references(), refs);
            prop_assert!(rc.references() >= 1, "a held reference went missing");
            prop_assert_eq!(rc.try_dealloc(), Err(DeallocError::InUse { remaining: refs }));
        }
        prop_assert_eq!(rc.op_counts().0, 0, "no operation writes a shared line");
        for core in 0..refs {
            rc.put(CoreId(core as usize % CORES));
        }
        prop_assert_eq!(rc.references(), 0);
        prop_assert_eq!(rc.try_dealloc(), Ok(()));
        prop_assert_eq!(rc.get(CoreId(0)), Err(DeallocError::AlreadyDead));
        prop_assert_eq!(rc.references(), 0, "a refused get leaves nothing behind");
    }

    /// One `add` per core, each far past ±2³¹: the sum is exact.
    #[test]
    fn counts_beyond_32_bits_sum_exactly(
        adds in proptest::collection::vec(
            (0..CORES, (1i64 << 31)..(1i64 << 40), prop::bool::ANY),
            1..24,
        ),
    ) {
        let c = PerCoreCount::new(CORES);
        let mut model = [0i64; CORES];
        for &(core, size, negative) in &adds {
            let delta = if negative { -size } else { size };
            c.add(CoreId(core), delta);
            model[core] += delta;
        }
        prop_assert_eq!(c.value(), model.iter().sum::<i64>());
        prop_assert_eq!(c.op_counts(), (0, adds.len() as u64));
    }
}

/// Every reference is taken on one core and dropped on another, by
/// real threads: at quiescence only the creator's reference remains,
/// deallocation succeeds, and the dead object refuses new gets.
#[test]
fn concurrent_migration_preserves_the_refcount() {
    use std::sync::mpsc;
    use std::sync::Mutex;

    let rc = PerCoreRefCount::new(CORES);
    let (tx, rx) = mpsc::channel::<()>();
    let rx = Mutex::new(rx);
    std::thread::scope(|s| {
        for core in 0..4 {
            let (rc, tx) = (&rc, tx.clone());
            s.spawn(move || {
                for _ in 0..2_000 {
                    rc.get(CoreId(core)).unwrap();
                    tx.send(()).unwrap();
                }
            });
        }
        drop(tx);
        for core in 4..CORES {
            let (rc, rx) = (&rc, &rx);
            s.spawn(move || {
                while rx.lock().unwrap().recv().is_ok() {
                    rc.put(CoreId(core));
                }
            });
        }
    });
    assert_eq!(rc.references(), 1, "only the creator's reference remains");
    assert_eq!(rc.op_counts(), (0, 1 + 2 * 4 * 2_000));
    rc.put(CoreId(7));
    assert_eq!(rc.try_dealloc(), Ok(()));
    assert!(rc.get(CoreId(0)).is_err(), "dead object refuses gets");
}

/// While one reference is provably held, churn on every other core
/// never lets the summed count read below 1, nor a dealloc succeed.
#[test]
fn a_held_reference_is_never_summed_away() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let rc = PerCoreRefCount::new(CORES);
    rc.get(CoreId(0)).unwrap(); // the held reference
    rc.put(CoreId(0)); // drops the creator's: only the held one is left
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for core in 1..4 {
            let (rc, stop) = (&rc, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    rc.get(CoreId(core)).unwrap();
                    rc.put(CoreId(core));
                }
            });
        }
        for _ in 0..20_000 {
            assert!(rc.references() >= 1, "the held reference was summed away");
            assert!(rc.try_dealloc().is_err());
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(rc.references(), 1);
    rc.put(CoreId(0));
    assert_eq!(rc.try_dealloc(), Ok(()));
}
