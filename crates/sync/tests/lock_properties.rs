//! Property and stress tests for the synchronization primitives.

use pk_sync::{AdaptiveMutex, GenCounter, McsLock, SeqLock, SpinLock, TicketLock};
use proptest::prelude::*;
use std::sync::Arc;

// Mutual exclusion, `try_lock`, exact stats, panic release and the owned
// accessors are the shell's and are tested once over all four raw locks
// in `src/lock.rs`; what follows is what only one algorithm has.

#[test]
fn spin_lock_reports_whether_it_is_held() {
    let lock = SpinLock::new(0u32);
    assert!(!lock.is_locked());
    let g = lock.lock();
    assert!(lock.is_locked());
    drop(g);
    assert!(!lock.is_locked());
}

#[test]
fn ticket_queue_depth_counts_the_holder_and_serves_in_arrival_order() {
    let lock = Arc::new(TicketLock::new(Vec::new()));
    assert_eq!(lock.queue_depth(), 0);
    let first = lock.lock();
    assert_eq!(lock.queue_depth(), 1);
    let mut handles = Vec::new();
    for id in 0..2 {
        // Fix the arrival order: the next waiter is spawned only once
        // the previous one holds its ticket.
        let lock2 = Arc::clone(&lock);
        handles.push(std::thread::spawn(move || lock2.lock().push(id)));
        while lock.queue_depth() < 2 + id {
            std::thread::yield_now();
        }
    }
    drop(first);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*lock.lock(), vec![0, 1]);
    assert_eq!(lock.queue_depth(), 0);
}

#[test]
fn adaptive_mutex_records_no_starvation_when_uncontended() {
    let m = AdaptiveMutex::new(());
    drop(m.lock());
    drop(m.lock());
    assert_eq!(m.stats().acquisitions(), 2);
    assert_eq!(m.stats().contended(), 0);
    assert_eq!(m.max_wait_rounds(), 0);
}

proptest! {
    /// SeqLock: any interleaved sequence of writes is observed
    /// atomically; the final read equals the last write.
    #[test]
    fn seqlock_reads_match_last_write(values in proptest::collection::vec(any::<u64>(), 1..50)) {
        let sl = SeqLock::new((0u64, 0u64));
        for &v in &values {
            *sl.write() = (v, v.wrapping_mul(31));
            let (a, b) = sl.read();
            prop_assert_eq!(a, v);
            prop_assert_eq!(b, v.wrapping_mul(31));
        }
        prop_assert_eq!(sl.sequence(), 2 * values.len() as u64);
    }

    /// GenCounter: any series of write sessions leaves the counter
    /// readable, with every snapshot from before a write invalidated.
    #[test]
    fn gen_counter_invalidates_old_snapshots(writes in 1..20usize) {
        let g = GenCounter::new();
        let mut old_snapshots = Vec::new();
        for _ in 0..writes {
            old_snapshots.push(g.begin_read().unwrap());
            g.begin_write();
            prop_assert!(g.begin_read().is_none());
            g.end_write();
        }
        let current = g.begin_read().unwrap();
        prop_assert!(g.validate(current));
        for snap in old_snapshots {
            prop_assert!(!g.validate(snap), "stale snapshot accepted");
        }
    }

    /// Lock statistics: acquisitions count exactly, contended ≤ total.
    #[test]
    fn lock_stats_are_consistent(acquires in 1..200usize) {
        let lock = SpinLock::new(());
        for _ in 0..acquires {
            drop(lock.lock());
        }
        prop_assert_eq!(lock.stats().acquisitions(), acquires as u64);
        prop_assert!(lock.stats().contended() <= lock.stats().acquisitions());
        prop_assert_eq!(lock.stats().contention_ratio(), 0.0);
    }
}

/// RCU: a chain of updates with concurrent readers never shows a torn or
/// reclaimed value.
#[test]
fn rcu_chain_of_updates_is_safe() {
    use pk_sync::rcu::{self, RcuCell};
    let cell = Arc::new(RcuCell::new(vec![0u8; 64]));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                for _ in 0..2_000 {
                    let g = rcu::read_lock();
                    let v = cell.read(&g);
                    let first = v[0];
                    assert!(v.iter().all(|&b| b == first), "torn snapshot");
                }
            });
        }
        let cell = Arc::clone(&cell);
        s.spawn(move || {
            for i in 1..=50u8 {
                cell.publish(false, |_| vec![i; 64]);
            }
        });
    });
    let g = pk_sync::rcu::read_lock();
    assert_eq!(cell.read(&g)[0], 50);
}

/// Seqlock under a live writer thread: readers never observe a torn
/// write (the two halves always satisfy the invariant), and every read
/// succeeds within a bounded number of retries — the writer's critical
/// section is short, so a reader cannot be starved indefinitely.
#[test]
fn seqlock_readers_never_torn_and_retries_bounded() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const READS_PER_READER: usize = 20_000;
    const RETRY_BOUND: usize = 100_000;
    // Pure spins below this many retries; yields above it. On a
    // single-CPU host the writer can be preempted *inside* its
    // two-store critical section for a whole scheduler quantum — a
    // reader must hand the CPU back so the writer can finish, or the
    // retry bound measures the host's timeslice instead of the lock.
    const SPIN_BEFORE_YIELD: usize = 64;
    let sl = Arc::new(SeqLock::new((0u64, 0u64)));
    let stop = Arc::new(AtomicBool::new(false));
    // Raises `stop` even if an assertion unwinds the scope closure:
    // otherwise `thread::scope`'s implicit join waits forever on the
    // writer's `while !stop` loop and a failure turns into a hang.
    struct StopOnDrop(Arc<AtomicBool>);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(Arc::clone(&stop));
        {
            let sl = Arc::clone(&sl);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v = v.wrapping_add(1);
                    *sl.write() = (v, v.wrapping_mul(31));
                    // Let readers through between writes; a writer that
                    // never leaves the CPU starves them by scheduling,
                    // which is not the property under test.
                    std::thread::yield_now();
                }
            });
        }
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let sl = Arc::clone(&sl);
                s.spawn(move || {
                    let mut max_attempts = 0usize;
                    for _ in 0..READS_PER_READER {
                        let mut attempts = 0usize;
                        let (a, b) = loop {
                            match sl.try_read() {
                                Ok(snap) => break snap,
                                Err(_) => {
                                    attempts += 1;
                                    assert!(
                                        attempts < RETRY_BOUND,
                                        "reader starved: {attempts} retries on one read"
                                    );
                                    if attempts < SPIN_BEFORE_YIELD {
                                        std::hint::spin_loop();
                                    } else {
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        };
                        assert_eq!(b, a.wrapping_mul(31), "torn read: ({a}, {b})");
                        max_attempts = max_attempts.max(attempts);
                    }
                    max_attempts
                })
            })
            .collect();
        for r in readers {
            let max_attempts = r.join().unwrap();
            assert!(max_attempts < RETRY_BOUND);
        }
    });
}

/// The MCS lock frees all queue nodes (no leak panic under Miri-less
/// sanity: handoff chains of varying length complete).
#[test]
fn mcs_handoff_chains_complete() {
    for waiters in [1, 2, 5, 9] {
        let lock = Arc::new(McsLock::new(0usize));
        let held = lock.lock();
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    *lock.lock() += 1;
                })
            })
            .collect();
        std::thread::yield_now();
        drop(held);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), waiters);
    }
}

/// Ticket locks remain fair under churn: a queued waiter is served
/// before a later arrival (probabilistic check via strict FIFO count).
#[test]
fn ticket_lock_progress_under_churn() {
    let lock = Arc::new(TicketLock::new(Vec::<usize>::new()));
    std::thread::scope(|s| {
        for t in 0..4 {
            let lock = Arc::clone(&lock);
            s.spawn(move || {
                for _ in 0..500 {
                    lock.lock().push(t);
                }
            });
        }
    });
    assert_eq!(lock.lock().len(), 2_000);
}
