//! `call_rcu`'s counters under threads. Each retiring thread bumps the
//! retirement and free counters of its own registry slot, without a
//! `lock`-prefixed instruction; [`rcu::stats_snapshot`] sums the slots.
//! Once the retirers are joined and a barrier has run, the sums must be
//! exact. This file holds one test so that no other test of the process
//! retires concurrently.

use pk_sync::rcu;

const THREADS: u64 = 4;
const RETIRES: u64 = 10_000;

#[test]
fn counters_are_exact_once_the_retirers_are_joined() {
    rcu::rcu_barrier();
    let before = rcu::stats_snapshot();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..RETIRES {
                    rcu::defer_drop(Box::new([t, i]));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    rcu::rcu_barrier();
    let after = rcu::stats_snapshot();
    assert_eq!(
        after.call_rcu_calls - before.call_rcu_calls,
        THREADS * RETIRES
    );
    assert_eq!(
        after.deferred_freed - before.deferred_freed,
        THREADS * RETIRES
    );
    assert_eq!(after.deferred_pending, before.deferred_pending);
    assert_eq!(after.deferred_pending, 0, "the barrier drained every queue");
}
