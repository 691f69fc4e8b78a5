//! The `VfsStats` counters the repo benchmark's `kernel_apps` golden
//! pins, pinned here per request: one Exim delivery, one Apache request
//! and one memcached round on each personality. A path-walk change that
//! moves a lookup, a `d_lock` or a mount resolution fails here, naming
//! the driver and the counter, before it fails the benchmark's golden.

use pk_kernel::{Kernel, Personality};
use pk_percpu::CoreId;
use pk_proc::Pid;
use pk_workloads::apache::ApacheDriver;
use pk_workloads::exim::EximDriver;
use pk_workloads::memcached::MemcachedDriver;
use std::sync::atomic::Ordering::Relaxed;

/// `lockfree_lookups`, `dentry_lock_acquisitions`, `mount_percore_hits`,
/// `mount_central_lookups`, `shared_events`.
type Counts = [u64; 5];

fn counts(k: &Kernel) -> Counts {
    let s = k.vfs().stats();
    [
        s.lockfree_lookups.load(Relaxed),
        s.dentry_lock_acquisitions.load(Relaxed),
        s.mount_percore_hits.load(Relaxed),
        s.mount_central_lookups.load(Relaxed),
        s.shared_events(),
    ]
}

/// The counters `op` moves on `k`.
fn delta(k: &Kernel, op: impl FnOnce()) -> Counts {
    let before = counts(k);
    op();
    let after = counts(k);
    std::array::from_fn(|i| after[i] - before[i])
}

/// Deltas per personality: Exim, Apache, memcached. Each driver is
/// freshly booted, so core 1's mount snapshot is cold (PK's one central
/// lookup) and the mailbox is created on first delivery. Memcached
/// never touches the VFS.
const WANT: [(Personality, [Counts; 3]); 4] = [
    (
        Personality::Stock,
        [[0, 11, 0, 5, 27], [0, 6, 0, 3, 12], [0; 5]],
    ),
    (
        Personality::Coarse,
        [[0, 11, 0, 5, 27], [0, 6, 0, 3, 12], [0; 5]],
    ),
    (Personality::Pk, [[8, 0, 5, 1, 5], [2, 0, 2, 1, 1], [0; 5]]),
    (
        Personality::Adaptive,
        [[0, 11, 0, 5, 27], [0, 6, 0, 3, 12], [0; 5]],
    ),
];

#[test]
fn one_request_per_driver_moves_exactly_the_pinned_counters() {
    let mut got = Vec::new();
    for (p, _) in WANT {
        let core = CoreId(1);
        let exim = EximDriver::new(p, 4).unwrap();
        let conn = exim.kernel().fork(Pid(1), core).unwrap();
        let mail = delta(exim.kernel(), || {
            exim.deliver_message(core, conn, 0, 3).unwrap();
        });

        let apache = ApacheDriver::new(p, 4);
        apache.try_client_connect(0x0e00_0001).unwrap();
        let http = delta(apache.kernel(), || {
            assert!(apache.serve_one(core.0).is_some());
        });
        assert_eq!(apache.served(), 1);

        let memcached = MemcachedDriver::new(p, 4);
        let kv = delta(memcached.kernel(), || {
            assert_eq!(
                memcached.client_batch(7, core.0),
                memcached.server_poll(core.0)
            );
        });
        got.push((p, [mail, http, kv]));
    }
    assert_eq!(got, WANT, "(personality, [exim, apache, memcached] deltas)");
}
