//! The `VfsStats` counters the repo benchmark's `kernel_apps` golden
//! pins, pinned here per request: one Exim delivery, one Apache request
//! and one memcached round on each personality. A path-walk change that
//! moves a lookup, a `d_lock` or a mount resolution fails here, naming
//! the driver and the counter, before it fails the benchmark's golden.
//! The same requests pin the `NetStats` and destination-cache counters
//! the packet path moves, so a change to how a packet is routed, steered
//! or accepted fails here too.

use pk_kernel::{Kernel, Personality};
use pk_net::Protocol;
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

/// `skb_percore_allocs`, `skb_global_allocs`, `rx_steered_local`,
/// `rx_misdirected`, `accept_local_queue`, `accept_shared_queue`,
/// `accept_steals`, then the destination cache's `op_counts()` (shared,
/// local).
type NetCounts = [u64; 9];

fn net_counts(k: &Kernel) -> NetCounts {
    let s = k.net().stats();
    let (dst_shared, dst_local) = k.net().dst_cache().op_counts();
    [
        s.skb_percore_allocs.load(Relaxed),
        s.skb_global_allocs.load(Relaxed),
        s.rx_steered_local.load(Relaxed),
        s.rx_misdirected.load(Relaxed),
        s.accept_local_queue.load(Relaxed),
        s.accept_shared_queue.load(Relaxed),
        s.accept_steals.load(Relaxed),
        dst_shared,
        dst_local,
    ]
}

/// The VFS and net counters `op` moves on `k`.
fn delta(k: &Kernel, op: impl FnOnce()) -> (Counts, NetCounts) {
    fn sub<const N: usize>(after: [u64; N], before: [u64; N]) -> [u64; N] {
        std::array::from_fn(|i| after[i] - before[i])
    }
    let before = (counts(k), net_counts(k));
    op();
    let after = (counts(k), net_counts(k));
    (sub(after.0, before.0), sub(after.1, before.1))
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

/// Net deltas per personality: Apache, memcached (Exim sends no
/// packet). The Apache request is one handshake and one accept, which
/// PK's steering puts on another core's queue, so core 1 steals it. The
/// memcached round is twenty requests through the server's route and
/// twenty replies through the client's, each packet one skb allocation
/// and one dst get/put; the twenty requests are steered to their owner.
/// PK's dst counts are per-core: the 80 gets and puts and the two new
/// routes' creator references are all local, none shared.
const NET_WANT: [(Personality, [NetCounts; 2]); 4] = [
    (Personality::Stock, [NET_STOCK_HTTP, NET_STOCK_KV]),
    (Personality::Coarse, [NET_STOCK_HTTP, NET_STOCK_KV]),
    (Personality::Pk, [NET_PK_HTTP, NET_PK_KV]),
    (Personality::Adaptive, [NET_STOCK_HTTP, NET_STOCK_KV]),
];
const NET_STOCK_HTTP: NetCounts = [0, 0, 0, 0, 0, 1, 0, 0, 0];
const NET_STOCK_KV: NetCounts = [0, 40, 20, 0, 0, 0, 0, 80, 0];
const NET_PK_HTTP: NetCounts = [0, 0, 0, 0, 0, 0, 1, 0, 0];
const NET_PK_KV: NetCounts = [40, 0, 20, 0, 0, 0, 0, 0, 82];

#[test]
fn one_request_per_driver_moves_exactly_the_pinned_counters() {
    let mut got = Vec::new();
    let mut got_net = Vec::new();
    for (p, _) in WANT {
        let core = CoreId(1);
        let exim = EximDriver::new(p, 4).unwrap();
        let conn = exim.kernel().fork(Pid(1), core).unwrap();
        let (mail, no_packets) = delta(exim.kernel(), || {
            exim.deliver_message(core, conn, 0, 3).unwrap();
        });
        assert_eq!(no_packets, [0; 9], "{p:?}: Exim sends no packet");

        let apache = ApacheDriver::new(p, 4);
        apache.try_client_connect(0x0e00_0001).unwrap();
        let (http, http_net) = delta(apache.kernel(), || {
            assert!(apache.serve_one(core.0).is_some());
        });
        assert_eq!(apache.served(), 1);

        let memcached = MemcachedDriver::new(p, 4);
        let (kv, kv_net) = delta(memcached.kernel(), || {
            assert_eq!(
                memcached.client_batch(7, core.0),
                memcached.server_poll(core.0)
            );
        });
        got.push((p, [mail, http, kv]));
        got_net.push((p, [http_net, kv_net]));
    }
    assert_eq!(got, WANT, "(personality, [exim, apache, memcached] deltas)");
    assert_eq!(
        got_net, NET_WANT,
        "(personality, [apache, memcached] net deltas)"
    );
}

/// PK's protocol counter banks a page per core, so once a core has
/// carried one memcached round its next round — twenty 68-byte charges,
/// their releases, and twenty 64-byte replies — never writes the central
/// word. With a bank sized in references every packet went central.
#[test]
fn a_second_memcached_round_on_pk_writes_no_central_protocol_word() {
    let memcached = MemcachedDriver::new(Personality::Pk, 4);
    let central = || memcached.kernel().net().proto().op_counts(Protocol::Udp).0;
    let round = || assert_eq!(memcached.client_batch(7, 1), memcached.server_poll(1));
    round();
    let warm = central();
    assert!(
        warm > 0,
        "the first round fills the bank from the central word"
    );
    round();
    assert_eq!(central() - warm, 0);
}
