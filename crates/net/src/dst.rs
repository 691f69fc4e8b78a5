//! The destination (routing) cache and its reference counts.

use crate::config::NetConfig;
use pk_percpu::{CoreId, IntKeyMap};
use pk_sloppy::{DeallocError, RefCount};
use pk_sync::rcu::{self, RcuCell, RcuReadGuard};
use std::sync::Arc;

/// A routing-table entry (`struct dst_entry`).
///
/// "IP packet transmission contends on routing table entries" (Figure 1):
/// every transmitted packet takes and drops a reference on the
/// destination entry it routes through, so with one hot destination the
/// refcount cache line serializes all senders. PK's fix is a sloppy
/// counter (§4.3, §5.3 — the "final bottleneck" for memcached).
#[derive(Debug)]
pub struct DstEntry {
    /// Destination IPv4 address.
    pub dest_ip: u32,
    /// Next-hop/egress label (opaque in this model).
    pub gateway: u32,
    refcount: RefCount,
}

impl DstEntry {
    /// Creates an entry with one (cache) reference.
    pub fn new(dest_ip: u32, gateway: u32, sloppy: bool, cores: usize) -> Self {
        Self::with_refcount(dest_ip, gateway, RefCount::new(sloppy, cores))
    }

    /// [`DstEntry::new`] with an explicit refcount backing — how the
    /// cache selects the generation-2 per-core count when
    /// `NetConfig::percore_dst_refs` is set.
    pub fn with_refcount(dest_ip: u32, gateway: u32, refcount: RefCount) -> Self {
        Self {
            dest_ip,
            gateway,
            refcount,
        }
    }

    /// Takes a reference for a packet in flight.
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        self.refcount.get(core)
    }

    /// Drops a packet's reference.
    pub fn put(&self, core: CoreId) {
        self.refcount.put(core);
    }

    /// Exact reference count.
    pub fn references(&self) -> i64 {
        self.refcount.references()
    }

    /// Returns `(shared_ops, local_ops)` of the refcount.
    pub fn refcount_ops(&self) -> (u64, u64) {
        self.refcount.op_counts()
    }

    /// Attempts to deallocate the entry (reconciles if sloppy).
    pub fn try_dealloc(&self) -> Result<(), DeallocError> {
        self.refcount.try_dealloc()
    }
}

/// One published snapshot of the cache.
#[derive(Debug, Default, Clone)]
struct Routes {
    /// Keyed by destination address: an integer the drivers make up,
    /// not outside input, so no SipHash per packet. The `Arc` is what
    /// successive snapshots share; packets borrow, they never clone it.
    live: IntKeyMap<u32, Arc<DstEntry>>,
    /// Refcount operations of the routes evicted so far: what keeps
    /// [`DstCache::op_counts`] from running backwards.
    evicted_ops: (u64, u64),
}

/// The destination cache: destination IP → [`DstEntry`], RCU-published.
///
/// Lookups run under the caller's read-side section, as Linux 2.6.35's
/// route-cache lookups run under `rcu_read_lock_bh`: they write nothing
/// but the entry's refcount. Inserts and evictions copy the map and
/// publish it, so a write costs O(routes) — at most 513 routes per
/// kernel in the repo benchmark's `kernel_apps`; a workload that needs
/// more would shard the map into RCU buckets the way the dcache does.
#[derive(Debug)]
pub struct DstCache {
    routes: RcuCell<Routes>,
    config: NetConfig,
}

impl DstCache {
    /// Creates an empty cache.
    pub fn new(config: NetConfig) -> Self {
        Self {
            routes: RcuCell::new(Routes::default()),
            config,
        }
    }

    /// Takes a packet reference on `dest_ip`'s entry on behalf of `core`
    /// and lends the entry for the rest of `guard`'s read section.
    ///
    /// The refcount is the `dst_entry` count the paper measures; it is
    /// not what keeps the memory alive. An entry is freed with the last
    /// snapshot holding it, after a grace period, so the borrow outlives
    /// even an eviction published meanwhile (`call_rcu` on `dst_entry`
    /// in Linux).
    ///
    /// `None` on a miss: no entry yet, or one an eviction has just
    /// killed. The caller ends its section, calls [`DstCache::insert`]
    /// and retries.
    pub fn route<'g>(
        &self,
        dest_ip: u32,
        core: CoreId,
        guard: &'g RcuReadGuard,
    ) -> Option<&'g DstEntry> {
        let entry = self.routes.read(guard).live.get(&dest_ip)?;
        entry.get(core).is_ok().then_some(&**entry)
    }

    /// Caches an entry for `dest_ip` unless one is already there.
    ///
    /// Publishes, so callers run it outside their read-side section:
    /// inside one, the retire's `call_rcu` only queues the old snapshot
    /// and leaves its reap to a later retire.
    pub fn insert(&self, dest_ip: u32) {
        let config = self.config;
        let _already_cached = self.routes.try_publish(|routes| {
            if routes.live.contains_key(&dest_ip) {
                return Err(());
            }
            let refcount = RefCount::new_scaled(
                config.sloppy_dst_refs,
                config.percore_dst_refs,
                config.cores,
            );
            let entry = DstEntry::with_refcount(dest_ip, dest_ip ^ 0x0101_0101, refcount);
            let mut routes = routes.clone();
            routes.live.insert(dest_ip, Arc::new(entry));
            Ok(routes)
        });
    }

    /// `(shared_ops, local_ops)` of the refcounts of every route this
    /// cache has held, summed when asked: `route` itself writes no
    /// cache-wide line.
    pub fn op_counts(&self) -> (u64, u64) {
        let g = rcu::read_lock();
        let routes = self.routes.read(&g);
        routes
            .live
            .values()
            .map(|e| e.refcount_ops())
            .fold(routes.evicted_ops, |(s, l), (es, el)| (s + es, l + el))
    }

    /// Number of cached routes.
    pub fn len(&self) -> usize {
        let g = rcu::read_lock();
        self.routes.read(&g).live.len()
    }

    /// Returns whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to evict the route for `dest_ip`; fails while packets
    /// hold references (the reconcile-on-dealloc protocol).
    ///
    /// The decision is taken under the cache's writer lock, and the
    /// evicted entry is retired with the snapshot that still holds it:
    /// a packet that borrowed it keeps a valid entry (whose `get` now
    /// fails) until its section ends.
    pub fn evict(&self, dest_ip: u32) -> Result<(), DeallocError> {
        self.routes.try_publish(|routes| {
            let Some(e) = routes.live.get(&dest_ip) else {
                return Err(DeallocError::AlreadyDead);
            };
            // Drop the cache's own reference for the check, restoring
            // it on failure.
            e.put(CoreId(0));
            if let Err(err) = e.try_dealloc() {
                e.get(CoreId(0)).expect("entry still live");
                return Err(err);
            }
            let (shared, local) = e.refcount_ops();
            let mut routes = routes.clone();
            routes.live.remove(&dest_ip);
            routes.evicted_ops.0 += shared;
            routes.evicted_ops.1 += local;
            Ok(routes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sloppy: bool) -> DstCache {
        let cfg = if sloppy {
            // Pin the flat sloppy backing: these tests exercise the
            // §4.3 protocol; the per-core count has its own test below.
            NetConfig {
                percore_dst_refs: false,
                ..NetConfig::pk(4)
            }
        } else {
            NetConfig::stock(4)
        };
        DstCache::new(cfg)
    }

    /// One packet's route get/put, as `udp_send` does it.
    fn send(c: &DstCache, dest_ip: u32, core: CoreId) {
        c.insert(dest_ip);
        let g = rcu::read_lock();
        c.route(dest_ip, core, &g).expect("inserted").put(core);
    }

    /// `(shared, local)` refcount operations of the entry for `dest_ip`.
    fn ops_of(c: &DstCache, dest_ip: u32) -> (u64, u64) {
        let g = rcu::read_lock();
        c.routes.read(&g).live[&dest_ip].refcount_ops()
    }

    #[test]
    fn route_misses_until_inserted_then_reuses() {
        let c = cache(true);
        let g = rcu::read_lock();
        assert!(c.route(0x0a000001, CoreId(0), &g).is_none(), "cold miss");
        drop(g);
        c.insert(0x0a000001);
        c.insert(0x0a000001);
        assert_eq!(c.len(), 1, "a second insert finds the first");
        let g = rcu::read_lock();
        let e1 = c.route(0x0a000001, CoreId(0), &g).unwrap();
        let e2 = c.route(0x0a000001, CoreId(1), &g).unwrap();
        assert!(std::ptr::eq(e1, e2));
        assert_eq!(e1.references(), 3); // cache + 2 packets
        e1.put(CoreId(0));
        e2.put(CoreId(1));
    }

    #[test]
    fn hot_destination_is_core_local_when_sloppy() {
        let c = cache(true);
        // Warm up each core's spares.
        for core in 0..4 {
            send(&c, 1, CoreId(core));
        }
        let (shared_before, _) = ops_of(&c, 1);
        for _ in 0..1_000 {
            send(&c, 1, CoreId(2));
        }
        assert_eq!(shared_before, ops_of(&c, 1).0, "hot path must stay local");
    }

    #[test]
    fn atomic_refcount_is_always_shared() {
        let c = cache(false);
        for _ in 0..100 {
            send(&c, 1, CoreId(0));
        }
        let (shared, local) = ops_of(&c, 1);
        assert_eq!(shared, 200);
        assert_eq!(local, 0);
    }

    #[test]
    fn pk_preset_routes_through_per_core_counts() {
        // The full PK preset (percore_dst_refs on) backs dst refcounts
        // with per-core counts: every get and put stays on the acting
        // core's line, warm or cold, and a packet released on another
        // core than it was routed on is no exception.
        let c = DstCache::new(NetConfig::pk(8));
        send(&c, 1, CoreId(2));
        let g = rcu::read_lock();
        for core in 0..8 {
            c.route(1, CoreId(core), &g).unwrap().put(CoreId(7 - core));
        }
        drop(g);
        // The creator's reference, then 9 get/put pairs.
        assert_eq!(ops_of(&c, 1), (0, 1 + 2 * 9));
        assert_eq!(c.evict(1), Ok(()));
    }

    #[test]
    fn evict_respects_in_flight_packets() {
        let c = cache(true);
        c.insert(7);
        let g = rcu::read_lock();
        let e = c.route(7, CoreId(0), &g).unwrap();
        assert!(c.evict(7).is_err(), "packet in flight");
        e.put(CoreId(0));
        let before = c.op_counts();
        assert_eq!(c.evict(7), Ok(()));
        assert!(c.is_empty());
        assert!(c.evict(7).is_err(), "already gone");
        // The borrow outlives the eviction: the entry is retired with
        // the snapshot this section still reads, and it is dead.
        assert_eq!(e.dest_ip, 7);
        assert!(
            c.route(7, CoreId(0), &g).is_none(),
            "the new snapshot misses"
        );
        assert!(
            e.get(CoreId(0)).is_err(),
            "an evicted entry takes no packet"
        );
        drop(g);
        let after = c.op_counts();
        assert!(
            after.0 >= before.0 && after.1 >= before.1,
            "an evicted route keeps its operations: {before:?} -> {after:?}"
        );
        send(&c, 7, CoreId(0));
        assert_eq!(c.len(), 1, "a miss after eviction caches a fresh entry");
    }

    /// The totals are every route's operations, not the last-routed
    /// one's, and they only grow.
    #[test]
    fn op_counts_sum_every_route_and_never_run_backwards() {
        for sloppy in [false, true] {
            let c = cache(sloppy);
            let mut last = c.op_counts();
            assert_eq!(last, (0, 0));
            let mut send = |dest| {
                send(&c, dest, CoreId(1));
                let now = c.op_counts();
                assert!(now.0 >= last.0 && now.1 >= last.1, "{last:?} -> {now:?}");
                last = now;
            };
            for _ in 0..100 {
                send(1);
            }
            send(2);
            let (shared, local) = c.op_counts();
            // 100 + 1 get/put pairs; a sloppy count also pays one
            // shared operation per route to fetch its first spares.
            assert_eq!(shared + local, if sloppy { 204 } else { 202 });
            assert_eq!(sloppy, local > shared, "({shared}, {local})");
            let sum = [1, 2]
                .map(|dest| ops_of(&c, dest))
                .iter()
                .fold((0, 0), |(s, l), (es, el)| (s + es, l + el));
            assert_eq!((shared, local), sum);
        }
    }

    /// Under Miri: an entry borrowed under a guard stays readable while
    /// an eviction and an insert each publish and retire a snapshot.
    #[test]
    fn miri_smoke_borrowed_route_survives_eviction() {
        let c = cache(true);
        c.insert(7);
        let g = rcu::read_lock();
        let e = c.route(7, CoreId(1), &g).unwrap();
        e.put(CoreId(1));
        assert_eq!(c.evict(7), Ok(()));
        c.insert(8);
        assert_eq!((e.dest_ip, e.gateway), (7, 7 ^ 0x0101_0101));
        drop(g);
        rcu::rcu_barrier();
    }
}
