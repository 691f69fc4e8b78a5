//! The destination (routing) cache and its reference counts.

use crate::config::NetConfig;
use parking_lot::RwLock;
use pk_percpu::{CoreId, IntKeyMap};
use pk_sloppy::{DeallocError, RefCount};
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
    pub fn new(dest_ip: u32, gateway: u32, sloppy: bool, cores: usize) -> Arc<Self> {
        Self::with_refcount(dest_ip, gateway, RefCount::new(sloppy, cores))
    }

    /// [`DstEntry::new`] with an explicit refcount backing — how the
    /// cache selects the generation-2 SNZI tree when
    /// `NetConfig::snzi_dst_refs` is set.
    pub fn with_refcount(dest_ip: u32, gateway: u32, refcount: RefCount) -> Arc<Self> {
        Arc::new(Self {
            dest_ip,
            gateway,
            refcount,
        })
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

#[derive(Debug, Default)]
struct Routes {
    /// Keyed by destination address: an integer the drivers make up,
    /// not outside input, so no SipHash per packet.
    live: IntKeyMap<u32, Arc<DstEntry>>,
    /// Refcount operations of the routes evicted so far: what keeps
    /// [`DstCache::op_counts`] from running backwards.
    evicted_ops: (u64, u64),
}

/// The destination cache: destination IP → [`DstEntry`].
#[derive(Debug)]
pub struct DstCache {
    entries: RwLock<Routes>,
    config: NetConfig,
}

impl DstCache {
    /// Creates an empty cache.
    pub fn new(config: NetConfig) -> Self {
        Self {
            entries: RwLock::default(),
            config,
        }
    }

    /// Looks up (or creates) the entry for `dest_ip` and takes a packet
    /// reference on it on behalf of `core`.
    pub fn route(&self, dest_ip: u32, core: CoreId) -> Arc<DstEntry> {
        if let Some(e) = self.entries.read().live.get(&dest_ip).cloned() {
            if e.get(core).is_ok() {
                return e;
            }
        }
        let mut table = self.entries.write();
        let e = table
            .live
            .entry(dest_ip)
            .or_insert_with(|| {
                DstEntry::with_refcount(
                    dest_ip,
                    dest_ip ^ 0x0101_0101,
                    RefCount::new_scaled(
                        self.config.sloppy_dst_refs,
                        self.config.snzi_dst_refs,
                        self.config.cores,
                        self.config.numa_nodes,
                    ),
                )
            })
            .clone();
        e.get(core).expect("cached dst cannot be dead");
        e
    }

    /// `(shared_ops, local_ops)` of the refcounts of every route this
    /// cache has held, summed when asked: `route` itself writes no
    /// cache-wide line.
    pub fn op_counts(&self) -> (u64, u64) {
        let table = self.entries.read();
        table
            .live
            .values()
            .map(|e| e.refcount_ops())
            .fold(table.evicted_ops, |(s, l), (es, el)| (s + es, l + el))
    }

    /// Number of cached routes.
    pub fn len(&self) -> usize {
        self.entries.read().live.len()
    }

    /// Returns whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to evict the route for `dest_ip`; fails while packets
    /// hold references (the reconcile-on-dealloc protocol).
    pub fn evict(&self, dest_ip: u32) -> Result<(), DeallocError> {
        let mut table = self.entries.write();
        let Some(e) = table.live.get(&dest_ip) else {
            return Err(DeallocError::AlreadyDead);
        };
        // Drop the cache's own reference for the check, restoring it on
        // failure.
        e.put(CoreId(0));
        match e.try_dealloc() {
            Ok(()) => {
                let (shared, local) = e.refcount_ops();
                table.live.remove(&dest_ip);
                table.evicted_ops.0 += shared;
                table.evicted_ops.1 += local;
                Ok(())
            }
            Err(err) => {
                e.get(CoreId(0)).expect("entry still live");
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sloppy: bool) -> DstCache {
        let cfg = if sloppy {
            // Pin the flat sloppy backing: these tests exercise the
            // §4.3 protocol; the SNZI tree has its own test below.
            NetConfig {
                snzi_dst_refs: false,
                ..NetConfig::pk(4)
            }
        } else {
            NetConfig::stock(4)
        };
        DstCache::new(cfg)
    }

    #[test]
    fn route_creates_then_reuses() {
        let c = cache(true);
        let e1 = c.route(0x0a000001, CoreId(0));
        let e2 = c.route(0x0a000001, CoreId(1));
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(c.len(), 1);
        assert_eq!(e1.references(), 3); // cache + 2 packets
        e1.put(CoreId(0));
        e2.put(CoreId(1));
    }

    #[test]
    fn hot_destination_is_core_local_when_sloppy() {
        let c = cache(true);
        // Warm up each core's spares.
        let mut refs = Vec::new();
        for core in 0..4 {
            refs.push((core, c.route(1, CoreId(core))));
        }
        for (core, e) in refs {
            e.put(CoreId(core));
        }
        let e = c.route(1, CoreId(2));
        let (shared_before, _) = e.refcount_ops();
        e.put(CoreId(2));
        for _ in 0..1_000 {
            let e = c.route(1, CoreId(2));
            e.put(CoreId(2));
        }
        let e = c.route(1, CoreId(2));
        let (shared_after, _) = e.refcount_ops();
        e.put(CoreId(2));
        assert_eq!(shared_before, shared_after, "hot path must stay local");
    }

    #[test]
    fn atomic_refcount_is_always_shared() {
        let c = cache(false);
        for _ in 0..100 {
            let e = c.route(1, CoreId(0));
            e.put(CoreId(0));
        }
        let e = c.route(1, CoreId(0));
        let (shared, local) = e.refcount_ops();
        e.put(CoreId(0));
        assert!(shared >= 200);
        assert_eq!(local, 0);
    }

    #[test]
    fn pk_preset_routes_through_the_snzi_tree() {
        // The full PK preset (snzi_dst_refs on) backs dst refcounts with
        // the per-socket tree. Under sustained load a core always has
        // packets in flight, so its leaf stays nonzero and further
        // get/put pairs never leave the leaf.
        let c = DstCache::new(NetConfig::pk(8));
        let pin = c.route(1, CoreId(2)); // keeps core 2's leaf nonzero
        let e = c.route(1, CoreId(2));
        let (shared_before, _) = e.refcount_ops();
        e.put(CoreId(2));
        for _ in 0..1_000 {
            let e = c.route(1, CoreId(2));
            e.put(CoreId(2));
        }
        let e = c.route(1, CoreId(2));
        let (shared_after, _) = e.refcount_ops();
        e.put(CoreId(2));
        assert_eq!(
            shared_before, shared_after,
            "loaded leaf must stay core-local under the SNZI tree"
        );
        pin.put(CoreId(2));
    }

    #[test]
    fn evict_respects_in_flight_packets() {
        let c = cache(true);
        let e = c.route(7, CoreId(0));
        assert!(c.evict(7).is_err(), "packet in flight");
        e.put(CoreId(0));
        let before = c.op_counts();
        assert_eq!(c.evict(7), Ok(()));
        assert!(c.is_empty());
        assert!(c.evict(7).is_err(), "already gone");
        let after = c.op_counts();
        assert!(
            after.0 >= before.0 && after.1 >= before.1,
            "an evicted route keeps its operations: {before:?} -> {after:?}"
        );
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
                c.route(dest, CoreId(1)).put(CoreId(1));
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
                .map(|dest| c.entries.read().live[&dest].refcount_ops())
                .iter()
                .fold((0, 0), |(s, l), (es, el)| (s + es, l + el));
            assert_eq!((shared, local), sum);
        }
    }
}
