//! Packet buffers (`skbuff`) and their free lists.

use crate::config::NetConfig;
use crate::stats::NetStats;
use bytes::Bytes;
use pk_percpu::{CoreId, PerCore};
use pk_sync::SpinLock;
use std::sync::Arc;

/// A packet buffer: payload plus the NUMA node its backing memory lives
/// on.
#[derive(Debug, Clone)]
pub struct Skb {
    /// Packet payload.
    pub data: Bytes,
    /// NUMA node the buffer was allocated from.
    pub node: usize,
}

impl Skb {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Free lists of packet buffers.
///
/// Stock Linux allocates all packet buffers (and Ethernet DMA buffers)
/// "from a single free list in the memory system closest to the I/O bus"
/// — node 0 — causing contention on that node's lock and remote-node
/// traffic; PK uses per-core free lists and allocates DMA buffers "from
/// the local memory node" (§4.5, Figure 1, §5.3: local allocation alone
/// improved memcached throughput ~30%).
#[derive(Debug)]
pub struct SkbPool {
    global: SpinLock<Vec<Skb>>,
    percore: PerCore<SpinLock<Vec<Skb>>>,
    config: NetConfig,
    stats: Arc<NetStats>,
}

impl SkbPool {
    /// Creates empty free lists under `config`.
    pub fn new(config: NetConfig, stats: Arc<NetStats>) -> Self {
        use pk_lockdep::{register_class, LockKind};
        let percore_class = register_class("net.skb.pool_percore", "pk-net", LockKind::Spin);
        let pool = Self {
            global: SpinLock::new(Vec::new()),
            percore: PerCore::new_with(config.cores, |_| {
                let l = SpinLock::new(Vec::new());
                l.set_class(percore_class);
                l
            }),
            config,
            stats,
        };
        pool.global.set_class(register_class(
            "net.skb.pool_global",
            "pk-net",
            LockKind::Spin,
        ));
        pool
    }

    /// Allocates a buffer for `data` on behalf of `core`.
    ///
    /// Recycles a free buffer when available; the returned buffer's NUMA
    /// node follows the configured DMA policy.
    pub fn alloc(&self, core: CoreId, data: Bytes) -> Skb {
        let node = if self.config.local_dma_alloc {
            self.config.node_of_core(core.index())
        } else {
            0
        };
        if node != self.config.node_of_core(core.index()) {
            self.stats.skb_remote_node_allocs.bump();
        }
        let recycled = if self.config.percore_skb_pools {
            self.stats.skb_percore_allocs.bump();
            pk_lockdep::check_percore_mutation("net.skb.pool_percore", core.index());
            self.percore.get(core).lock().pop()
        } else {
            self.stats.skb_global_allocs.bump();
            self.global.lock().pop()
        };
        match recycled {
            Some(mut skb) => {
                skb.data = data;
                // Recycled buffers keep their original node; the policy
                // only governs fresh allocations.
                skb
            }
            None => Skb { data, node },
        }
    }

    /// Returns a buffer to the free list of `core`.
    pub fn free(&self, core: CoreId, mut skb: Skb) {
        skb.data = Bytes::new();
        if self.config.percore_skb_pools {
            pk_lockdep::check_percore_mutation("net.skb.pool_percore", core.index());
            self.percore.get(core).lock().push(skb);
        } else {
            self.global.lock().push(skb);
        }
    }

    /// Number of buffers currently on free lists.
    pub fn free_count(&self) -> usize {
        self.global.lock().len() + self.percore.fold(0, |a, l| a + l.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_allocates_node0() {
        let stats = Arc::new(NetStats::new());
        let pool = SkbPool::new(NetConfig::stock(48), Arc::clone(&stats));
        let skb = pool.alloc(CoreId(40), Bytes::from_static(b"x"));
        assert_eq!(skb.node, 0);
        assert_eq!(
            stats
                .skb_remote_node_allocs
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "core 40 is not on node 0"
        );
    }

    #[test]
    fn pk_allocates_local_node() {
        let stats = Arc::new(NetStats::new());
        let pool = SkbPool::new(NetConfig::pk(48), Arc::clone(&stats));
        let skb = pool.alloc(CoreId(40), Bytes::from_static(b"x"));
        assert_eq!(skb.node, 6);
        assert_eq!(
            stats
                .skb_remote_node_allocs
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn free_then_alloc_recycles() {
        let stats = Arc::new(NetStats::new());
        let pool = SkbPool::new(NetConfig::pk(4), Arc::clone(&stats));
        let skb = pool.alloc(CoreId(1), Bytes::from_static(b"abc"));
        pool.free(CoreId(1), skb);
        assert_eq!(pool.free_count(), 1);
        let skb2 = pool.alloc(CoreId(1), Bytes::from_static(b"de"));
        assert_eq!(skb2.data.as_ref(), b"de");
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn pools_are_split_per_core() {
        let stats = Arc::new(NetStats::new());
        let pool = SkbPool::new(NetConfig::pk(4), Arc::clone(&stats));
        let skb = pool.alloc(CoreId(0), Bytes::new());
        pool.free(CoreId(0), skb);
        // Core 1's pool is empty; it gets a fresh buffer, and core 0's
        // stays populated.
        let _ = pool.alloc(CoreId(1), Bytes::new());
        assert_eq!(pool.free_count(), 1);
    }

    #[test]
    fn stock_uses_the_global_list() {
        let stats = Arc::new(NetStats::new());
        let pool = SkbPool::new(NetConfig::stock(4), Arc::clone(&stats));
        let skb = pool.alloc(CoreId(0), Bytes::new());
        pool.free(CoreId(0), skb);
        let _ = pool.alloc(CoreId(3), Bytes::new());
        assert_eq!(pool.free_count(), 0, "core 3 recycled core 0's buffer");
        assert_eq!(
            stats
                .skb_global_allocs
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }
}
