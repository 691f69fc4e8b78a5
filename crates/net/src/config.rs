//! Per-fix configuration switches for the network stack.

use pk_percpu::SOCKETS;

/// Selects, fix by fix, stock versus PK behaviour. Each flag corresponds
/// to a Figure-1 row (plus the accept-queue and flow-steering changes of
/// §4.2). The §4.6 `net_device` false-sharing fix has no flag: it
/// changes no behaviour, only cache-line placement, so it lives in the
/// cost models alone (`FixId::NetDeviceFalseSharing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of cores served (sizes per-core structures and NIC queues).
    pub cores: usize,
    /// "Use sloppy counters for IP routing table entries" (`dst_entry`).
    pub sloppy_dst_refs: bool,
    /// "Use sloppy counters for protocol usage counting."
    pub sloppy_proto_accounting: bool,
    /// Per-core packet-buffer free lists instead of one list on the node
    /// "closest to the I/O bus" (§4.5).
    pub percore_skb_pools: bool,
    /// "Allocate Ethernet device DMA buffers from the local memory node"
    /// instead of node 0.
    pub local_dma_alloc: bool,
    /// "User per-core backlog queues for listening sockets" with
    /// steal-on-empty (§4.2).
    pub percore_accept_queues: bool,
    /// Deterministic header-hash flow steering (PK) versus the stock
    /// IXGBE sample-every-20th-TX-packet flow director that misdirects
    /// short connections (§4.2).
    pub hash_flow_steering: bool,
    /// Software Receive Flow Steering (§4.2 cites RFS \[25\]): the kernel
    /// re-steers polled packets to the core that owns the flow's socket,
    /// paying a cross-core queue hop when the hardware misdirected them.
    pub software_rfs: bool,
    /// Number of independent flow-steering table shards (generation-2,
    /// §7). Stock keeps the single global table (1); the per-socket
    /// sharding fix keys this off the machine's socket count so flow
    /// registration contends only within a socket.
    pub flow_table_shards: usize,
    /// Swap the `dst_entry` sloppy counters for SNZI trees
    /// (generation-2, §7) where the flat per-core banks saturate past
    /// 48 cores. Off in stock, on in PK.
    pub snzi_dst_refs: bool,
}

impl NetConfig {
    /// Stock Linux 2.6.35-rc5: every fix disabled.
    pub fn stock(cores: usize) -> Self {
        Self {
            cores,
            sloppy_dst_refs: false,
            sloppy_proto_accounting: false,
            percore_skb_pools: false,
            local_dma_alloc: false,
            percore_accept_queues: false,
            hash_flow_steering: false,
            software_rfs: false,
            flow_table_shards: 1,
            snzi_dst_refs: false,
        }
    }

    /// The PK kernel: every fix enabled.
    pub fn pk(cores: usize) -> Self {
        Self {
            cores,
            sloppy_dst_refs: true,
            sloppy_proto_accounting: true,
            percore_skb_pools: true,
            local_dma_alloc: true,
            percore_accept_queues: true,
            hash_flow_steering: true,
            software_rfs: false,
            flow_table_shards: SOCKETS,
            snzi_dst_refs: true,
        }
    }

    /// Maps a core to its NUMA memory node, one per
    /// [`pk_percpu::SOCKETS`] (6 cores per node at 48 cores, like the
    /// paper's 8×6 Opteron machine).
    pub fn node_of_core(&self, core: usize) -> usize {
        let per_node = self.cores.div_ceil(SOCKETS).max(1);
        (core / per_node).min(SOCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ() {
        assert!(NetConfig::pk(8).sloppy_dst_refs);
        assert!(!NetConfig::stock(8).sloppy_dst_refs);
    }

    #[test]
    fn node_mapping_covers_all_nodes() {
        let c = NetConfig::pk(48);
        assert_eq!(c.node_of_core(0), 0);
        assert_eq!(c.node_of_core(5), 0);
        assert_eq!(c.node_of_core(6), 1);
        assert_eq!(c.node_of_core(47), 7);
    }

    #[test]
    fn node_mapping_small_machines() {
        let c = NetConfig::pk(2);
        assert_eq!(c.node_of_core(0), 0);
        assert_eq!(c.node_of_core(1), 1);
    }
}
