//! Network-stack contention diagnostics.
//!
//! Every counter is a [`pk_percpu::Tally`] (a load + store on the calling
//! thread's own row, summed when read), so counting a per-core
//! allocation or a steered packet writes no shared line.

use std::sync::atomic::Ordering;

pk_percpu::tally_struct! {
    /// Counters of shared-cache-line events inside the network stack.
    pub struct NetStats {
        /// Skb allocations from the shared node-0 pool (stock).
        pub skb_global_allocs,
        /// Skb allocations from per-core pools (PK).
        pub skb_percore_allocs,
        /// Skb allocations that crossed NUMA nodes (stock DMA policy).
        pub skb_remote_node_allocs,
        /// Protocol-accounting updates hitting the shared counter.
        pub proto_shared_ops,
        /// Protocol-accounting updates satisfied core-locally.
        pub proto_local_ops,
        /// Accepts served from the shared single backlog (stock).
        pub accept_shared_queue,
        /// Accepts served from the local core's backlog (PK).
        pub accept_local_queue,
        /// Accepts that had to steal from another core's backlog.
        pub accept_steals,
        /// Incoming packets steered to the core that owns the flow.
        pub rx_steered_local,
        /// Incoming packets misdirected to another core (stock sampling).
        pub rx_misdirected,
        /// Packets dropped because the card's internal FIFO overflowed.
        pub rx_fifo_drops,
        /// Packets dropped by an injected `net.rx_drop` fault.
        pub rx_fault_drops,
        /// Packets dropped while the link renegotiated after a flap.
        pub rx_link_down_drops,
    }
}

impl NetStats {
    /// Fraction of incoming packets delivered to the owning core.
    pub fn steering_accuracy(&self) -> f64 {
        let local = self.rx_steered_local.load(Ordering::Relaxed);
        let miss = self.rx_misdirected.load(Ordering::Relaxed);
        if local + miss == 0 {
            1.0
        } else {
            local as f64 / (local + miss) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_accuracy_computation() {
        let s = NetStats::new();
        assert_eq!(s.steering_accuracy(), 1.0);
        s.rx_steered_local.add(3);
        s.rx_misdirected.bump();
        assert!((s.steering_accuracy() - 0.75).abs() < 1e-12);
        s.reset();
        assert_eq!(s.rx_steered_local.load(Ordering::Relaxed), 0);
    }
}
