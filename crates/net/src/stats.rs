//! Network-stack contention diagnostics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of shared-cache-line events inside the network stack.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Skb allocations from the shared node-0 pool (stock).
    pub skb_global_allocs: AtomicU64,
    /// Skb allocations from per-core pools (PK).
    pub skb_percore_allocs: AtomicU64,
    /// Skb allocations that crossed NUMA nodes (stock DMA policy).
    pub skb_remote_node_allocs: AtomicU64,
    /// Protocol-accounting updates hitting the shared counter.
    pub proto_shared_ops: AtomicU64,
    /// Protocol-accounting updates satisfied core-locally.
    pub proto_local_ops: AtomicU64,
    /// Accepts served from the shared single backlog (stock).
    pub accept_shared_queue: AtomicU64,
    /// Accepts served from the local core's backlog (PK).
    pub accept_local_queue: AtomicU64,
    /// Accepts that had to steal from another core's backlog.
    pub accept_steals: AtomicU64,
    /// Connections refused because the listener's bounded accept
    /// backlog (`accept_backlog_cap`) was full — admission control in
    /// action, not packet loss.
    pub accept_overflows: AtomicU64,
    /// Incoming packets steered to the core that owns the flow.
    pub rx_steered_local: AtomicU64,
    /// Incoming packets misdirected to another core (stock sampling).
    pub rx_misdirected: AtomicU64,
    /// Packets dropped because the card's internal FIFO overflowed.
    pub rx_fifo_drops: AtomicU64,
    /// Packets dropped by an injected `net.rx_drop` fault.
    pub rx_fault_drops: AtomicU64,
    /// Packets dropped while the link renegotiated after a flap.
    pub rx_link_down_drops: AtomicU64,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps a counter by one.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    #[cfg_attr(not(test), expect(dead_code))]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

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

    /// Resets every counter.
    pub fn reset(&self) {
        for c in [
            &self.skb_global_allocs,
            &self.skb_percore_allocs,
            &self.skb_remote_node_allocs,
            &self.proto_shared_ops,
            &self.proto_local_ops,
            &self.accept_shared_queue,
            &self.accept_local_queue,
            &self.accept_steals,
            &self.accept_overflows,
            &self.rx_steered_local,
            &self.rx_misdirected,
            &self.rx_fifo_drops,
            &self.rx_fault_drops,
            &self.rx_link_down_drops,
        ] {
            c.store(0, Ordering::Relaxed);
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
        NetStats::add(&s.rx_steered_local, 3);
        NetStats::bump(&s.rx_misdirected);
        assert!((s.steering_accuracy() - 0.75).abs() < 1e-12);
        s.reset();
        assert_eq!(s.rx_steered_local.load(Ordering::Relaxed), 0);
    }
}
