//! Per-protocol memory accounting.

use crate::config::NetConfig;
use crate::stats::NetStats;
use pk_percpu::CoreId;
use pk_sloppy::{AtomicCounter, Counter, SloppyCounter};
use std::sync::Arc;

/// A transport protocol with tracked memory usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
}

/// Tracks "the amount of memory allocated by each network protocol (such
/// as TCP or UDP)" (§4.3).
///
/// Every packet allocation charges the owning protocol's counter and
/// every free uncharges it — which in stock Linux means every core
/// hammers one cache line per protocol ("cores contend on counters for
/// tracking protocol memory consumption", Figure 1). PK swaps in sloppy
/// counters.
pub struct ProtoAccounting {
    tcp: Box<dyn Counter>,
    udp: Box<dyn Counter>,
    stats: Arc<NetStats>,
}

impl std::fmt::Debug for ProtoAccounting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtoAccounting")
            .field("backing", &self.tcp.name())
            .field("tcp_usage", &self.tcp.value())
            .field("udp_usage", &self.udp.value())
            .finish()
    }
}

impl ProtoAccounting {
    /// Creates accounting counters per `config`.
    pub fn new(config: NetConfig, stats: Arc<NetStats>) -> Self {
        let make = |sloppy: bool| -> Box<dyn Counter> {
            if sloppy {
                Box::new(SloppyCounter::new(config.cores))
            } else {
                Box::new(AtomicCounter::new())
            }
        };
        Self {
            tcp: make(config.sloppy_proto_accounting),
            udp: make(config.sloppy_proto_accounting),
            stats,
        }
    }

    fn counter(&self, proto: Protocol) -> &dyn Counter {
        match proto {
            Protocol::Tcp => self.tcp.as_ref(),
            Protocol::Udp => self.udp.as_ref(),
        }
    }

    /// Charges `bytes` of memory to `proto` on behalf of `core`.
    pub fn charge(&self, proto: Protocol, bytes: usize, core: CoreId) {
        self.counter(proto).add(core, bytes as i64);
        self.record(proto);
    }

    /// Releases `bytes` of memory from `proto` on behalf of `core`.
    pub fn uncharge(&self, proto: Protocol, bytes: usize, core: CoreId) {
        self.counter(proto).add(core, -(bytes as i64));
        self.record(proto);
    }

    fn record(&self, _proto: Protocol) {
        if self.tcp.name() == "sloppy" {
            self.stats.proto_local_ops.bump();
        } else {
            self.stats.proto_shared_ops.bump();
        }
    }

    /// Current memory attributed to `proto` (exact; may traverse cores).
    pub fn usage(&self, proto: Protocol) -> i64 {
        self.counter(proto).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_balance() {
        for cfg in [NetConfig::stock(4), NetConfig::pk(4)] {
            let acc = ProtoAccounting::new(cfg, Arc::new(NetStats::new()));
            acc.charge(Protocol::Udp, 1500, CoreId(0));
            acc.charge(Protocol::Udp, 1500, CoreId(1));
            acc.charge(Protocol::Tcp, 64, CoreId(2));
            assert_eq!(acc.usage(Protocol::Udp), 3000);
            assert_eq!(acc.usage(Protocol::Tcp), 64);
            acc.uncharge(Protocol::Udp, 1500, CoreId(3));
            acc.uncharge(Protocol::Udp, 1500, CoreId(0));
            acc.uncharge(Protocol::Tcp, 64, CoreId(2));
            assert_eq!(acc.usage(Protocol::Udp), 0);
            assert_eq!(acc.usage(Protocol::Tcp), 0);
        }
    }

    #[test]
    fn stats_split_by_backing() {
        let stats = Arc::new(NetStats::new());
        let acc = ProtoAccounting::new(NetConfig::stock(4), Arc::clone(&stats));
        acc.charge(Protocol::Tcp, 10, CoreId(0));
        assert_eq!(
            stats
                .proto_shared_ops
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );

        let stats2 = Arc::new(NetStats::new());
        let acc2 = ProtoAccounting::new(NetConfig::pk(4), Arc::clone(&stats2));
        acc2.charge(Protocol::Tcp, 10, CoreId(0));
        assert_eq!(
            stats2
                .proto_local_ops
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }
}
