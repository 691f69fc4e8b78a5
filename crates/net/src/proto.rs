//! Per-protocol memory accounting.

use crate::config::NetConfig;
use crate::stats::NetStats;
use pk_percpu::CoreId;
use pk_sloppy::{AtomicCounter, Counter, SloppyConfig, SloppyCounter};
use std::sync::Arc;

/// Bytes a core may bank in its slot of a sloppy protocol counter:
/// Linux's `SK_MEM_QUANTUM`, one page. Charges are byte counts — 64 to
/// 68 per memcached packet — so a bank sized in references (the §4.3
/// default of 8) would send every charge to the central word and return
/// every uncharge's excess: the shared writes the fix exists to remove.
/// With a page, a core's charges and uncharges stay in its own slot
/// after its first packet.
const SK_MEM_QUANTUM: i64 = 4096;

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
/// counters that bank up to `SK_MEM_QUANTUM` (4 096) bytes per core.
pub struct ProtoAccounting {
    tcp: Box<dyn Counter>,
    udp: Box<dyn Counter>,
    /// Whether both counters are sloppy (their updates stay core-local)
    /// rather than one shared atomic each.
    sloppy: bool,
    stats: Arc<NetStats>,
}

impl std::fmt::Debug for ProtoAccounting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtoAccounting")
            .field("backing", &if self.sloppy { "sloppy" } else { "atomic" })
            .field("tcp_usage", &self.tcp.value())
            .field("udp_usage", &self.udp.value())
            .finish()
    }
}

impl ProtoAccounting {
    /// Creates accounting counters per `config`.
    pub fn new(config: NetConfig, stats: Arc<NetStats>) -> Self {
        let sloppy = config.sloppy_proto_accounting;
        let make = || -> Box<dyn Counter> {
            if sloppy {
                Box::new(SloppyCounter::with_config(
                    config.cores,
                    SloppyConfig {
                        threshold: SK_MEM_QUANTUM,
                        prefetch: 0,
                    },
                ))
            } else {
                Box::new(AtomicCounter::new())
            }
        };
        Self {
            tcp: make(),
            udp: make(),
            sloppy,
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
        self.record();
    }

    /// Releases `bytes` of memory from `proto` on behalf of `core`.
    pub fn uncharge(&self, proto: Protocol, bytes: usize, core: CoreId) {
        self.counter(proto).add(core, -(bytes as i64));
        self.record();
    }

    fn record(&self) {
        if self.sloppy {
            self.stats.proto_local_ops.bump();
        } else {
            self.stats.proto_shared_ops.bump();
        }
    }

    /// Current memory attributed to `proto` (exact; may traverse cores).
    pub fn usage(&self, proto: Protocol) -> i64 {
        self.counter(proto).value()
    }

    /// `(central_ops, local_ops)` of `proto`'s sloppy counter: how many
    /// charges and uncharges wrote the shared word versus stayed in a
    /// core's slot. The stock atomic counter keeps no split and reports
    /// `(0, 0)`; every one of its updates is central
    /// (`NetStats::proto_shared_ops`).
    pub fn op_counts(&self, proto: Protocol) -> (u64, u64) {
        self.counter(proto).op_counts()
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

    /// PK's steady state never touches the central word: a core's first
    /// packet-sized charge misses, and from then on its uncharges bank
    /// the bytes its next charges take.
    #[test]
    fn pk_packets_stay_in_the_core_slot_after_the_first() {
        let acc = ProtoAccounting::new(NetConfig::pk(4), Arc::new(NetStats::new()));
        let packet = |len| {
            acc.charge(Protocol::Udp, len, CoreId(1));
            acc.uncharge(Protocol::Udp, len, CoreId(1));
        };
        packet(68);
        assert_eq!(acc.op_counts(Protocol::Udp), (1, 1));
        for _ in 0..1_000 {
            packet(68);
            packet(64);
        }
        assert_eq!(acc.op_counts(Protocol::Udp), (1, 4_001));
        assert_eq!(acc.usage(Protocol::Udp), 0);
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
