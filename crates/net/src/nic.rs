//! A multi-queue NIC model (Intel 82599 "IXGBE").

use crate::config::NetConfig;
use crate::error::{DropReason, RxDrop};
use crate::skb::Skb;
use crate::stats::NetStats;
use parking_lot::RwLock;
use pk_fault::{FaultPlane, FaultPoint};
use pk_percpu::{CoreId, IntKeyMap, PerCore};
use pk_sync::SpinLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A connection/flow identifier (the packet-header 4-tuple hash input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowHash {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Destination port.
    pub dst_port: u16,
}

impl FlowHash {
    /// A deterministic header hash (stands in for the card's RSS hash).
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            self.src_ip as u64,
            self.src_port as u64,
            self.dst_ip as u64,
            self.dst_port as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Finalize (splitmix64 avalanche) so sequential tuples spread
        // evenly across queues.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// A packet sitting in a receive queue.
#[derive(Debug)]
pub struct RxPacket {
    /// The flow it belongs to.
    pub flow: FlowHash,
    /// The buffer.
    pub skb: Skb,
}

/// The multi-queue card with its flow-steering policy (§4.2).
///
/// * **PK / hash steering** — the card is configured "to direct each
///   packet to a queue (and thus core) using a hash of the packet
///   headers," so *all* of a connection's packets (including the
///   handshake) land on one core.
/// * **Stock / sampling** — the IXGBE driver "samples every 20th outgoing
///   TCP packet and updates the hardware's flow directing tables." Flows
///   with no sampled entry fall back to the hash, and short connections
///   whose entry points at a *previous* user of that 4-tuple slot get
///   misdirected.
///
/// Each queue has a bounded FIFO; the card also models the §5.4 internal
/// receive-FIFO overflow via a per-card packets-per-poll-interval cap.
#[derive(Debug)]
pub struct Nic {
    queues: Vec<SpinLock<VecDeque<RxPacket>>>,
    /// Flow-director state, sharded per socket
    /// ([`NetConfig::flow_table_shards`]): a sampling update from a core
    /// only writes its socket's shard, so the rwlock cache line stops
    /// bouncing between packages (generation-2 fix past 48 cores).
    flow_table: Vec<RwLock<IntKeyMap<u64, usize>>>,
    port_table: RwLock<IntKeyMap<u16, usize>>,
    tx_counters: PerCore<AtomicU64>,
    queue_capacity: usize,
    config: NetConfig,
    stats: Arc<NetStats>,
    /// `net.rx_drop`: a single packet lost on the wire.
    fault_rx_drop: FaultPoint,
    /// `net.link_flap`: the link drops and renegotiates, losing the next
    /// [`LINK_FLAP_DROPS`] packets.
    fault_link_flap: FaultPoint,
    link_down_remaining: AtomicU64,
}

/// Sampling period of the stock flow director.
const SAMPLE_PERIOD: u64 = 20;

/// Packets lost while the link renegotiates after a flap.
const LINK_FLAP_DROPS: u64 = 16;

impl Nic {
    /// Creates a card with one RX queue per core.
    pub fn new(config: NetConfig, stats: Arc<NetStats>) -> Self {
        Self::with_faults(config, stats, &FaultPlane::disabled())
    }

    /// Like [`Nic::new`], with receive loss injectable through `faults`
    /// (`net.rx_drop`, `net.link_flap`).
    pub fn with_faults(config: NetConfig, stats: Arc<NetStats>, faults: &FaultPlane) -> Self {
        let queue_class =
            pk_lockdep::register_class("net.nic.rx_queue", "pk-net", pk_lockdep::LockKind::Spin);
        Self {
            queues: (0..config.cores)
                .map(|_| {
                    let q = SpinLock::new(VecDeque::new());
                    q.set_class(queue_class);
                    q
                })
                .collect(),
            flow_table: (0..config.flow_table_shards.max(1))
                .map(|_| RwLock::default())
                .collect(),
            port_table: RwLock::default(),
            tx_counters: PerCore::new_with(config.cores, |_| AtomicU64::new(0)),
            queue_capacity: 4096,
            config,
            stats,
            fault_rx_drop: faults.point("net.rx_drop"),
            fault_link_flap: faults.point("net.link_flap"),
            link_down_remaining: AtomicU64::new(0),
        }
    }

    /// Configures the card to "inspect the port number in each incoming
    /// packet header \[and\] place the packet on the queue dedicated to the
    /// associated ... core" (§5.3) — used by memcached on both kernels.
    pub fn pin_port(&self, dst_port: u16, queue: usize) {
        self.port_table
            .write()
            .insert(dst_port, queue % self.queues.len());
    }

    /// The queue (= core) the card will steer `flow` to right now.
    pub fn steer(&self, flow: &FlowHash) -> usize {
        if let Some(&q) = self.port_table.read().get(&flow.dst_port) {
            return q;
        }
        if !self.config.hash_flow_steering {
            let h = flow.hash();
            if let Some(&q) = self.flow_shard(h).read().get(&h) {
                return q;
            }
        }
        (flow.hash() as usize) % self.queues.len()
    }

    /// Delivers an incoming packet. `owner` is the core that will process
    /// the flow (for steering-accuracy stats).
    ///
    /// On overflow, injected loss, or a down link, the packet is refused
    /// and the buffer handed back in the [`RxDrop`] so the caller can
    /// release it and its accounting — the drop is never silent.
    pub fn rx(&self, flow: FlowHash, skb: Skb, owner: CoreId) -> Result<(), RxDrop> {
        if self.fault_link_flap.should_inject() {
            self.link_down_remaining
                .store(LINK_FLAP_DROPS, Ordering::Relaxed);
        }
        if self
            .link_down_remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
        {
            self.stats.rx_link_down_drops.bump();
            return Err(RxDrop {
                reason: DropReason::LinkDown,
                skb,
            });
        }
        if self.fault_rx_drop.should_inject() {
            self.stats.rx_fault_drops.bump();
            return Err(RxDrop {
                reason: DropReason::FaultInjected,
                skb,
            });
        }
        let q = self.steer(&flow);
        if q == owner.index() % self.queues.len() {
            self.stats.rx_steered_local.bump();
        } else {
            self.stats.rx_misdirected.bump();
        }
        let mut queue = self.queues[q].lock();
        if queue.len() >= self.queue_capacity {
            self.stats.rx_fifo_drops.bump();
            return Err(RxDrop {
                reason: DropReason::QueueOverflow,
                skb,
            });
        }
        queue.push_back(RxPacket { flow, skb });
        Ok(())
    }

    /// Requeues a packet onto `target`'s queue (software re-steering:
    /// RPS/RFS). Unlike [`Nic::rx`], never drops.
    pub fn requeue(&self, pkt: RxPacket, target: CoreId) {
        self.queues[target.index() % self.queues.len()]
            .lock()
            .push_back(pkt);
    }

    /// Polls the RX queue belonging to `core`.
    pub fn poll(&self, core: CoreId) -> Option<RxPacket> {
        self.queues[core.index() % self.queues.len()]
            .lock()
            .pop_front()
    }

    /// Transmits a packet on `core`'s TX queue.
    ///
    /// Under the stock sampling policy, every 20th packet per core
    /// updates the flow-director table to point this flow at this core.
    pub fn tx(&self, core: CoreId, flow: FlowHash) {
        if !self.config.hash_flow_steering {
            let n = self.tx_counters.get(core).fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(SAMPLE_PERIOD) {
                let h = flow.hash();
                self.flow_shard(h)
                    .write()
                    .insert(h, core.index() % self.queues.len());
            }
        }
    }

    /// The flow-director shard holding flow hash `h`. With one shard
    /// (stock) this is the single global table; with per-socket sharding
    /// the hash picks a stable shard so steer/tx agree on placement.
    fn flow_shard(&self, h: u64) -> &RwLock<IntKeyMap<u64, usize>> {
        &self.flow_table[(h as usize) % self.flow_table.len()]
    }

    /// Number of flow-director shards (1 = unsharded stock layout).
    pub fn flow_table_shards(&self) -> usize {
        self.flow_table.len()
    }

    /// Total packets currently queued across all RX queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn flow(src_port: u16) -> FlowHash {
        FlowHash {
            src_ip: 0x0a00_0001,
            src_port,
            dst_ip: 0x0a00_0002,
            dst_port: 80,
        }
    }

    fn skb() -> Skb {
        Skb {
            data: Bytes::from_static(b"pkt"),
            node: 0,
        }
    }

    #[test]
    fn hash_steering_is_deterministic_per_flow() {
        let nic = Nic::new(NetConfig::pk(8), Arc::new(NetStats::new()));
        let f = flow(1234);
        let q = nic.steer(&f);
        for _ in 0..10 {
            assert_eq!(nic.steer(&f), q);
        }
    }

    #[test]
    fn hash_steering_spreads_flows() {
        let nic = Nic::new(NetConfig::pk(8), Arc::new(NetStats::new()));
        let mut used = std::collections::HashSet::new();
        for p in 0..200 {
            used.insert(nic.steer(&flow(p)));
        }
        assert!(used.len() >= 6, "flows should spread over queues");
    }

    #[test]
    fn sampling_updates_flow_table_every_20th_tx() {
        let nic = Nic::new(NetConfig::stock(8), Arc::new(NetStats::new()));
        let f = flow(5555);
        let default_q = nic.steer(&f);
        // 19 transmissions: no update yet.
        for _ in 0..19 {
            nic.tx(CoreId(3), f);
        }
        assert_eq!(nic.steer(&f), default_q);
        nic.tx(CoreId(3), f); // the 20th
        assert_eq!(nic.steer(&f), 3);
    }

    #[test]
    fn flow_table_shards_follow_topology() {
        // Stock keeps the single global flow-director table; a PK config
        // lowered for a multi-socket machine shards it per socket.
        let stock = Nic::new(NetConfig::stock(8), Arc::new(NetStats::new()));
        assert_eq!(stock.flow_table_shards(), 1);
        let pk = Nic::new(
            NetConfig {
                flow_table_shards: 64,
                ..NetConfig::stock(8)
            },
            Arc::new(NetStats::new()),
        );
        assert_eq!(pk.flow_table_shards(), 64);
    }

    #[test]
    fn sharded_sampling_still_steers_correctly() {
        // Sharding must not change observable steering: the sampled
        // entry written on tx is found by steer regardless of which
        // shard the hash lands in.
        let nic = Nic::new(
            NetConfig {
                flow_table_shards: 8,
                ..NetConfig::stock(8)
            },
            Arc::new(NetStats::new()),
        );
        for port in 100..108u16 {
            let f = flow(port);
            for _ in 0..SAMPLE_PERIOD {
                nic.tx(CoreId(5), f);
            }
        }
        // 8 flows × 20 tx on one core → 8 sampled updates, one per flow.
        for port in 100..108u16 {
            assert_eq!(nic.steer(&flow(port)), 5, "port {port}");
        }
    }

    #[test]
    fn rx_counts_steering_accuracy() {
        let stats = Arc::new(NetStats::new());
        let nic = Nic::new(NetConfig::pk(4), Arc::clone(&stats));
        let f = flow(42);
        let owner = CoreId(nic.steer(&f));
        assert!(nic.rx(f, skb(), owner).is_ok());
        assert!(nic.rx(f, skb(), CoreId(owner.index() + 1)).is_ok());
        assert_eq!(stats.rx_steered_local.load(Ordering::Relaxed), 1);
        assert_eq!(stats.rx_misdirected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn poll_drains_the_right_queue() {
        let nic = Nic::new(NetConfig::pk(4), Arc::new(NetStats::new()));
        let f = flow(42);
        let q = nic.steer(&f);
        nic.rx(f, skb(), CoreId(q)).unwrap();
        assert!(nic.poll(CoreId((q + 1) % 4)).is_none());
        let pkt = nic.poll(CoreId(q)).unwrap();
        assert_eq!(pkt.flow, f);
        assert_eq!(nic.pending(), 0);
    }

    #[test]
    fn queue_overflow_drops() {
        let stats = Arc::new(NetStats::new());
        let mut nic = Nic::new(NetConfig::pk(2), Arc::clone(&stats));
        nic.queue_capacity = 2;
        let f = flow(1);
        let q = CoreId(nic.steer(&f));
        assert!(nic.rx(f, skb(), q).is_ok());
        assert!(nic.rx(f, skb(), q).is_ok());
        assert!(nic.rx(f, skb(), q).is_err(), "third packet overflows");
        assert_eq!(stats.rx_fifo_drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn overflow_surfaces_backpressure_and_returns_the_buffer() {
        // Regression: overflow drops used to return a bare `false`,
        // leaking the skb (and its protocol charge) with no signal the
        // caller could act on.
        let stats = Arc::new(NetStats::new());
        let mut nic = Nic::new(NetConfig::pk(2), Arc::clone(&stats));
        nic.queue_capacity = 1;
        let f = flow(1);
        let q = CoreId(nic.steer(&f));
        nic.rx(f, skb(), q).unwrap();
        let drop = nic.rx(f, skb(), q).unwrap_err();
        assert_eq!(drop.reason, DropReason::QueueOverflow);
        assert_eq!(drop.skb.data.as_ref(), b"pkt", "buffer comes back");
        assert_eq!(nic.pending(), 1, "the dropped packet never queued");
    }

    #[test]
    fn injected_rx_drop_is_reported() {
        let stats = Arc::new(NetStats::new());
        let faults = FaultPlane::with_seed(7);
        faults.set("net.rx_drop", pk_fault::FaultSchedule::EveryNth(2));
        faults.enable();
        let nic = Nic::with_faults(NetConfig::pk(2), Arc::clone(&stats), &faults);
        let f = flow(1);
        let q = CoreId(nic.steer(&f));
        assert!(nic.rx(f, skb(), q).is_ok());
        let drop = nic.rx(f, skb(), q).unwrap_err();
        assert_eq!(drop.reason, DropReason::FaultInjected);
        assert_eq!(stats.rx_fault_drops.load(Ordering::Relaxed), 1);
        assert_eq!(nic.pending(), 1);
    }

    #[test]
    fn link_flap_drops_a_burst_then_recovers() {
        let stats = Arc::new(NetStats::new());
        let faults = FaultPlane::with_seed(7);
        faults.set("net.link_flap", pk_fault::FaultSchedule::OneShot(0));
        faults.enable();
        let nic = Nic::with_faults(NetConfig::pk(2), Arc::clone(&stats), &faults);
        let f = flow(1);
        let q = CoreId(nic.steer(&f));
        for i in 0..LINK_FLAP_DROPS {
            let drop = nic.rx(f, skb(), q).unwrap_err();
            assert_eq!(drop.reason, DropReason::LinkDown, "packet {i}");
        }
        assert!(nic.rx(f, skb(), q).is_ok(), "link back up");
        assert_eq!(
            stats.rx_link_down_drops.load(Ordering::Relaxed),
            LINK_FLAP_DROPS
        );
    }
}
