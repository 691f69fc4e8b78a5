//! The assembled network stack.

use crate::config::NetConfig;
use crate::dst::DstCache;
use crate::error::NetError;
use crate::listener::{Connection, Listener};
use crate::nic::{FlowHash, Nic};
use crate::proto::{ProtoAccounting, Protocol};
use crate::skb::{Skb, SkbPool};
use crate::socket::UdpSocket;
use crate::stats::NetStats;
use bytes::Bytes;
use pk_fault::FaultPlane;
use pk_percpu::{CoreId, IntKeyMap};
use pk_sync::rcu::{self, RcuCell};
use std::sync::Arc;

/// The [`pk_lockdep::probe`] site between a bind's "taken" check and
/// its publish.
#[cfg(test)]
const BIND_SITE: &str = "net.udp_bind";

/// An IPv4 socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockAddr {
    /// IPv4 address.
    pub ip: u32,
    /// Port.
    pub port: u16,
}

impl SockAddr {
    /// Creates an address.
    pub const fn new(ip: u32, port: u16) -> Self {
        Self { ip, port }
    }
}

/// The network stack facade: NIC + buffers + routing + accounting +
/// sockets, all per one [`NetConfig`].
///
/// Packets sent to a locally bound port loop back through the NIC's
/// receive path, which is how the workloads drive the same code the
/// paper's client machines drove over 10 GbE.
///
/// Every packet operation runs in one RCU read-side section and borrows
/// what it needs — route, socket, listener, port pin — from the
/// RCU-published snapshots: no reader-writer lock and no `Arc` clone per
/// packet.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use pk_net::{NetConfig, NetStack, SockAddr};
/// use pk_percpu::CoreId;
///
/// let stack = NetStack::new(NetConfig::pk(4));
/// let server = stack.udp_bind(11211, CoreId(1)).unwrap();
/// let from = SockAddr::new(0x0a000001, 4000);
/// let to = SockAddr::new(0x0a000002, 11211);
/// stack.udp_send(CoreId(0), from, to, Bytes::from_static(b"get k")).unwrap();
/// // The core owning the steered NIC queue polls it and the datagram
/// // lands in the per-socket queue.
/// for core in 0..4 {
///     stack.process_rx(CoreId(core), 16);
/// }
/// assert_eq!(server.recv().unwrap().skb.data.as_ref(), b"get k");
/// ```
#[derive(Debug)]
pub struct NetStack {
    config: NetConfig,
    stats: Arc<NetStats>,
    nic: Nic,
    pool: SkbPool,
    dst: DstCache,
    proto: ProtoAccounting,
    /// The RCU-published port table: packet paths read a snapshot inside
    /// their read-side section without writing shared lock state; binds,
    /// listens and pins copy, update, publish, and retire the old
    /// snapshot through `call_rcu`.
    ports: RcuCell<PortMap>,
}

/// Port number → what is bound to it. An integer key, so no SipHash
/// per packet.
type PortMap = IntKeyMap<u16, Port>;

/// Everything bound to one port number. The TCP and UDP port spaces are
/// independent: one number can carry a UDP socket and a listener.
#[derive(Debug, Default, Clone)]
struct Port {
    /// The bound UDP socket and the core that owns (processes) it.
    udp: Option<(Arc<UdpSocket>, CoreId)>,
    /// The TCP listener.
    listener: Option<Arc<Listener>>,
    /// The NIC queue the card steers packets for this port to (§5.3).
    pinned: Option<usize>,
}

impl NetStack {
    /// Creates a stack under `config`.
    pub fn new(config: NetConfig) -> Self {
        Self::with_faults(config, &FaultPlane::disabled())
    }

    /// Like [`NetStack::new`], with receive loss injectable through
    /// `faults` (`net.rx_drop`, `net.link_flap`).
    pub fn with_faults(config: NetConfig, faults: &FaultPlane) -> Self {
        let stats = Arc::new(NetStats::new());
        Self {
            config,
            nic: Nic::with_faults(config, Arc::clone(&stats), faults),
            pool: SkbPool::new(config, Arc::clone(&stats)),
            dst: DstCache::new(config),
            proto: ProtoAccounting::new(config, Arc::clone(&stats)),
            ports: RcuCell::new(PortMap::default()),
            stats,
        }
    }

    /// Returns the stack's diagnostics.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Returns the NIC model.
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// Returns the destination cache.
    pub fn dst_cache(&self) -> &DstCache {
        &self.dst
    }

    /// Returns the protocol accounting.
    pub fn proto(&self) -> &ProtoAccounting {
        &self.proto
    }

    /// Publishes the port table with `update` applied to `port`'s entry.
    fn update_port(&self, port: u16, update: impl FnOnce(&mut Port)) {
        self.ports.publish(|ports| {
            let mut ports = ports.clone();
            update(ports.entry(port).or_default());
            ports
        });
    }

    /// Binds a UDP socket to `port`, owned (processed) by `owner`, and
    /// dedicates the NIC queue of `owner` to it (§5.3).
    pub fn udp_bind(&self, port: u16, owner: CoreId) -> Option<Arc<UdpSocket>> {
        // A bind refused here publishes nothing.
        if self.owner_of(port).is_some() {
            return None;
        }
        #[cfg(test)]
        pk_lockdep::probe::hit(BIND_SITE);
        let s = UdpSocket::new(port);
        // "Taken" is decided again under the writer lock, so of two
        // racing binds exactly one gets the port. The pin rides the same
        // publish: a bind is one publish, not two.
        self.ports
            .try_publish(|ports| {
                if ports.get(&port).is_some_and(|p| p.udp.is_some()) {
                    return Err(());
                }
                let mut ports = ports.clone();
                let entry = ports.entry(port).or_default();
                entry.udp = Some((Arc::clone(&s), owner));
                entry.pinned = Some(owner.index());
                Ok(ports)
            })
            .ok()?;
        Some(s)
    }

    /// Configures the card to "inspect the port number in each incoming
    /// packet header \[and\] place the packet on the queue dedicated to the
    /// associated ... core" (§5.3): packets for `port` go to `queue`.
    /// [`NetStack::udp_bind`] pins its socket's owner already.
    pub fn pin_port(&self, port: u16, queue: usize) {
        self.update_port(port, |p| p.pinned = Some(queue));
    }

    /// Returns the core that owns the socket bound to `port`.
    pub fn owner_of(&self, port: u16) -> Option<CoreId> {
        let g = rcu::read_lock();
        let (_, owner) = self.ports.read(&g).get(&port)?.udp.as_ref()?;
        Some(*owner)
    }

    /// The queue (= core) the card steers `flow` to right now, port pins
    /// included.
    pub fn steer(&self, flow: &FlowHash) -> usize {
        let g = rcu::read_lock();
        steer_in(&self.nic, self.ports.read(&g), flow)
    }

    /// Sends a UDP datagram from `core`. If the destination port is bound
    /// on this stack, the packet loops back through the NIC RX path.
    ///
    /// Exercises, in order: the destination cache refcount, protocol
    /// memory accounting, the skb pool, the TX queue, and (on loopback)
    /// flow steering into an RX queue — all inside one read-side section.
    ///
    /// A refused packet releases its buffer and protocol charge before
    /// the error is returned, so the books stay balanced whether or not
    /// the caller retries. [`NetError::Backpressure`] means the receive
    /// path is full (back off before retrying); [`NetError::Dropped`]
    /// means the packet was lost in flight.
    pub fn udp_send(
        &self,
        core: CoreId,
        from: SockAddr,
        to: SockAddr,
        payload: Bytes,
    ) -> Result<(), NetError> {
        let mut g = rcu::read_lock();
        let route = loop {
            match self.dst.route(to.ip, core, &g) {
                Some(route) => break route,
                None => {
                    // Caching a route publishes, which must not happen
                    // inside a read-side section.
                    drop(g);
                    self.dst.insert(to.ip);
                    g = rcu::read_lock();
                }
            }
        };
        let len = payload.len();
        self.proto.charge(Protocol::Udp, len, core);
        let skb = self.pool.alloc(core, payload);
        let flow = FlowHash {
            src_ip: from.ip,
            src_port: from.port,
            dst_ip: to.ip,
            dst_port: to.port,
        };
        self.nic.tx(core, flow);
        route.put(core);
        let port = self.ports.read(&g).get(&to.port);
        let Some(&(_, owner)) = port.and_then(|p| p.udp.as_ref()) else {
            // Left the machine: the buffer is freed and the charge
            // released immediately (the wire owns it now).
            self.proto.uncharge(Protocol::Udp, len, core);
            self.pool.free(core, skb);
            return Ok(());
        };
        let pinned = port.and_then(|p| p.pinned);
        self.nic.rx(flow, skb, owner, pinned).map_err(|drop| {
            // The NIC hands the buffer back on refusal; release it and
            // the charge (this used to leak both).
            let err = NetError::from(&drop);
            self.proto.uncharge(Protocol::Udp, len, core);
            self.pool.free(core, drop.skb);
            err
        })
    }

    /// Processes up to `budget` packets from `core`'s NIC queue,
    /// delivering them to bound sockets. Returns the number processed.
    ///
    /// With [`NetConfig::software_rfs`], packets whose socket lives on a
    /// different core are re-steered there in software (Receive Flow
    /// Steering, \[25\]) instead of being delivered cross-core.
    pub fn process_rx(&self, core: CoreId, budget: usize) -> usize {
        let mut n = 0;
        while n < budget {
            let Some(pkt) = self.nic.poll(core) else {
                break;
            };
            let g = rcu::read_lock();
            let port = self.ports.read(&g).get(&pkt.flow.dst_port);
            match port.and_then(|p| p.udp.as_ref()) {
                Some(&(_, owner)) if self.config.software_rfs && owner != core => {
                    // Hop to the owning core's backlog; it will deliver
                    // on its own poll.
                    self.nic.requeue(pkt, owner);
                }
                Some((sock, _)) => sock.deliver(pkt.flow, pkt.skb),
                None => {
                    // No receiver: drop and release the charge.
                    self.proto.uncharge(Protocol::Udp, pkt.skb.len(), core);
                    self.pool.free(core, pkt.skb);
                }
            }
            n += 1;
        }
        n
    }

    /// Releases a received datagram's buffer and accounting (the
    /// application is done with it).
    pub fn release(&self, core: CoreId, skb: Skb) {
        self.proto.uncharge(Protocol::Udp, skb.len(), core);
        self.pool.free(core, skb);
    }

    /// Starts listening on TCP `port`.
    pub fn listen(&self, port: u16) -> Arc<Listener> {
        let l = Arc::new(Listener::new(port, self.config, Arc::clone(&self.stats)));
        self.update_port(port, |p| p.listener = Some(Arc::clone(&l)));
        l
    }

    /// A client handshake arriving for `port`: the NIC steers it to a
    /// queue/core, and the connection request joins that core's backlog
    /// (or the shared one, in stock mode).
    ///
    /// Returns `false` when no listener is bound to `port`.
    pub fn incoming_connection(&self, port: u16, flow: FlowHash) -> bool {
        let g = rcu::read_lock();
        let ports = self.ports.read(&g);
        let Some(l) = ports.get(&port).and_then(|p| p.listener.as_ref()) else {
            return false;
        };
        l.enqueue(flow, CoreId(steer_in(&self.nic, ports, &flow)));
        true
    }

    /// Accepts a pending connection on `port` from `core`.
    pub fn accept(&self, port: u16, core: CoreId) -> Option<Connection> {
        let g = rcu::read_lock();
        let listener = self.ports.read(&g).get(&port)?.listener.as_ref()?;
        listener.accept(core)
    }
}

/// [`Nic::steer`] with `flow`'s port pin looked up in `ports`.
fn steer_in(nic: &Nic, ports: &PortMap, flow: &FlowHash) -> usize {
    nic.steer(flow, ports.get(&flow.dst_port).and_then(|p| p.pinned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_lockdep::probe;

    #[test]
    fn udp_round_trip() {
        let stack = NetStack::new(NetConfig::pk(4));
        let server = stack.udp_bind(11211, CoreId(2)).unwrap();
        assert!(stack.udp_bind(11211, CoreId(0)).is_none(), "port taken");
        stack
            .udp_send(
                CoreId(0),
                SockAddr::new(1, 999),
                SockAddr::new(2, 11211),
                Bytes::from_static(b"hello"),
            )
            .unwrap();
        assert_eq!(stack.proto().usage(Protocol::Udp), 5);
        // Drain whichever queue the NIC steered to.
        let mut processed = 0;
        for c in 0..4 {
            processed += stack.process_rx(CoreId(c), 16);
        }
        assert_eq!(processed, 1);
        let dgram = server.recv().unwrap();
        assert_eq!(dgram.skb.data.as_ref(), b"hello");
        stack.release(CoreId(2), dgram.skb);
        assert_eq!(stack.proto().usage(Protocol::Udp), 0);
    }

    /// Two binds of one port: the rival runs between the first bind's
    /// "taken" check and its publish. With the check outside the writer
    /// lock both got a socket, the last publish won, and the loser's
    /// socket never received a packet.
    #[test]
    fn racing_binds_of_one_port_yield_one_socket() {
        let stack = Arc::new(NetStack::new(NetConfig::pk(4)));
        let rival = Arc::clone(&stack);
        let rival_sock = Arc::new(pk_sync::SpinLock::new(None));
        let slot = Arc::clone(&rival_sock);
        let first = probe::with(
            BIND_SITE,
            probe::once(move || *slot.lock() = rival.udp_bind(5000, CoreId(3))),
            || stack.udp_bind(5000, CoreId(1)),
        );
        let rival_sock = rival_sock.lock().take();
        assert!(rival_sock.is_some(), "the rival's bind ran first and won");
        assert!(first.is_none(), "the port was taken under the writer lock");
        assert_eq!(stack.owner_of(5000), Some(CoreId(3)));
        stack
            .udp_send(
                CoreId(0),
                SockAddr::new(1, 1),
                SockAddr::new(2, 5000),
                Bytes::from_static(b"won"),
            )
            .unwrap();
        assert_eq!(stack.process_rx(CoreId(3), 16), 1, "pinned to the winner");
        let d = rival_sock
            .unwrap()
            .recv()
            .expect("the bound socket receives");
        stack.release(CoreId(3), d.skb);
    }

    /// Under Miri: a route and a socket borrowed under one guard stay
    /// readable while an eviction and a bind publish and retire the
    /// snapshots they were borrowed from.
    #[test]
    fn miri_smoke_packet_borrows_outlive_republish() {
        let stack = NetStack::new(NetConfig::pk(2));
        stack.udp_bind(7000, CoreId(1)).unwrap();
        stack.dst_cache().insert(9);
        let g = rcu::read_lock();
        let route = stack.dst_cache().route(9, CoreId(0), &g).unwrap();
        route.put(CoreId(0));
        let (sock, owner) = stack.ports.read(&g)[&7000].udp.as_ref().unwrap();
        assert_eq!(stack.dst_cache().evict(9), Ok(()));
        stack.udp_bind(7001, CoreId(0)).unwrap();
        assert_eq!((route.dest_ip, sock.port, *owner), (9, 7000, CoreId(1)));
        drop(g);
        rcu::rcu_barrier();
    }

    #[test]
    fn send_to_unbound_port_leaves_machine() {
        let stack = NetStack::new(NetConfig::pk(2));
        assert!(stack
            .udp_send(
                CoreId(0),
                SockAddr::new(1, 1),
                SockAddr::new(9, 9),
                Bytes::from_static(b"x"),
            )
            .is_ok());
        assert_eq!(stack.nic().pending(), 0);
        assert_eq!(stack.proto().usage(Protocol::Udp), 0);
    }

    #[test]
    fn tcp_accept_through_steering() {
        let stack = NetStack::new(NetConfig::pk(4));
        stack.listen(80);
        let flow = FlowHash {
            src_ip: 7,
            src_port: 1234,
            dst_ip: 8,
            dst_port: 80,
        };
        assert!(stack.incoming_connection(80, flow));
        let steered = CoreId(stack.steer(&flow));
        let conn = stack.accept(80, steered).unwrap();
        assert!(conn.local, "accepted on the steered core");
        assert!(stack.accept(80, steered).is_none());
        assert!(!stack.incoming_connection(81, flow), "no listener");
    }

    #[test]
    fn software_rfs_resteers_to_owner() {
        let mut cfg = NetConfig::stock(4);
        cfg.software_rfs = true;
        let stack = NetStack::new(cfg);
        let server = stack.udp_bind(5000, CoreId(3)).unwrap();
        // Defeat port pinning to force a hardware misdelivery, then let
        // software RFS fix it up.
        stack.pin_port(5000, 1);
        stack
            .udp_send(
                CoreId(0),
                SockAddr::new(1, 7777),
                SockAddr::new(2, 5000),
                Bytes::from_static(b"hop"),
            )
            .unwrap();
        // The wrong core polls: the packet must hop, not deliver.
        assert_eq!(stack.process_rx(CoreId(1), 16), 1);
        assert!(server.recv().is_none(), "not delivered cross-core");
        // The owning core polls and gets it.
        assert_eq!(stack.process_rx(CoreId(3), 16), 1);
        let d = server.recv().expect("delivered after the RFS hop");
        assert_eq!(d.skb.data.as_ref(), b"hop");
        stack.release(CoreId(3), d.skb);
    }

    #[test]
    fn hot_destination_refcount_is_exercised() {
        let stack = NetStack::new(NetConfig::pk(2));
        stack.udp_bind(1000, CoreId(0)).unwrap();
        for i in 0..50 {
            stack
                .udp_send(
                    CoreId((i % 2) as usize),
                    SockAddr::new(1, 2000 + i),
                    SockAddr::new(2, 1000),
                    Bytes::from_static(b"q"),
                )
                .unwrap();
        }
        assert_eq!(stack.dst_cache().len(), 1, "one hot destination");
    }

    #[test]
    fn dropped_send_releases_buffer_and_charge() {
        // Regression: an rx-path drop used to leak the protocol charge
        // and the skb because only the unbound-port path released them.
        let faults = pk_fault::FaultPlane::with_seed(11);
        faults.set("net.rx_drop", pk_fault::FaultSchedule::EveryNth(1));
        faults.enable();
        let stack = NetStack::with_faults(NetConfig::pk(2), &faults);
        stack.udp_bind(7000, CoreId(0)).unwrap();
        let err = stack
            .udp_send(
                CoreId(0),
                SockAddr::new(1, 1),
                SockAddr::new(2, 7000),
                Bytes::from_static(b"lost"),
            )
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Dropped(crate::error::DropReason::FaultInjected)
        );
        assert_eq!(stack.proto().usage(Protocol::Udp), 0, "charge released");
        assert_eq!(stack.nic().pending(), 0, "nothing queued");
    }
}
