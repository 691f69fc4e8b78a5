//! Listening sockets: the shared backlog versus per-core accept queues.

use crate::config::NetConfig;
use crate::nic::FlowHash;
use crate::stats::NetStats;
use pk_percpu::{CoreId, PerCore};
use pk_sync::SpinLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The [`pk_lockdep::probe`] site between an enqueue's count and its
/// push.
#[cfg(test)]
const ENQUEUE_SITE: &str = "net.listener.enqueue";

/// A pending connection request (a completed TCP handshake waiting in the
/// listen backlog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnRequest {
    /// The connection's flow tuple.
    pub flow: FlowHash,
    /// The core whose NIC queue the handshake arrived on.
    pub arrived_on: CoreId,
}

/// An accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// The connection's flow tuple.
    pub flow: FlowHash,
    /// The core that accepted (and will process) it.
    pub core: CoreId,
    /// Whether it was accepted on the same core the handshake arrived on
    /// (the §4.2 goal: "all processing for that connection will remain
    /// entirely on one core").
    pub local: bool,
}

/// A listening socket (§4.2).
///
/// Stock: "concurrent accept system calls contend on shared socket
/// fields" — one backlog queue under one lock. PK: "queue requests on a
/// per-core backlog queue for the listening socket, so that a thread will
/// accept and process connections that the IXGBE directs to the core
/// running that thread. If accept finds the current core's backlog queue
/// empty, it attempts to steal a connection request from a different
/// core's queue."
#[derive(Debug)]
pub struct Listener {
    /// The bound port.
    pub port: u16,
    shared: SpinLock<VecDeque<ConnRequest>>,
    percore: PerCore<SpinLock<VecDeque<ConnRequest>>>,
    queued: AtomicU64,
    config: NetConfig,
    stats: Arc<NetStats>,
}

impl Listener {
    /// Creates a listener on `port`.
    pub fn new(port: u16, config: NetConfig, stats: Arc<NetStats>) -> Self {
        use pk_lockdep::{register_class, LockKind};
        let percore_class = register_class("net.listener.percore_queue", "pk-net", LockKind::Spin);
        let listener = Self {
            port,
            shared: SpinLock::new(VecDeque::new()),
            percore: PerCore::new_with(config.cores, |_| {
                let l = SpinLock::new(VecDeque::new());
                l.set_class(percore_class);
                l
            }),
            queued: AtomicU64::new(0),
            config,
            stats,
        };
        listener.shared.set_class(register_class(
            "net.listener.backlog",
            "pk-net",
            LockKind::Spin,
        ));
        listener
    }

    /// Enqueues a completed handshake that arrived on `core`'s NIC queue.
    ///
    /// The request is counted before it is pushed, so an accept can only
    /// count down a request that is already counted: [`Listener::backlog`]
    /// never exceeds the requests enqueued and never wraps below zero.
    pub fn enqueue(&self, flow: FlowHash, core: CoreId) {
        self.queued.fetch_add(1, Ordering::AcqRel);
        #[cfg(test)]
        pk_lockdep::probe::hit(ENQUEUE_SITE);
        let req = ConnRequest {
            flow,
            arrived_on: core,
        };
        if self.config.percore_accept_queues {
            // The NIC's flow steering delivers the handshake to `core`'s
            // queue regardless of which core runs the driver — a
            // documented cross-core producer, not a discipline bug.
            let _migrate = pk_lockdep::MigrationScope::enter();
            self.percore.get(core).lock().push_back(req);
        } else {
            self.shared.lock().push_back(req);
        }
    }

    /// Accepts a pending connection on `core`.
    ///
    /// PK prefers the local core's backlog and steals on empty; stock
    /// serializes all accepts on the shared queue.
    pub fn accept(&self, core: CoreId) -> Option<Connection> {
        if self.config.percore_accept_queues {
            pk_lockdep::check_percore_mutation("net.listener.percore_queue", core.index());
            if let Some(req) = self.percore.get(core).lock().pop_front() {
                self.queued.fetch_sub(1, Ordering::Release);
                self.stats.accept_local_queue.bump();
                return Some(Connection {
                    flow: req.flow,
                    core,
                    local: req.arrived_on == core,
                });
            }
            // Steal from the other cores' queues — the §4.2 escape hatch
            // for an idle acceptor, an intentional cross-core removal.
            let _migrate = pk_lockdep::MigrationScope::enter();
            for offset in 1..self.percore.cores() {
                let victim = CoreId((core.index() + offset) % self.percore.cores());
                if let Some(req) = self.percore.get(victim).lock().pop_front() {
                    self.queued.fetch_sub(1, Ordering::Release);
                    self.stats.accept_steals.bump();
                    return Some(Connection {
                        flow: req.flow,
                        core,
                        local: false,
                    });
                }
            }
            None
        } else {
            let req = self.shared.lock().pop_front()?;
            self.queued.fetch_sub(1, Ordering::Release);
            self.stats.accept_shared_queue.bump();
            Some(Connection {
                flow: req.flow,
                core,
                local: req.arrived_on == core,
            })
        }
    }

    /// Total pending connection requests.
    pub fn backlog(&self) -> u64 {
        self.queued.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_lockdep::probe;

    fn flow(p: u16) -> FlowHash {
        FlowHash {
            src_ip: 1,
            src_port: p,
            dst_ip: 2,
            dst_port: 80,
        }
    }

    #[test]
    fn stock_accepts_fifo_from_shared_queue() {
        let stats = Arc::new(NetStats::new());
        let l = Listener::new(80, NetConfig::stock(4), Arc::clone(&stats));
        l.enqueue(flow(1), CoreId(0));
        l.enqueue(flow(2), CoreId(1));
        let c1 = l.accept(CoreId(3)).unwrap();
        assert_eq!(c1.flow, flow(1));
        assert!(!c1.local, "arrived on 0, accepted on 3");
        let c2 = l.accept(CoreId(1)).unwrap();
        assert!(c2.local);
        assert!(l.accept(CoreId(0)).is_none());
        assert_eq!(stats.accept_shared_queue.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pk_prefers_local_queue() {
        let stats = Arc::new(NetStats::new());
        let l = Listener::new(80, NetConfig::pk(4), Arc::clone(&stats));
        l.enqueue(flow(1), CoreId(2));
        let c = l.accept(CoreId(2)).unwrap();
        assert!(c.local);
        assert_eq!(stats.accept_local_queue.load(Ordering::Relaxed), 1);
        assert_eq!(stats.accept_steals.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pk_steals_when_local_empty() {
        let stats = Arc::new(NetStats::new());
        let l = Listener::new(80, NetConfig::pk(4), Arc::clone(&stats));
        l.enqueue(flow(9), CoreId(3));
        let c = l.accept(CoreId(0)).unwrap();
        assert_eq!(c.flow, flow(9));
        assert!(!c.local);
        assert_eq!(stats.accept_steals.load(Ordering::Relaxed), 1);
        assert_eq!(l.backlog(), 0);
    }

    #[test]
    fn backlog_counts_all_queues() {
        let l = Listener::new(80, NetConfig::pk(4), Arc::new(NetStats::new()));
        for i in 0..4 {
            l.enqueue(flow(i as u16), CoreId(i));
        }
        assert_eq!(l.backlog(), 4);
        l.accept(CoreId(0)).unwrap();
        assert_eq!(l.backlog(), 3);
    }

    /// An accept that runs after an enqueue counted its request but
    /// before it pushed it finds nothing to take. Pushing before counting
    /// would let that accept take the request and count the backlog down
    /// past zero.
    #[test]
    fn an_accept_inside_the_enqueue_window_finds_nothing() {
        for percore in [false, true] {
            let mut config = NetConfig::pk(4);
            config.percore_accept_queues = percore;
            let l = Arc::new(Listener::new(80, config, Arc::new(NetStats::new())));
            let rival = Arc::clone(&l);
            let seen = std::rc::Rc::new(std::cell::Cell::new(None));
            let saw = std::rc::Rc::clone(&seen);
            probe::with(
                ENQUEUE_SITE,
                probe::once(move || {
                    let accepted = (0..4).find_map(|c| rival.accept(CoreId(c)));
                    saw.set(Some((accepted, rival.backlog())));
                }),
                || l.enqueue(flow(1), CoreId(0)),
            );
            let (accepted, backlog) = seen.take().expect("the probe ran");
            assert_eq!(accepted, None, "nothing is pushed yet (percore {percore})");
            assert_eq!(backlog, 1, "counted once, not wrapped (percore {percore})");
            assert_eq!(l.backlog(), 1);
            assert_eq!(l.accept(CoreId(0)).map(|c| c.flow), Some(flow(1)));
            assert_eq!(l.backlog(), 0);
        }
    }

    #[test]
    fn concurrent_accepts_drain_exactly_once() {
        let l = Arc::new(Listener::new(
            80,
            NetConfig::pk(4),
            Arc::new(NetStats::new()),
        ));
        for i in 0..400u16 {
            l.enqueue(flow(i), CoreId((i % 4) as usize));
        }
        let handles: Vec<_> = (0..4)
            .map(|core| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    let mut got = 0;
                    while l.accept(CoreId(core)).is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 400);
        assert_eq!(l.backlog(), 0);
    }
}
