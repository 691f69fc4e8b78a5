//! UDP sockets.

use crate::nic::FlowHash;
use crate::skb::Skb;
use pk_sync::SpinLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// A datagram received on a socket.
#[derive(Debug)]
pub struct Datagram {
    /// Sender flow tuple (for replies).
    pub from: FlowHash,
    /// The packet buffer.
    pub skb: Skb,
}

/// A bound UDP socket with a per-socket receive queue.
///
/// "A received packet typically passes through multiple queues before
/// finally arriving at a per-socket queue, from which the application
/// reads it" (§4.2). memcached binds one of these per core, each on its
/// own port, so queues never cross cores when steering works.
#[derive(Debug)]
pub struct UdpSocket {
    /// The bound port.
    pub port: u16,
    rx: SpinLock<VecDeque<Datagram>>,
}

impl UdpSocket {
    /// Creates a socket bound to `port`.
    pub fn new(port: u16) -> Arc<Self> {
        let s = Arc::new(Self {
            port,
            rx: SpinLock::new(VecDeque::new()),
        });
        s.rx.set_class(pk_lockdep::register_class(
            "net.socket.rx",
            "pk-net",
            pk_lockdep::LockKind::Spin,
        ));
        s
    }

    /// Delivers a datagram into the socket's receive queue.
    pub fn deliver(&self, from: FlowHash, skb: Skb) {
        self.rx.lock().push_back(Datagram { from, skb });
    }

    /// Receives the oldest pending datagram, if any.
    pub fn recv(&self) -> Option<Datagram> {
        self.rx.lock().pop_front()
    }

    /// Number of queued datagrams.
    pub fn pending(&self) -> usize {
        self.rx.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn flow() -> FlowHash {
        FlowHash {
            src_ip: 1,
            src_port: 9999,
            dst_ip: 2,
            dst_port: 11211,
        }
    }

    #[test]
    fn deliver_then_recv_fifo() {
        let s = UdpSocket::new(11211);
        s.deliver(
            flow(),
            Skb {
                data: Bytes::from_static(b"a"),
                node: 0,
            },
        );
        s.deliver(
            flow(),
            Skb {
                data: Bytes::from_static(b"b"),
                node: 0,
            },
        );
        assert_eq!(s.pending(), 2);
        assert_eq!(s.recv().unwrap().skb.data.as_ref(), b"a");
        assert_eq!(s.recv().unwrap().skb.data.as_ref(), b"b");
        assert!(s.recv().is_none());
    }
}
