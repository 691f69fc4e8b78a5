//! Network stack substrate for the MOSBENCH userspace kernel.
//!
//! Models the parts of the Linux 2.6.35 network stack that the paper's
//! memcached and Apache workloads bottleneck on (§4.2, §4.3, §4.5,
//! Figure 1):
//!
//! * [`SkbPool`] — packet-buffer free lists: one NUMA-node-0 list (stock)
//!   or per-core free lists (PK), plus the DMA-buffer allocation policy.
//! * [`DstEntry`]/[`DstCache`] — the routing destination cache whose
//!   reference count serializes packet transmission (fixed with sloppy
//!   counters).
//! * [`ProtoAccounting`] — per-protocol memory usage counters (TCP/UDP),
//!   also moved to sloppy counters in PK.
//! * [`Nic`] — a multi-queue IXGBE-like card with a flow director:
//!   either hash-based steering of all of a connection's packets to one
//!   core (PK's configuration) or the stock sample-every-20th-TX-packet
//!   policy that misdirects short connections.
//! * [`Listener`] — a listening socket with a single shared backlog
//!   (stock) or per-core accept queues with stealing (PK §4.2).
//! * [`NetStack`] — the facade tying it together with UDP sockets and a
//!   minimal TCP-like connection lifecycle. Each packet operation runs
//!   in one RCU read-side section over the RCU-published routes and
//!   port table.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod config;
mod dst;
mod error;
mod listener;
mod nic;
mod proto;
mod skb;
mod socket;
mod stack;
mod stats;

pub use config::NetConfig;
pub use dst::{DstCache, DstEntry};
pub use error::{DropReason, NetError, RxDrop};
pub use listener::{ConnRequest, Connection, Listener};
pub use nic::{FlowHash, Nic, RxPacket};
pub use proto::{ProtoAccounting, Protocol};
pub use skb::{Skb, SkbPool};
pub use socket::UdpSocket;
pub use stack::{NetStack, SockAddr};
pub use stats::NetStats;

#[cfg(test)]
thread_local! {
    /// Test hook, see [`with_race_probe`].
    static RACE_PROBE: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with `probe` installed as this thread's race probe: the next
/// check-then-act window `f` reaches (a bind between its "taken" check
/// and its publish, an enqueue between its admission check and its push)
/// runs `probe` there, once — so a competing call inside the probe does
/// not recurse. Other threads are unaffected; the previous probe is
/// restored when `f` returns or unwinds.
#[cfg(test)]
pub(crate) fn with_race_probe<R>(probe: impl FnOnce() + 'static, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Box<dyn FnOnce()>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            RACE_PROBE.with(|p| *p.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(RACE_PROBE.with(|p| p.borrow_mut().replace(Box::new(probe))));
    f()
}

#[cfg(test)]
fn run_race_probe() {
    if let Some(probe) = RACE_PROBE.with(|p| p.borrow_mut().take()) {
        probe();
    }
}
