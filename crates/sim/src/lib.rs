//! A deterministic model of the paper's 48-core machine.
//!
//! The evaluation machine (§5.1) cannot be rented in 2010 trim, and this
//! host has one CPU, so the figures are regenerated on a performance
//! model instead of bare metal. The model is a **closed queueing
//! network** solved by Mean Value Analysis:
//!
//! * each active core is a customer cycling through one operation after
//!   another (MOSBENCH keeps every core saturated);
//! * per-core work (user code, uncontended kernel code) is *delay* —
//!   it scales perfectly;
//! * every shared cache line — a lock word, a reference count, a falsely
//!   shared structure field — is a *queueing station* whose service time
//!   is the cache-line transfer latency: "these operations take about the
//!   same time as loading data from off-chip RAM (hundreds of cycles)"
//!   (§4.1);
//! * non-scalable spin locks additionally inflate their service time in
//!   proportion to the number of waiters ("per-acquire interconnect
//!   traffic that is proportional to the number of waiting cores", §4.1,
//!   \[41\]), which is what makes stock curves *collapse* rather than
//!   merely flatten.
//!
//! On top of the network sit the §5 hardware ceilings: the NIC's
//! packet-rate limit that worsens with queue count (§5.3–§5.4), the
//! 51.5 GB/s DRAM bandwidth ceiling (§5.8), and the per-socket L3
//! capacity model behind pedsort's cache sensitivity (§5.7).
//!
//! Everything is pure arithmetic over [`MachineSpec`] constants —
//! byte-identical on every run.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod caps;
pub mod des;
pub mod flow;
mod machine;
mod mva;
pub mod open;
mod workload;

pub use caps::{DramModel, L3Model, NicModel};
pub use flow::{flow_ring_capacity, simulate_flow};
pub use machine::{MachineSpec, TopologyError};
pub use mva::{MvaResult, Network, Station, StationKind};
pub use open::{
    simulate_open, ArrivalPattern, ClientMix, OpenLoopResult, OverloadPolicy, ShedPolicy,
};
pub use workload::{Coarsened, CoreSweep, SweepPoint, WorkloadModel};

/// FNV-1a 64 of a drained stream's canonical bytes
/// ([`pk_trace::encode_stream`]), with every class id renumbered in
/// first-seen order per namespace: interned ids depend on which test in
/// the binary interned a name first, while the digest pins what an
/// engine recorded and in which order.
#[cfg(test)]
pub(crate) fn stream_digest(events: &[pk_trace::Event]) -> u64 {
    let mut seen: Vec<pk_trace::ClassKey> = Vec::new();
    let canonical: Vec<pk_trace::Event> = events
        .iter()
        .map(|e| {
            let key = pk_trace::ClassKey::of(e);
            let class = seen.iter().position(|&k| k == key).unwrap_or_else(|| {
                seen.push(key);
                seen.len() - 1
            });
            pk_trace::Event {
                class: class as u32,
                ..*e
            }
        })
        .collect();
    pk_trace::encode_stream(&canonical)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
