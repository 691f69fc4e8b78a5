//! Contention observability for the MOSBENCH reproduction.
//!
//! The paper found its 16 bottlenecks by *measuring*: per-lock wait
//! times, cache-line transfer counts, and per-subsystem CPU-time
//! attribution on the 48-core machine (§3, §5). This crate is the
//! reproduction's version of that toolchain:
//!
//! * [`metrics`] — cache-aligned metric primitives ([`Counter`],
//!   [`Gauge`], [`Histogram`]). Every cell lives in its own
//!   128-byte-aligned per-core slot, so the instrumentation never
//!   creates the false sharing it is trying to measure.
//! * [`Registry`] — a process-wide, name-keyed home for metrics plus
//!   pull-based [`Collect`] sources, so subsystems that already own
//!   their counters (lock stats, VFS stats, sloppy-counter op mixes)
//!   can be snapshotted through one interface.
//! * [`Sample`]/[`Snapshot`] — the wire format between instrumented
//!   crates and reports. A sample is one named measurement; the value
//!   kinds mirror what the paper measured (lock contention, central
//!   vs. local operation mixes, per-station queueing).
//! * [`ContentionReport`] — the Figure-1 "bottleneck" column re-derived
//!   from a snapshot: the top-N contended resources ranked by their
//!   share of total cycles per operation.
//!
//! `pk-obs` sits at the bottom of the dependency stack (it depends only
//! on `pk-percpu`), so every other crate can use it for hooks without
//! cycles: `pk-sync` reports per-lock acquisition/contention/spin
//! counts, `pk-sloppy` reports central-vs-local op rates, `pk-sim`
//! reports per-station queueing delay and cache-line transfers, and
//! `pk-bench report contention` turns any of those snapshots into
//! the ranked table.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod buckets;
pub mod metrics;
mod registry;
mod report;
mod sample;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use report::{ContentionReport, Resource};
pub use sample::{
    Collect, HistogramSnapshot, LockSample, MetricValue, Sample, Snapshot, StationSample,
};
