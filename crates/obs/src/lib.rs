//! Contention observability for the MOSBENCH reproduction.
//!
//! The paper found its 16 bottlenecks by *measuring*: per-lock wait
//! times, cache-line transfer counts, and per-subsystem CPU-time
//! attribution on the 48-core machine (§3, §5). This crate is the
//! reproduction's version of that toolchain:
//!
//! * [`metrics`] — the cache-aligned [`Histogram`]. Every shard lives
//!   in its own 128-byte-aligned per-core slot, so the instrumentation
//!   never creates the false sharing it is trying to measure.
//! * [`Sample`]/[`Snapshot`]/[`Collect`] — the wire format between
//!   instrumented crates and reports. A sample is one named
//!   measurement; the value kinds mirror what the paper measured (lock
//!   contention, central vs. local operation mixes, per-station
//!   queueing). Subsystems that already own their counters (lock
//!   stats, VFS stats, sloppy-counter op mixes) implement [`Collect`]
//!   and are polled by whoever builds the snapshot.
//! * [`ContentionReport`] — the Figure-1 "bottleneck" column re-derived
//!   from a snapshot: the top-N contended resources ranked by their
//!   share of total cycles per operation.
//! * [`Table`] — how report tables and artifacts print: a row type's
//!   columns, each stated once and rendered as an aligned text table,
//!   as JSON ([`document`]) and as OpenMetrics ([`OpenMetrics`]).
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
mod report;
mod sample;
mod table;

pub use metrics::Histogram;
pub use report::{ContentionReport, Resource};
pub use sample::{
    Collect, HistogramSnapshot, LockSample, MetricValue, Sample, Snapshot, StationSample,
};
pub use table::{document, Cell, OpenMetrics, Table};
