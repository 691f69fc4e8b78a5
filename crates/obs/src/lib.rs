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
//! * [`Sample`]/[`Snapshot`] — the wire format of the functional
//!   kernel's counters. A sample is one named measurement; the value
//!   kinds mirror what the paper measured (lock contention, central vs.
//!   local operation mixes, plain totals).
//! * [`ContentionReport`] — the Figure-1 "bottleneck" column re-derived
//!   from a simulator's per-station [`Resource`] rows: the top-N
//!   contended resources ranked by their share of total cycles per
//!   operation.
//! * [`Table`] — how report tables and artifacts print: a row type's
//!   columns, each stated once and rendered as an aligned text table,
//!   as JSON ([`document`]) and as OpenMetrics ([`OpenMetrics`]).
//!
//! `pk-obs` sits at the bottom of the dependency stack (it depends only
//! on `pk-percpu`), so every other crate can use it without cycles:
//! `pk-sync` reports per-lock acquisition/contention/spin counts,
//! `pk-kernel` gathers every subsystem's counters into one snapshot,
//! `pk-sim` returns per-station queueing delay and cache-line transfers
//! as report rows, and `pk-bench report contention` ranks them.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod buckets;
pub mod metrics;
mod report;
mod sample;
mod table;

pub use metrics::Histogram;
pub use report::{ContentionReport, Resource};
pub use sample::{HistogramSnapshot, LockSample, MetricValue, Sample, Snapshot};
pub use table::{document, Cell, OpenMetrics, Table};
