//! The seven MOSBENCH applications (§3), each in two forms:
//!
//! 1. a **driver** that issues the application's kernel-operation mix
//!    against the real [`pk_kernel::Kernel`] substrate — the functional
//!    workload used by tests and examples, and the source of truth for
//!    *which* shared objects each app hammers;
//! 2. a **model** implementing [`pk_sim::WorkloadModel`] — the same
//!    operation mix expressed as per-operation cycle demands on the
//!    simulated 48-core machine, which regenerates the paper's figures.
//!
//! Model parameters are documented constants: per-operation cycle totals
//! come from the paper's own single-core throughput and in-kernel time
//! fractions (§3), and shared-resource demands are set so the stock
//! curves reproduce the published bottlenecks (each constant cites its
//! figure). The stock/PK switch works by zeroing the demands of stations
//! whose Figure-1 fix is enabled — exactly how the real fixes work: they
//! do not speed anything up, they stop touching shared lines.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod apache;
mod common;
pub mod exim;
pub mod gmake;
pub mod gmake_exec;
pub mod memcached;
pub mod metis;
pub mod pedsort;
pub mod pedsort_indexer;
pub mod postgres;
pub mod roster;
pub mod summary;

pub use common::{config_label, demand_unless};
// `benchmark/` is frozen and predates the merge of the personality
// enums: this is a second name for the one type, not a second type, and
// goes when `benchmark/src/*.rs` say `pk_kernel::Personality`.
pub use pk_kernel::Personality as KernelChoice;
