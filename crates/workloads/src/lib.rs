//! The seven MOSBENCH applications (§3), each with one driver and one
//! model:
//!
//! 1. a **driver** that issues the application's kernel-operation mix
//!    against the real [`pk_kernel::Kernel`] substrate — the functional
//!    workload used by tests and examples, and the source of truth for
//!    *which* shared objects each app hammers. Most live beside their
//!    model; gmake's is [`gmake_exec::ParallelMake`] over
//!    [`gmake_exec::BuildGraph::kernel_build`] and pedsort's is
//!    [`pedsort_indexer::Indexer`];
//! 2. a **model** implementing [`pk_sim::WorkloadModel`] — the same
//!    operation mix expressed as per-operation cycle demands on the
//!    simulated 48-core machine, which regenerates the paper's figures.
//!
//! Where the paper changed the application as well as the kernel
//! (PostgreSQL, pedsort, Metis), driver and model take the same variant,
//! and [`roster::pairing`] says which one a personality runs.
//!
//! Each model is a `const` station table ([`stations`]). Per-operation
//! cycle totals come from the paper's own single-core throughput and
//! in-kernel time fractions (§3), and shared-resource demands are set so
//! the stock curves reproduce the published bottlenecks (each constant
//! cites its figure). The stock/PK switch zeroes the rows whose class
//! the registry binds to an enabled fix — exactly how the real fixes
//! work: they do not speed anything up, they stop touching shared lines.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod apache;
pub mod exim;
pub mod gmake;
pub mod gmake_exec;
pub mod memcached;
pub mod metis;
pub mod pedsort;
pub mod pedsort_indexer;
pub mod postgres;
pub mod roster;
pub mod stations;
pub mod summary;

pub use stations::config_label;
// `benchmark/` is frozen and predates the merge of the personality
// enums: this is a second name for the one type, not a second type, and
// goes when `benchmark/src/*.rs` say `pk_kernel::Personality`.
pub use pk_kernel::Personality as KernelChoice;
