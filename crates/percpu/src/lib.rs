//! Per-CPU infrastructure for a userspace kernel.
//!
//! The scalability fixes in *An Analysis of Linux Scalability to Many Cores*
//! (Boyd-Wickizer et al., OSDI 2010) repeatedly apply one structural idea:
//! give each core its own copy of a piece of mutable state so that, in the
//! common case, a core touches only cache lines it owns. This crate provides
//! the building blocks the rest of the workspace uses to express that idea:
//!
//! * [`CacheAligned`] — a wrapper that pads and aligns its contents to a
//!   cache line, eliminating false sharing (paper §4.6).
//! * [`CoreId`] / [`CoreToken`] / [`registry`] — a registry that binds each
//!   thread to a logical core slot, standing in for `smp_processor_id()`.
//! * [`PerCore`] — a fixed array of cache-aligned slots indexed by
//!   [`CoreId`], standing in for the kernel's `DEFINE_PER_CPU` machinery
//!   (paper §4.5).
//! * [`Tally`] — event counters bumped with a plain load
//!   and store on a row only the calling thread writes, standing in for
//!   `this_cpu_inc` statistics.
//! * [`IntKeyMap`] / [`IntKeyHasher`] — maps keyed by integers this
//!   program hands out itself (inode numbers, ports, flow hashes), hashed
//!   with one multiply instead of SipHash.
//!
//! # Examples
//!
//! ```
//! use pk_percpu::{registry, PerCore};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let counters: PerCore<AtomicU64> = PerCore::new_with(8, |_| AtomicU64::new(0));
//! let token = registry::register().unwrap();
//! counters.get(token.core_id()).fetch_add(1, Ordering::Relaxed);
//! assert_eq!(counters.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>(), 1);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod inthash;
mod padded;
mod percore;
pub mod registry;
mod tally;

pub use inthash::{IntKeyHasher, IntKeyMap};
pub use padded::{CacheAligned, CACHE_LINE_BYTES};
pub use percore::PerCore;
pub use registry::{CoreId, CoreToken, RegistryError, MAX_CORES};
pub use tally::{owner_add, Tally, MAX_TALLIES};
