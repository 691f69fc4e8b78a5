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
//! * [`PerCoreArena`] — per-object `{count, ops}` slots packed densely
//!   into per-core rows, standing in for `alloc_percpu`: what a per-core
//!   reference count's shares live in.
//! * [`Tally`] — event counters bumped with a plain load
//!   and store on a row only the calling thread writes, standing in for
//!   `this_cpu_inc` statistics.
//! * [`IntKeyMap`] / [`IntKeySet`] / [`IntKeyHasher`] — maps and sets
//!   keyed by integers this program hands out itself (inode numbers,
//!   pids, open-file ids, ports, flow hashes), hashed
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

pub mod arena;
mod inthash;
mod padded;
mod percore;
pub mod registry;
mod tally;

pub use arena::{CountSlot, PerCoreArena, PerCoreLane, ARENA_LANES};
pub use inthash::{IntKeyHasher, IntKeyMap, IntKeySet};
pub use padded::{CacheAligned, CACHE_LINE_BYTES};
pub use percore::PerCore;
pub use registry::{CoreId, CoreToken, RegistryError, MAX_CORES};
pub use tally::{owner_add, Tally, MAX_TALLIES};

/// Sockets of the paper machine (8×6 Opteron), one NUMA memory node
/// each. The substrates are lowered for this topology: packet buffers
/// get one home node per socket, and per-socket flow tables one shard
/// per socket.
pub const SOCKETS: usize = 8;
