//! Sloppy counters — the new technique introduced by *An Analysis of
//! Linux Scalability to Many Cores* (OSDI 2010, §4.3) — together with the
//! related scalable counters the paper compares against.
//!
//! A shared reference counter updated by many cores becomes a bottleneck
//! even with lock-free atomics, because the coherence hardware serializes
//! operations on the counter's cache line. A **sloppy counter** splits one
//! logical counter into a shared *central* counter plus per-core counts of
//! *spare* references:
//!
//! * To **acquire** `v` references, a core first tries to take them from
//!   its local spare count; only if it has too few does it touch the
//!   central counter.
//! * To **release** `v` references, a core banks them locally as spares,
//!   returning them to the central counter only when the local count
//!   exceeds a threshold.
//!
//! The invariant (paper, §4.3): *the central counter equals the number of
//! references in use plus the sum of all per-core spare counts.* In the
//! common case an update touches only the core's own cache line.
//!
//! Sloppy counters are backwards-compatible with the existing shared
//! counter: code that only reads the central value (or that acquires and
//! releases through it) keeps working, which is why the paper could patch
//! just the contended *uses* of a counter. [`SloppyCounter::central`]
//! exposes that view. The dentry-style object lifecycle (creator's
//! reference, get/put, the expensive settle-on-dealloc, no resurrection)
//! is written once and runs over any of three counters: [`SloppyRefCount`]
//! and [`SnziRefCount`] are its aliases over a sloppy counter and a SNZI
//! tree, and [`RefCount`] picks between those and the stock kernel's
//! shared atomic word at object-creation time.
//!
//! For comparison the crate also implements the related designs the paper
//! cites: [`SnziCounter`] (Scalable NonZero Indicators), the plain
//! [`DistributedCounter`], the batched [`ApproxCounter`] (Linux
//! `percpu_counter`), and the contended [`AtomicCounter`] baseline —
//! all behind the [`Counter`] trait so benchmarks can sweep them.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod approx;
mod atomic;
mod distributed;
mod refcount;
mod sloppy;
mod snzi;
mod traits;

pub use approx::ApproxCounter;
pub use atomic::AtomicCounter;
pub use distributed::DistributedCounter;
pub use refcount::{DeallocError, Lifecycle, RefCount, SloppyRefCount, SnziRefCount};
pub use sloppy::{SloppyConfig, SloppyCounter};
pub use snzi::{Snzi, SnziCounter};
pub use traits::Counter;
