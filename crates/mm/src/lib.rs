//! Memory-management substrate for the MOSBENCH userspace kernel.
//!
//! Models the paper's memory-side bottlenecks:
//!
//! * [`NumaAllocator`] — per-node physical page pools (the paper found the
//!   allocator itself fine at 48 cores, §2, but DMA placement matters).
//! * [`AddressSpace`] — mmap regions under a shared `mmap_sem`: "a
//!   per-process kernel mutex serializes calls to `mmap` and `munmap`,"
//!   which ruins threaded pedsort (§5.7); and "when a fault occurs on a
//!   new mapping, the kernel locks the entire region list with a read
//!   lock," whose shared lock word bottlenecks Metis (§5.8).
//! * Super-pages — 2 MB mappings with either one global super-page mutex
//!   (stock) or one mutex per mapping (PK, Figure 1), plus the
//!   cache-flushing vs non-caching zeroing model.
//!
//! The §4.6 `struct page` false-sharing fix is a cost-model station
//! (`FixId::PageFalseSharing` in the Exim model), not substrate state:
//! splitting a struct's cache lines changes no behaviour to emulate.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod config;
mod mmap;
mod numa;
mod stats;

pub use config::{MmConfig, PageSize};
pub use mmap::{AddressSpace, FaultError, MmapError, RegionId};
pub use numa::{NumaAllocator, OutOfMemory};
pub use stats::MmStats;
