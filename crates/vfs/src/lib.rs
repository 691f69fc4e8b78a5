//! In-memory VFS substrate for the MOSBENCH userspace kernel.
//!
//! The paper's file-system bottlenecks (Figure 1) all live here:
//!
//! * **dentry reference counting** — [`Dentry`] refcounts are atomic in
//!   the stock configuration, sloppy in PK (§4.3) and per-core under
//!   PK's generation-2 fix (§7).
//! * **dentry spin locks during lookup** — [`Dcache::lookup`] uses either
//!   the locking compare or the lock-free generation-counter protocol
//!   (§4.4).
//! * **vfsmount reference counting and the mount-table spin lock** —
//!   [`MountTable`] has a central table (stock) with optional per-core
//!   caches (PK, §4.5).
//! * **per-super-block open-file lists** — [`SuperBlock`] keeps one
//!   global list (stock) or per-core lists (PK, §4.5).
//! * **the per-inode `lseek` mutex** — [`OpenFile::lseek`] either locks
//!   the inode mutex (stock) or reads the size atomically (PK, §5.5).
//! * **inode/dcache global list locks** — acquired on every operation in
//!   stock, skipped "when not necessary" in PK (Figure 1).
//!
//! Everything is real, thread-safe Rust backed by an in-memory
//! [`Tmpfs`], mirroring the paper's use of tmpfs "to avoid disk
//! bottlenecks." Behavioural switches live in [`VfsConfig`]; contention
//! diagnostics in [`VfsStats`].

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod config;
mod dcache;
mod dentry;
mod error;
mod file;
mod inode;
mod mount;
mod namei;
pub mod pagecache;
mod stats;
mod superblock;
mod tmpfs;
mod vfs;

pub use config::VfsConfig;
pub use dcache::Dcache;
pub use dentry::{Dentry, DentryKey, DentryProbe};
pub use error::VfsError;
pub use file::{OpenFile, Whence};
pub use inode::{Inode, InodeId, InodeKind};
pub use mount::{MountTable, VfsMount};
pub use namei::PathWalker;
pub use stats::VfsStats;
pub use superblock::SuperBlock;
pub use tmpfs::Tmpfs;
pub use vfs::Vfs;
