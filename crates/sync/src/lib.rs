//! Synchronization primitives for the MOSBENCH userspace kernel.
//!
//! The paper's scalability tutorial (§4.1) distinguishes locks by how they
//! behave *under contention*: a Linux spin lock costs "a few cycles if the
//! acquiring core was the previous lock holder, a few hundred cycles if
//! another core last held the lock," and non-scalable spin locks "produce
//! per-acquire interconnect traffic that is proportional to the number of
//! waiting cores" (Mellor-Crummey & Scott). This crate implements the full
//! zoo so the kernel subsystems and simulator can compare them.
//!
//! The four mutual-exclusion locks are one shell — [`Lock`]`<R, T>` with
//! its [`Guard`]: the protected value, [`LockStats`], the `pk-lockdep`
//! class, the trace hooks and all of the `unsafe` that turns "I hold the
//! lock" into `&mut T` — over a [`RawLock`] algorithm that only knows how
//! to wait. The public names are aliases of it:
//!
//! * [`SpinLock`] ([`RawSpin`]) — test-and-test-and-set spin lock, the
//!   non-scalable baseline that serializes Exim on the vfsmount table
//!   (§5.2).
//! * [`TicketLock`] ([`RawTicket`]) — FIFO-fair, like Linux's spinlocks
//!   of the era, but still a single contended cache line.
//! * [`McsLock`] ([`RawMcs`]) — queue lock; waiters spin on local memory,
//!   the scalable alternative the paper cites (\[41\]).
//! * [`AdaptiveMutex`] ([`RawAdaptive`]) — spin-then-yield mutex
//!   modelling Linux's adaptive mutexes, whose starvation under intense
//!   contention ruins PostgreSQL's `lseek` (§5.5).
//!
//! Every one of them records [`LockStats`] (total vs contended
//! acquisitions) so workloads can attribute time to lock waiting the way
//! the paper does, and meets lockdep, the stats and the tracer in the
//! same order (DESIGN §8). Beside them:
//!
//! * [`SeqLock`] and [`GenCounter`] — sequence lock and the paper's
//!   zero-sentinel generation counter; the lock-free dentry comparison
//!   protocol of §4.4 is built on the latter. Generations are per
//!   object: a modification writes no line but the object's own.
//! * [`rcu`] — epoch-based read-copy-update, the mechanism behind the
//!   RCU-optimized directory cache (§4.4, \[39\]): one publish site
//!   ([`rcu::RcuCell::publish`]), one deferred reclamation discipline.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod adaptive;
mod lock;
mod mcs;
pub mod rcu;
mod seqlock;
mod spinlock;
mod stats;
mod ticket;

pub use adaptive::{AdaptiveMutex, AdaptiveMutexGuard, RawAdaptive};
pub use lock::{Guard, Lock, RawLock};
pub use mcs::{McsGuard, McsLock, RawMcs};
pub use seqlock::{GenCounter, SeqLock, SeqLockWriteGuard, SeqReadError};
pub use spinlock::{RawSpin, SpinGuard, SpinLock};
pub use stats::{LockStats, CYCLES_PER_SPIN_ITERATION};
pub use ticket::{RawTicket, TicketGuard, TicketLock};
