//! MOSBENCH-rs: a Rust reproduction of *An Analysis of Linux Scalability
//! to Many Cores* (Boyd-Wickizer et al., OSDI 2010).
//!
//! This umbrella crate re-exports every workspace crate under one roof so
//! examples and downstream users can depend on a single package:
//!
//! * [`sloppy`] — sloppy counters, the paper's new technique (§4.3), plus
//!   per-core reference counts and the comparison counters (SNZI, plain
//!   atomic).
//! * [`percpu`] / [`sync`] — per-CPU infrastructure and the lock zoo.
//! * [`vfs`] / [`net`] / [`mm`] / [`proc`] — the kernel subsystems the
//!   paper's 16 fixes live in, each with stock and PK variants.
//! * [`kernel`] — the `Kernel` facade with per-fix [`kernel::KernelConfig`]
//!   toggles (stock vs PK presets).
//! * [`sim`] — the deterministic 48-core machine simulator used to
//!   regenerate the paper's figures.
//! * [`mapreduce`] — the Metis-like MapReduce library (§3.7).
//! * [`workloads`] — the seven MOSBENCH application models (§3, §5).
//! * [`fault`] — the deterministic fault-injection plane wired through
//!   every subsystem (seeded schedules, typed errors, bounded retry).

pub use pk_fault as fault;
pub use pk_kernel as kernel;
pub use pk_mapreduce as mapreduce;
pub use pk_mm as mm;
pub use pk_net as net;
pub use pk_percpu as percpu;
pub use pk_proc as proc;
pub use pk_sim as sim;
pub use pk_sloppy as sloppy;
pub use pk_sync as sync;
pub use pk_vfs as vfs;
pub use pk_workloads as workloads;
