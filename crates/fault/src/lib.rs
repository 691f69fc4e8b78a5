//! Deterministic fault injection for the PK kernel stack.
//!
//! The paper's method is measure → attribute → fix; `pk-obs` is the
//! measurement half. This crate is its robustness twin: a seed-driven
//! fault-injection plane that lets every failure run replay byte-for-byte,
//! so the error paths the fixes introduce (the fault classes Palix et al.
//! found dominating real kernel bugs) can be exercised and regression
//! tested instead of discovered in production.
//!
//! * [`FaultPlane`] — a process-wide registry of named injection points.
//!   Like `pk-obs`, it is cheap enough to compile in always: a disabled
//!   plane costs one relaxed atomic load per check.
//! * [`FaultPoint`] — a handle a subsystem resolves once at construction
//!   and checks on its hot path (`mm.alloc_enomem`, `net.rx_drop`,
//!   `vfs.dentry_alloc`, `proc.fork_fail`, ...).
//! * [`FaultSchedule`] — when a point fires: never, with a probability,
//!   every Nth arrival, or one-shot at a given arrival count. Decisions
//!   depend only on `(seed, point, arrival index)` — never on thread
//!   timing — so the set of injected faults is identical across thread
//!   interleavings and replays exactly from the seed.
//! * [`backoff`] — the handling side: bounded retries with
//!   exponential backoff and deterministic jitter drawn from the same
//!   seed, so a workload's recovery schedule replays too.
//!
//! [`FaultPlane::stats`] reports each point's checked and injected
//! counts; `pk-kernel` exports them as `fault.<point>.checked` /
//! `fault.<point>.injected` samples next to the contention counters.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod backoff;
mod plane;
mod schedule;

pub use plane::{FaultEvent, FaultPlane, FaultPoint, PointStats};
pub use schedule::{fnv64, fnv64_continue, mix64, FaultSchedule, FNV64_BASIS};
