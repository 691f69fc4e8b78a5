//! Adaptive contention management: the third kernel personality.
//!
//! The paper's method was manual: profile a workload at 48 cores, find
//! the contended kernel structure, apply the matching fix (a sloppy
//! counter, a per-core cache, finer-grained locks), repeat — 16
//! hand-placed patches in all. This crate closes that loop by machine.
//!
//! Two layers, same observe→hysteresis→act loop:
//!
//! * [`AdaptController`] works at the *model* level. At seeded epoch
//!   boundaries it runs the workload's queueing network through the
//!   DES, computes each classed kernel structure's share of end-to-end
//!   cycles/op, and flips the fix registered for that class
//!   ([`pk_kernel::fix_for_class`]) when the share crosses a
//!   threshold. Promotion and demotion are separated by a hysteresis
//!   band and a cooldown window, so policy cannot flap. Everything is
//!   driven by the simulator's virtual clock and a pinned seed — two
//!   runs produce byte-identical decision logs.
//! * [`Governor`] works at the *runtime* level, applying the same
//!   discipline to live objects: it promotes and demotes
//!   [`pk_sloppy::SloppyCounter`]s between per-core banking and exact
//!   central mode, retunes their banking thresholds from observed
//!   drift-vs-contention ratios, and fires registered stripe levers
//!   (e.g. dcache bucket splits) when per-stripe load exceeds a bound.
//!   Its state lives under the named lockdep class `adapt.governor`.
//!
//! The `adaptive` personality ([`pk_kernel::KernelConfig::adaptive`])
//! boots with **zero** fixes enabled and earns each one from
//! observation; `pk-bench report adaptive` asserts it reaches
//! ≥ 90% of the hand-fixed PK kernel's throughput on every roster
//! workload with no per-workload knowledge anywhere in this crate.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod controller;
mod governor;

pub use controller::{
    render_log, AdaptController, AdaptPolicy, ConvergeOutcome, Decision, Observation,
};
pub use governor::{GovAction, GovDecision, Governor, GovernorPolicy};
