//! Adaptive contention management: the third kernel personality.
//!
//! The paper's method was manual: profile a workload at 48 cores, find
//! the contended kernel structure, apply the matching fix (a sloppy
//! counter, a per-core cache, finer-grained locks), repeat — 16
//! hand-placed patches in all. This crate closes that loop by machine,
//! in model space.
//!
//! At seeded epoch boundaries [`AdaptController`] runs the workload's
//! queueing network through the DES, computes each classed kernel
//! structure's share of end-to-end cycles/op, and flips the fix
//! registered for that class ([`pk_kernel::fix_for_class`]) with
//! [`pk_kernel::KernelConfig::with_fix`] when the share crosses a
//! threshold. Promotion and demotion are separated by a hysteresis
//! band and a cooldown window, so policy cannot flap. Everything is
//! driven by the simulator's virtual clock and a pinned seed — two
//! runs produce byte-identical decision logs. The output is a
//! `KernelConfig`; a kernel booted from it has exactly the substrates
//! that config's fixes select.
//!
//! The `adaptive` personality ([`pk_kernel::KernelConfig::adaptive`])
//! boots with **zero** fixes enabled and earns each one from
//! observation; `pk-bench report adaptive` asserts it reaches
//! ≥ 90% of the hand-fixed PK kernel's throughput on every roster
//! workload with no per-workload knowledge anywhere in this crate.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod controller;

pub use controller::{
    AdaptController, ConvergeOutcome, Decision, Observation, COOLDOWN_EPOCHS, DEMOTE_SHARE_BP,
    MAX_EPOCHS, OPS_PER_CORE, PROMOTE_SHARE_BP, SETTLE_EPOCHS,
};
