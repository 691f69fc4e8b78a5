//! Process-management substrate for the MOSBENCH userspace kernel.
//!
//! Exim "forks a new process for each connection, which ... also forks
//! twice to deliver each message" (§3.1), so process creation and
//! destruction are on MOSBENCH's hot path. No workload dispatches
//! processes, so the substrate keeps the process table and no run
//! queues.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod process;

pub use process::{Pid, ProcError, Process, ProcessTable};
