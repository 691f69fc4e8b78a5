//! Processes and the process table.

use pk_percpu::CoreId;
use pk_sync::SpinLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Forked and not yet exited.
    Runnable,
    /// Exited, not yet reaped by its parent.
    Zombie,
}

/// Errors from process operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcError {
    /// Unknown pid.
    NoSuchProcess,
    /// Attempted to reap a child that has not exited.
    NotAZombie,
    /// Attempted to reap a process that is not a child of the caller.
    NotYourChild,
    /// Fork failed for lack of resources (`EAGAIN`); retrying later may
    /// succeed.
    ResourceExhausted,
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSuchProcess => f.write_str("no such process"),
            Self::NotAZombie => f.write_str("child has not exited"),
            Self::NotYourChild => f.write_str("not a child of the caller"),
            Self::ResourceExhausted => f.write_str("resource temporarily unavailable"),
        }
    }
}

impl std::error::Error for ProcError {}

/// A process: identity, parentage, and scheduling affinity.
#[derive(Debug)]
pub struct Process {
    /// The process id.
    pub pid: Pid,
    /// Parent pid (`Pid(0)` for the initial process).
    pub parent: Pid,
    /// Set once, by `exit`: the process is a zombie from then on.
    /// Stored with Release and loaded with Acquire in `state`, so a
    /// reaper that sees the zombie sees what the process did before
    /// it exited.
    exited: AtomicBool,
    /// The core the process was created on (its cache-affine home). Exim's
    /// foreseen bottleneck — "a per-connection process and the delivery
    /// process it forks run on different cores" (§5.2) — is observable by
    /// comparing home cores of parent and child.
    pub home_core: CoreId,
}

impl Process {
    /// Returns the process state.
    pub fn state(&self) -> ProcessState {
        if self.exited.load(Ordering::Acquire) {
            ProcessState::Zombie
        } else {
            ProcessState::Runnable
        }
    }
}

/// The global process table.
#[derive(Debug)]
pub struct ProcessTable {
    procs: SpinLock<HashMap<Pid, Arc<Process>>>,
    next_pid: AtomicU64,
    forks: AtomicU64,
    execs: AtomicU64,
    /// `proc.fork_fail`: fork fails with EAGAIN, as when a process or
    /// memory limit is hit.
    fault_fork: pk_fault::FaultPoint,
}

impl ProcessTable {
    /// Creates a table containing the initial process (`Pid(1)`).
    pub fn new() -> Self {
        Self::with_faults(&pk_fault::FaultPlane::disabled())
    }

    /// Like [`ProcessTable::new`], with fork failures injectable through
    /// `faults` (`proc.fork_fail`).
    pub fn with_faults(faults: &pk_fault::FaultPlane) -> Self {
        let t = Self {
            procs: SpinLock::new(HashMap::new()),
            next_pid: AtomicU64::new(1),
            forks: AtomicU64::new(0),
            execs: AtomicU64::new(0),
            fault_fork: faults.point("proc.fork_fail"),
        };
        t.procs.set_class(pk_lockdep::register_class(
            "proc.process_table",
            "pk-proc",
            pk_lockdep::LockKind::Spin,
        ));
        let init = t.spawn_raw(Pid(0), CoreId(0));
        debug_assert_eq!(init.pid, Pid(1));
        t
    }

    fn spawn_raw(&self, parent: Pid, core: CoreId) -> Arc<Process> {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        let p = Arc::new(Process {
            pid,
            parent,
            exited: AtomicBool::new(false),
            home_core: core,
        });
        self.procs.lock().insert(pid, Arc::clone(&p));
        p
    }

    /// Forks a child of `parent` on `core`.
    pub fn fork(&self, parent: Pid, core: CoreId) -> Result<Arc<Process>, ProcError> {
        if !self.procs.lock().contains_key(&parent) {
            return Err(ProcError::NoSuchProcess);
        }
        if self.fault_fork.should_inject() {
            return Err(ProcError::ResourceExhausted);
        }
        self.forks.fetch_add(1, Ordering::Relaxed);
        Ok(self.spawn_raw(parent, core))
    }

    /// `exec(2)`: replaces the process image. In this model the only
    /// observable effect is the cost marker — which is the point: Exim's
    /// third application fix avoids "an exec() per mail message" (§5.2).
    pub fn exec(&self, pid: Pid) -> Result<(), ProcError> {
        if !self.procs.lock().contains_key(&pid) {
            return Err(ProcError::NoSuchProcess);
        }
        self.execs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Marks `pid` as exited (zombie until reaped).
    pub fn exit(&self, pid: Pid) -> Result<(), ProcError> {
        let p = self.get(pid).ok_or(ProcError::NoSuchProcess)?;
        p.exited.store(true, Ordering::Release);
        Ok(())
    }

    /// Reaps a zombie child: removes it from the table (`wait`).
    pub fn reap(&self, parent: Pid, child: Pid) -> Result<(), ProcError> {
        let mut procs = self.procs.lock();
        let p = procs.get(&child).ok_or(ProcError::NoSuchProcess)?;
        if p.parent != parent {
            return Err(ProcError::NotYourChild);
        }
        if p.state() != ProcessState::Zombie {
            return Err(ProcError::NotAZombie);
        }
        procs.remove(&child);
        Ok(())
    }

    /// Fetches a process.
    pub fn get(&self, pid: Pid) -> Option<Arc<Process>> {
        self.procs.lock().get(&pid).cloned()
    }

    /// Number of live (unreaped) processes.
    pub fn len(&self) -> usize {
        self.procs.lock().len()
    }

    /// Returns whether only the initial process remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total forks performed.
    pub fn fork_count(&self) -> u64 {
        self.forks.load(Ordering::Relaxed)
    }

    /// Total execs performed.
    pub fn exec_count(&self) -> u64 {
        self.execs.load(Ordering::Relaxed)
    }
}

impl Default for ProcessTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_process_exists() {
        let t = ProcessTable::new();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(Pid(1)).unwrap().parent, Pid(0));
    }

    #[test]
    fn fork_exit_reap_lifecycle() {
        let t = ProcessTable::new();
        let child = t.fork(Pid(1), CoreId(2)).unwrap();
        assert_eq!(child.parent, Pid(1));
        assert_eq!(child.home_core, CoreId(2));
        assert_eq!(child.state(), ProcessState::Runnable);
        assert_eq!(t.reap(Pid(1), child.pid), Err(ProcError::NotAZombie));
        t.exit(child.pid).unwrap();
        assert_eq!(t.get(child.pid).unwrap().state(), ProcessState::Zombie);
        t.reap(Pid(1), child.pid).unwrap();
        assert!(t.get(child.pid).is_none());
        assert_eq!(t.fork_count(), 1);
    }

    #[test]
    fn reap_requires_parentage() {
        let t = ProcessTable::new();
        let a = t.fork(Pid(1), CoreId(0)).unwrap();
        let b = t.fork(a.pid, CoreId(0)).unwrap();
        t.exit(b.pid).unwrap();
        assert_eq!(t.reap(Pid(1), b.pid), Err(ProcError::NotYourChild));
        t.reap(a.pid, b.pid).unwrap();
    }

    #[test]
    fn fork_from_unknown_parent_fails() {
        let t = ProcessTable::new();
        assert_eq!(
            t.fork(Pid(99), CoreId(0)).unwrap_err(),
            ProcError::NoSuchProcess
        );
    }

    #[test]
    fn exec_counts_and_validates() {
        let t = ProcessTable::new();
        assert_eq!(t.exec(Pid(99)).unwrap_err(), ProcError::NoSuchProcess);
        let c = t.fork(Pid(1), CoreId(0)).unwrap();
        t.exec(c.pid).unwrap();
        t.exec(c.pid).unwrap();
        assert_eq!(t.exec_count(), 2);
    }

    #[test]
    fn injected_fork_failure_is_transient() {
        let faults = pk_fault::FaultPlane::with_seed(4);
        faults.set("proc.fork_fail", pk_fault::FaultSchedule::EveryNth(2));
        faults.enable();
        let t = ProcessTable::with_faults(&faults);
        t.fork(Pid(1), CoreId(0)).unwrap();
        assert_eq!(
            t.fork(Pid(1), CoreId(0)).unwrap_err(),
            ProcError::ResourceExhausted
        );
        assert_eq!(t.fork_count(), 1, "failed fork does not count as a fork");
        assert_eq!(t.len(), 2, "no half-made process in the table");
        t.fork(Pid(1), CoreId(0)).unwrap();
    }

    #[test]
    fn exim_style_double_fork() {
        // Master forks a per-connection process, which forks twice to
        // deliver (§3.1).
        let t = ProcessTable::new();
        let conn = t.fork(Pid(1), CoreId(0)).unwrap();
        let d1 = t.fork(conn.pid, CoreId(0)).unwrap();
        let d2 = t.fork(conn.pid, CoreId(1)).unwrap();
        assert_eq!(t.len(), 4);
        for p in [d1.pid, d2.pid] {
            t.exit(p).unwrap();
            t.reap(conn.pid, p).unwrap();
        }
        t.exit(conn.pid).unwrap();
        t.reap(Pid(1), conn.pid).unwrap();
        assert_eq!(t.len(), 1);
    }
}
