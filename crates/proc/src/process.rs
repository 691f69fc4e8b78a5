//! Processes and the process table.

use pk_percpu::{owner_add, CoreId, IntKeyMap};
use pk_sync::SpinLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// Errors from process operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcError {
    /// Unknown pid.
    NoSuchProcess,
    /// Fork failed for lack of resources (`EAGAIN`); retrying later may
    /// succeed.
    ResourceExhausted,
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSuchProcess => f.write_str("no such process"),
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
    /// The core the process was created on (its cache-affine home). Exim's
    /// foreseen bottleneck — "a per-connection process and the delivery
    /// process it forks run on different cores" (§5.2) — is observable by
    /// comparing home cores of parent and child.
    pub home_core: CoreId,
}

/// The global process table.
///
/// Every operation is one hold of the table lock: `fork` checks the
/// parent, takes the next pid and inserts the child under it; `exit`
/// finds the process and removes it under it (the parent reaps at once,
/// so no zombie outlives the call). Pids are handed out by the table
/// itself, so the map hashes them with [`IntKeyMap`]'s multiply-and-fold
/// rather than SipHash.
#[derive(Debug)]
pub struct ProcessTable {
    procs: SpinLock<IntKeyMap<u64, Arc<Process>>>,
    /// Written only under the `procs` lock.
    next_pid: AtomicU64,
    /// Written only under the `procs` lock.
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
            procs: SpinLock::new(IntKeyMap::default()),
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
        let mut procs = t.procs.lock();
        let init = t.spawn_locked(&mut procs, Pid(0), CoreId(0));
        debug_assert_eq!(init.pid, Pid(1));
        drop(procs);
        t
    }

    /// Takes the next pid and inserts a process under it; the caller
    /// holds the table lock.
    fn spawn_locked(
        &self,
        procs: &mut IntKeyMap<u64, Arc<Process>>,
        parent: Pid,
        core: CoreId,
    ) -> Arc<Process> {
        let pid = Pid(self.next_pid.load(Ordering::Relaxed));
        owner_add(&self.next_pid, 1);
        let p = Arc::new(Process {
            pid,
            parent,
            home_core: core,
        });
        procs.insert(pid.0, Arc::clone(&p));
        p
    }

    /// Forks a child of `parent` on `core`.
    ///
    /// The `proc.fork_fail` point is consulted first, outside the table
    /// lock (an armed point takes the fault plane's own locks); then one
    /// hold checks the parent, takes the pid and inserts the child.
    pub fn fork(&self, parent: Pid, core: CoreId) -> Result<Arc<Process>, ProcError> {
        if self.fault_fork.should_inject() {
            return Err(ProcError::ResourceExhausted);
        }
        let mut procs = self.procs.lock();
        if !procs.contains_key(&parent.0) {
            return Err(ProcError::NoSuchProcess);
        }
        owner_add(&self.forks, 1);
        Ok(self.spawn_locked(&mut procs, parent, core))
    }

    /// `exec(2)`: replaces the process image. In this model the only
    /// observable effect is the cost marker — which is the point: Exim's
    /// third application fix avoids "an exec() per mail message" (§5.2).
    pub fn exec(&self, pid: Pid) -> Result<(), ProcError> {
        if !self.procs.lock().contains_key(&pid.0) {
            return Err(ProcError::NoSuchProcess);
        }
        self.execs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `exit(2)` followed at once by the parent's `wait`: removes `pid`
    /// from the table in one hold.
    pub fn exit(&self, pid: Pid) -> Result<(), ProcError> {
        match self.procs.lock().remove(&pid.0) {
            Some(_) => Ok(()),
            None => Err(ProcError::NoSuchProcess),
        }
    }

    /// Number of live (unreaped) processes.
    pub fn len(&self) -> usize {
        self.procs.lock().len()
    }

    /// Returns whether the table is empty (never, while init lives).
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

    /// Returns the table lock's statistics.
    pub fn lock_stats(&self) -> &pk_sync::LockStats {
        self.procs.stats()
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
        assert!(!t.is_empty());
    }

    #[test]
    fn fork_exit_lifecycle() {
        let t = ProcessTable::new();
        let child = t.fork(Pid(1), CoreId(2)).unwrap();
        assert_eq!(child.parent, Pid(1));
        assert_eq!(child.home_core, CoreId(2));
        assert_eq!(t.len(), 2);
        t.exit(child.pid).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.exit(child.pid), Err(ProcError::NoSuchProcess));
        assert_eq!(t.fork_count(), 1);
    }

    #[test]
    fn fork_from_unknown_parent_fails() {
        let t = ProcessTable::new();
        assert_eq!(
            t.fork(Pid(99), CoreId(0)).unwrap_err(),
            ProcError::NoSuchProcess
        );
        assert_eq!(t.fork_count(), 0);
        assert_eq!(t.len(), 1);
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
        assert_eq!((d1.parent, d2.parent), (conn.pid, conn.pid));
        assert_eq!(t.len(), 4);
        for p in [d1.pid, d2.pid, conn.pid] {
            t.exit(p).unwrap();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.fork_count(), 3);
    }

    #[test]
    fn concurrent_forks_get_distinct_pids() {
        let t = Arc::new(ProcessTable::new());
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    (0..200)
                        .map(|_| t.fork(Pid(1), CoreId(c)).unwrap().pid)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut pids: Vec<Pid> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 800);
        assert_eq!(t.fork_count(), 800);
        assert_eq!(t.len(), 801);
    }
}
