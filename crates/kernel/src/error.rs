//! The kernel-wide error type.
//!
//! Syscall-shaped entry points on [`crate::Kernel`] return
//! [`KernelError`] rather than per-substrate error enums, so callers
//! (the MOSBENCH drivers) handle every failure through one type — and
//! can ask the one question that matters for graceful degradation:
//! [`KernelError::is_transient`]. Transient errors are the ones fault
//! injection produces (ENOMEM, EAGAIN, dropped packets); a bounded
//! retry is the right response. Permanent errors (ENOENT, EEXIST, …)
//! must surface immediately.

use pk_mm::{FaultError, MmapError, OutOfMemory};
use pk_net::NetError;
use pk_proc::ProcError;
use pk_vfs::VfsError;
use std::fmt;

/// Any error a [`crate::Kernel`] syscall surface can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// A file-system operation failed.
    Vfs(VfsError),
    /// A process-table operation failed.
    Proc(ProcError),
    /// A page allocation failed.
    Mm(OutOfMemory),
    /// An mmap/munmap call was malformed (empty mapping, unknown
    /// region). Usage errors, never transient.
    Mmap(MmapError),
    /// A page fault could not be served: transient when physical
    /// memory ran out, permanent for a wild access.
    Fault(FaultError),
    /// A network operation failed.
    Net(NetError),
    /// A procfs read named a file that does not exist.
    NoSuchProcFile,
    /// On-disk data failed to parse (a corrupt index or database file).
    ///
    /// Carries a static description of what was malformed. Corruption
    /// is never transient: retrying re-reads the same bytes.
    Corrupt(&'static str),
    /// The request was refused at admission: a bounded admission queue
    /// (`pk_serve::AdmissionQueue`) was full, or a load-shedding policy
    /// sacrificed this request. Transient by
    /// definition — shedding exists precisely so clients back off and
    /// retry into a queue that still has headroom.
    Overloaded,
    /// The request exhausted its deadline/SLO budget before the work
    /// finished. *Not* transient: the budget is gone, so retrying the
    /// same request inside the same deadline only deepens overload
    /// (retry amplification); the caller must fail upward or issue a
    /// fresh request with a fresh budget.
    Timeout,
}

impl KernelError {
    /// Reports whether retrying the failed operation later may succeed.
    ///
    /// This is the contract the workload retry loops are built on:
    /// resource exhaustion (`ENOMEM`, `EAGAIN`) and packet loss are
    /// transient — the very failures the fault plane injects — while
    /// name-space errors (`ENOENT`, `EEXIST`, `ENOTDIR`, …) are
    /// permanent and retrying them only hides bugs.
    pub fn is_transient(self) -> bool {
        match self {
            Self::Vfs(e) => matches!(e, VfsError::OutOfMemory | VfsError::Busy),
            Self::Proc(e) => matches!(e, ProcError::ResourceExhausted),
            Self::Mm(_) => true,
            Self::Mmap(_) => false,
            Self::Fault(e) => matches!(e, FaultError::Oom(_)),
            Self::Net(_) => true,
            Self::NoSuchProcFile => false,
            Self::Corrupt(_) => false,
            Self::Overloaded => true,
            Self::Timeout => false,
        }
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Vfs(e) => write!(f, "vfs: {e}"),
            Self::Proc(e) => write!(f, "proc: {e}"),
            Self::Mm(e) => write!(f, "mm: {e}"),
            Self::Mmap(e) => write!(f, "mmap: {e}"),
            Self::Fault(e) => write!(f, "fault: {e}"),
            Self::Net(e) => write!(f, "net: {e}"),
            Self::NoSuchProcFile => f.write_str("no such /proc file"),
            Self::Corrupt(what) => write!(f, "corrupt data: {what}"),
            Self::Overloaded => f.write_str("overloaded: admission refused"),
            Self::Timeout => f.write_str("deadline exhausted"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<VfsError> for KernelError {
    fn from(e: VfsError) -> Self {
        Self::Vfs(e)
    }
}

impl From<ProcError> for KernelError {
    fn from(e: ProcError) -> Self {
        Self::Proc(e)
    }
}

impl From<OutOfMemory> for KernelError {
    fn from(e: OutOfMemory) -> Self {
        Self::Mm(e)
    }
}

impl From<MmapError> for KernelError {
    fn from(e: MmapError) -> Self {
        Self::Mmap(e)
    }
}

impl From<FaultError> for KernelError {
    fn from(e: FaultError) -> Self {
        Self::Fault(e)
    }
}

impl From<NetError> for KernelError {
    fn from(e: NetError) -> Self {
        Self::Net(e)
    }
}

impl From<crate::procfs::NoSuchProcFile> for KernelError {
    fn from(_: crate::procfs::NoSuchProcFile) -> Self {
        Self::NoSuchProcFile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_net::DropReason;

    #[test]
    fn transience_matches_the_retry_contract() {
        assert!(KernelError::from(VfsError::OutOfMemory).is_transient());
        assert!(KernelError::from(ProcError::ResourceExhausted).is_transient());
        assert!(KernelError::from(OutOfMemory).is_transient());
        assert!(KernelError::from(FaultError::Oom(OutOfMemory)).is_transient());
        assert!(!KernelError::from(FaultError::Segfault).is_transient());
        assert!(!KernelError::from(MmapError::NoSuchRegion).is_transient());
        assert!(KernelError::from(NetError::Backpressure).is_transient());
        assert!(KernelError::from(NetError::Dropped(DropReason::LinkDown)).is_transient());

        // Overload is transient (back off, retry into a drained
        // queue); a missed deadline is not (the budget is spent).
        assert!(KernelError::Overloaded.is_transient());
        assert!(!KernelError::Timeout.is_transient());

        assert!(!KernelError::from(VfsError::NotFound).is_transient());
        assert!(!KernelError::from(ProcError::NoSuchProcess).is_transient());
        assert!(!KernelError::NoSuchProcFile.is_transient());
        assert!(!KernelError::Corrupt("bad index line").is_transient());
    }

    #[test]
    fn displays_name_the_substrate() {
        assert_eq!(
            KernelError::from(VfsError::NotFound).to_string(),
            "vfs: no such file or directory"
        );
        assert_eq!(
            KernelError::from(ProcError::ResourceExhausted).to_string(),
            "proc: resource temporarily unavailable"
        );
        assert_eq!(
            KernelError::NoSuchProcFile.to_string(),
            "no such /proc file"
        );
        assert_eq!(
            KernelError::Corrupt("missing tab").to_string(),
            "corrupt data: missing tab"
        );
        assert_eq!(
            KernelError::Overloaded.to_string(),
            "overloaded: admission refused"
        );
        assert_eq!(KernelError::Timeout.to_string(), "deadline exhausted");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(KernelError::NoSuchProcFile);
        assert!(e.source().is_none());
    }
}
