//! A synthesized `/proc` (procfs).
//!
//! §5.2's first Exim fix is an *application* change: "Berkeley DB v4.6
//! reads `/proc/stat` to find the number of cores. This consumed about
//! 20% of the total runtime, so we modified Berkeley DB to aggressively
//! cache this information." To reproduce that, the kernel must actually
//! serve `/proc/stat` — this module synthesizes it on demand from live
//! kernel state, like the real procfs. No workload reads any other
//! procfs file, so no other file exists.

use crate::kernel::Kernel;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts reads of the synthesized file (the §5.2 diagnostic).
#[derive(Debug, Default)]
pub struct ProcStats {
    /// Reads of `/proc/stat`.
    pub stat_reads: AtomicU64,
}

/// Errors from procfs reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSuchProcFile;

impl std::fmt::Display for NoSuchProcFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("no such /proc file")
    }
}

impl std::error::Error for NoSuchProcFile {}

/// Synthesizes the contents of a procfs `path` from `kernel` state.
///
/// The one supported path is `/proc/stat`. Unknown paths fail with
/// [`KernelError::NoSuchProcFile`](crate::KernelError::NoSuchProcFile).
pub fn read(kernel: &Kernel, path: &str) -> Result<Vec<u8>, crate::KernelError> {
    if path != "/proc/stat" {
        return Err(NoSuchProcFile.into());
    }
    kernel
        .proc_stats()
        .stat_reads
        .fetch_add(1, Ordering::Relaxed);
    let mut out = String::new();
    // No CPU time is charged: the time columns read zero.
    // Writes into a String are infallible; ignore the Result
    // rather than panicking on a syscall-facing path.
    let _ = writeln!(out, "cpu  0 0 0 0 0 0 0 0 0 0");
    for core in 0..kernel.config().cores {
        let _ = writeln!(out, "cpu{core} 0 0 0 0 0 0 0 0 0 0");
    }
    let _ = writeln!(out, "processes {}", kernel.procs().fork_count());
    Ok(out.into_bytes())
}

/// Parses the core count out of `/proc/stat` content, the way Berkeley
/// DB does.
pub fn parse_cpu_count(stat: &[u8]) -> usize {
    let text = String::from_utf8_lossy(stat);
    text.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;

    #[test]
    fn proc_stat_reports_all_cores() {
        let k = Kernel::new(KernelConfig::pk(6));
        let stat = read(&k, "/proc/stat").unwrap();
        assert_eq!(parse_cpu_count(&stat), 6);
        let text = String::from_utf8(stat).unwrap();
        assert!(text.starts_with("cpu  0 0 0 0 0 0 0 0 0 0\ncpu0 0 0 0"));
        assert!(text.contains("\ncpu5 0 0 0 0 0 0 0 0 0 0\nprocesses "));
        assert_eq!(k.proc_stats().stat_reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_paths_are_refused() {
        let k = Kernel::new(KernelConfig::stock(2));
        assert_eq!(
            read(&k, "/proc/nope").unwrap_err(),
            crate::KernelError::NoSuchProcFile
        );
        assert_eq!(k.proc_stats().stat_reads.load(Ordering::Relaxed), 0);
    }
}
