//! A synthesized `/proc` (procfs).
//!
//! §5.2's first Exim fix is an *application* change: "Berkeley DB v4.6
//! reads `/proc/stat` to find the number of cores. This consumed about
//! 20% of the total runtime, so we modified Berkeley DB to aggressively
//! cache this information." To reproduce that, the kernel must actually
//! serve `/proc/stat` — this module synthesizes it (and a few friends)
//! on demand from live kernel state, like the real procfs.

use crate::kernel::Kernel;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts reads of each synthesized file (the §5.2 diagnostic).
#[derive(Debug, Default)]
pub struct ProcStats {
    /// Reads of `/proc/stat`.
    pub stat_reads: AtomicU64,
    /// Reads of any other procfs path.
    pub other_reads: AtomicU64,
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
/// Supported paths: `/proc/stat`, `/proc/cpuinfo`, `/proc/loadavg`,
/// `/proc/meminfo`. Unknown paths fail with
/// [`KernelError::NoSuchProcFile`](crate::KernelError::NoSuchProcFile).
pub fn read(kernel: &Kernel, path: &str) -> Result<Vec<u8>, crate::KernelError> {
    let stats = kernel.proc_stats();
    match path {
        "/proc/stat" => {
            stats.stat_reads.fetch_add(1, Ordering::Relaxed);
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
        "/proc/cpuinfo" => {
            stats.other_reads.fetch_add(1, Ordering::Relaxed);
            let mut out = String::new();
            for core in 0..kernel.config().cores {
                let _ = writeln!(out, "processor\t: {core}");
                let _ = writeln!(out, "model name\t: AMD Opteron(tm) Processor 8431");
                let _ = writeln!(out);
            }
            Ok(out.into_bytes())
        }
        "/proc/loadavg" => {
            stats.other_reads.fetch_add(1, Ordering::Relaxed);
            let load = kernel.sched().total_load();
            Ok(format!(
                "{load}.00 {load}.00 {load}.00 1/{} 1\n",
                kernel.procs().len()
            )
            .into_bytes())
        }
        "/proc/meminfo" => {
            stats.other_reads.fetch_add(1, Ordering::Relaxed);
            let nodes = 0..kernel.config().mm().numa_nodes;
            let free: u64 = nodes.map(|n| kernel.allocator().free_pages(n)).sum();
            Ok(format!("MemFree: {} kB\n", free * 4).into_bytes())
        }
        _ => Err(NoSuchProcFile.into()),
    }
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

    /// MemFree counts every NUMA node's free list once, whatever the
    /// socket count the kernel was lowered for.
    #[test]
    fn meminfo_sums_each_numa_node_once() {
        for sockets in [2, 16] {
            let k = Kernel::new(KernelConfig::pk(32).with_sockets(sockets));
            let mm = k.config().mm();
            assert_eq!(mm.numa_nodes, sockets);
            let kb = sockets as u64 * mm.pages_per_node * 4;
            let meminfo = read(&k, "/proc/meminfo").unwrap();
            assert_eq!(meminfo, format!("MemFree: {kb} kB\n").into_bytes());
        }
    }

    #[test]
    fn other_files_exist() {
        let k = Kernel::new(KernelConfig::stock(2));
        assert!(read(&k, "/proc/cpuinfo").is_ok());
        assert!(read(&k, "/proc/loadavg").is_ok());
        assert!(read(&k, "/proc/meminfo").is_ok());
        assert_eq!(
            read(&k, "/proc/nope").unwrap_err(),
            crate::KernelError::NoSuchProcFile
        );
        assert_eq!(k.proc_stats().other_reads.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cpuinfo_matches_config() {
        let k = Kernel::new(KernelConfig::pk(4));
        let info = String::from_utf8(read(&k, "/proc/cpuinfo").unwrap()).unwrap();
        assert_eq!(info.matches("processor").count(), 4);
        assert!(info.contains("Opteron"));
    }
}
