//! The Psearchy/pedsort file-indexer workload (§3.6, §5.7, Figure 10).
//!
//! pedsort indexes the Linux source tree (368 MB over 33,312 files) with
//! a 48 MB hash table per core and 200,000-entry output indexes. Three
//! variants, as in Figure 10:
//!
//! * **Stock + Threads** — one process, one thread per core: "a
//!   per-process kernel mutex serializes calls to mmap and munmap," and
//!   libc file streams mmap every input file, so the shared address
//!   space collapses the threaded version (system time 2.3 s → 41 s).
//!   Threads also force "slower, thread-safe variants of various library
//!   functions" even at one core.
//! * **Stock + Procs** — one process per core (a ~10-line change):
//!   kernel time stays small; user time rises with per-socket cache
//!   pressure because `msort_with_tmp` misses more as active cores share
//!   an L3.
//! * **Stock + Procs RR** — the same processes spread round-robin over
//!   sockets: "each new socket provides access to more total L3 cache
//!   space," so mid-range core counts run faster.
//!
//! This module is the model; the functional driver is
//! [`Indexer`](crate::pedsort_indexer::Indexer), which runs a variant
//! over one shared address space or one per worker.

use crate::stations::{Class::*, Demand::*, *};
use pk_sim::{CoreSweep, MachineSpec, Network, SweepPoint, WorkloadModel};

/// Corpus size (§5.7).
pub const CORPUS_BYTES: u64 = 368 << 20;
/// Corpus file count (§5.7).
pub const CORPUS_FILES: usize = 33_312;
/// Per-core hash table size (§5.7).
pub const HASH_TABLE_BYTES: u64 = 48 << 20;

/// Single-core throughput anchor for the process versions, jobs/hour
/// (Figure 10).
pub const JOBS_PER_HOUR_1CORE: f64 = 47.0;
/// Single-core system time, seconds (§5.7).
pub const SYSTEM_SECONDS_1CORE: f64 = 2.3;
/// Thread-safe-libc penalty on user time for the threaded version.
pub const THREAD_LIBC_PENALTY: f64 = 1.10;

/// The three Figure-10 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PedsortVariant {
    /// One process, one thread per core (shared address space).
    Threads,
    /// One process per core, cores packed onto sockets.
    Procs,
    /// One process per core, cores spread round-robin over sockets.
    ProcsRoundRobin,
}

impl PedsortVariant {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Threads => "Stock + Threads",
            Self::Procs => "Stock + Procs",
            Self::ProcsRoundRobin => "Stock + Procs RR",
        }
    }
}

/// Figure-10 performance model.
#[derive(Debug, Clone, Copy)]
pub struct PedsortModel {
    /// Which line.
    pub variant: PedsortVariant,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl PedsortModel {
    /// Creates the model.
    pub fn new(variant: PedsortVariant) -> Self {
        Self {
            variant,
            machine: MachineSpec::paper(),
        }
    }

    /// Active cores per socket under this variant's placement.
    fn cores_per_socket(&self, cores: usize) -> f64 {
        let sockets = match self.variant {
            PedsortVariant::ProcsRoundRobin => self.machine.sockets_for_rr(cores),
            _ => self.machine.sockets_for(cores),
        }
        .expect("core count oversubscribes the machine — validated at sweep entry");
        cores as f64 / sockets as f64
    }
}

impl WorkloadModel for PedsortModel {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let table = match self.variant {
            PedsortVariant::Threads => THREADS,
            PedsortVariant::Procs | PedsortVariant::ProcsRoundRobin => PROCS,
        };
        let t = Anchor::PerHour(JOBS_PER_HOUR_1CORE).cycles(&self.machine);
        network_from(table, self, t, None, cores)
    }
}

/// Stock + Threads: thread-safe libc is slower even at one core, and the
/// shared address space serializes mmap/munmap in the kernel.
#[rustfmt::skip]
pub const THREADS: &[Row<PedsortModel>] = &[
    Row("kernel-local", DELAY, SYS, Unclassed, shaped!(threads_kernel_local)),
    // Generation-2 growth station, ahead of mmap_sem in visit order: the
    // shared address space frees sort temporaries through the global page
    // freelist, and past ~96 cores it saturates first and owns the
    // collapse. The per-process variants (the paper's fix) keep frees
    // socket-local, so only Threads pays it; no kernel config lowers it.
    Row("global page freelist", spin(0.25), SYS, Unlowered("mm.page_freelist"), Gen2(0.000_05)),
    Row("mmap_sem (shared AS)", spin(1.5), SYS, Unclassed, shaped!(mmap_sem)),
    Row("msort_with_tmp (user)", DELAY, USER, Unclassed, shaped!(threads_user)),
];

/// Stock + Procs and Stock + Procs RR: one process per core; they differ
/// only in placement, which `procs_user` reads.
#[rustfmt::skip]
pub const PROCS: &[Row<PedsortModel>] = &[
    Row("kernel-local", DELAY, SYS, Unclassed, shaped!(system)),
    Row("msort_with_tmp (user)", DELAY, USER, Unclassed, shaped!(procs_user)),
];

/// Single-core system time, in cycles.
fn system(c: &Ctx<PedsortModel>) -> f64 {
    SYSTEM_SECONDS_1CORE * c.model.machine.clock_hz
}

fn mmap_sem(c: &Ctx<PedsortModel>) -> f64 {
    system(c) * 0.75
}

fn threads_kernel_local(c: &Ctx<PedsortModel>) -> f64 {
    system(c) - mmap_sem(c)
}

/// User time under cache-capacity pressure: each active core's sorting
/// working set competes for the socket's L3; more cores per socket →
/// higher miss rate in msort_with_tmp → more user cycles (§5.7). The
/// per-entry working set far exceeds L3, so the *marginal* effect is
/// modelled as a linear user-time inflation per extra core on the
/// socket, calibrated to Figure 10's packed-procs decline.
fn procs_user(c: &Ctx<PedsortModel>) -> f64 {
    (c.t - system(c)) * (1.0 + 0.065 * (c.model.cores_per_socket(c.cores) - 1.0))
}

fn threads_user(c: &Ctx<PedsortModel>) -> f64 {
    procs_user(c) * THREAD_LIBC_PENALTY
}

/// Runs the Figure-10 sweep for one variant.
pub fn figure10(variant: PedsortVariant) -> Vec<SweepPoint> {
    CoreSweep::run(&PedsortModel::new(variant))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_anchors() {
        let procs = CoreSweep::point(&PedsortModel::new(PedsortVariant::Procs), 1);
        let per_hour = procs.per_core_per_sec * 3600.0;
        assert!((per_hour - JOBS_PER_HOUR_1CORE).abs() / JOBS_PER_HOUR_1CORE < 0.01);
        // Threads are slower even at one core (thread-safe libc).
        let threads = CoreSweep::point(&PedsortModel::new(PedsortVariant::Threads), 1);
        assert!(threads.per_core_per_sec < 0.95 * procs.per_core_per_sec);
    }

    #[test]
    fn figure10_shapes() {
        let threads = figure10(PedsortVariant::Threads);
        let procs = figure10(PedsortVariant::Procs);
        let rr = figure10(PedsortVariant::ProcsRoundRobin);
        let ratio = |s: &[SweepPoint]| s.last().unwrap().per_core_per_sec / s[0].per_core_per_sec;
        assert!(
            ratio(&threads) < 0.4,
            "threads collapse: {}",
            ratio(&threads)
        );
        assert!(
            (0.6..0.9).contains(&ratio(&procs)),
            "procs decline mildly: {}",
            ratio(&procs)
        );
        // Threaded system time explodes (2.3 s → ~41 s in the paper).
        let t48 = threads.last().unwrap().system_usec;
        let t1 = threads[0].system_usec;
        assert!(t48 > 5.0 * t1, "mmap_sem wait grows: {t1} → {t48}");
        // Procs kernel time stays flat — "the kernel is not a limiting
        // factor."
        let p48 = procs.last().unwrap().system_usec;
        let p1 = procs[0].system_usec;
        assert!(p48 < 1.05 * p1);
        // RR beats packed at mid-range core counts (more L3), converges
        // at 48 (all sockets full either way).
        let at =
            |s: &[SweepPoint], n: usize| s.iter().find(|p| p.cores == n).unwrap().per_core_per_sec;
        assert!(at(&rr, 4) > 1.1 * at(&procs, 4), "RR wins at 4 cores");
        let full = (at(&rr, 48) - at(&procs, 48)).abs() / at(&procs, 48);
        assert!(full < 0.01, "lines converge at 48 cores: {full}");
    }
}
