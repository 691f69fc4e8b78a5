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

use crate::common::gen2_demand;
use pk_fault::FaultPlane;
use pk_kernel::{Kernel, KernelError, Personality};
use pk_mm::{AddressSpace, PageSize};
use pk_percpu::CoreId;
use pk_sim::{CoreSweep, L3Model, MachineSpec, Network, Station, SweepPoint, WorkloadModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Functional driver: index files through the real kernel, with the
/// threads/procs distinction expressed as shared vs per-worker address
/// spaces.
#[derive(Debug)]
pub struct PedsortDriver {
    kernel: Kernel,
    /// One address space shared by all workers (threads) or one per
    /// worker (procs).
    spaces: Vec<Arc<AddressSpace>>,
    shared_space: bool,
    indexed: AtomicU64,
}

impl PedsortDriver {
    /// Boots a kernel with `files` corpus files and `workers` workers.
    pub fn new(
        choice: Personality,
        cores: usize,
        files: usize,
        threads: bool,
    ) -> Result<Self, KernelError> {
        Self::with_faults(
            choice,
            cores,
            files,
            threads,
            Arc::new(FaultPlane::disabled()),
        )
    }

    /// [`PedsortDriver::new`] on a kernel wired to `plane` — setup
    /// failures (corpus population under injected ENOMEM / dentry
    /// faults) surface as typed errors instead of panics.
    pub fn with_faults(
        choice: Personality,
        cores: usize,
        files: usize,
        threads: bool,
        plane: Arc<FaultPlane>,
    ) -> Result<Self, KernelError> {
        let kernel = Kernel::with_faults(choice.config(cores), plane);
        let core = CoreId(0);
        kernel.vfs().mkdir_p("/corpus", core)?;
        kernel.vfs().mkdir_p("/out", core)?;
        for i in 0..files {
            kernel.vfs().write_file(
                &format!("/corpus/f{i}"),
                format!("word{} common text {}", i % 7, i).as_bytes(),
                core,
            )?;
        }
        let spaces = if threads {
            vec![kernel.new_address_space()]
        } else {
            (0..cores).map(|_| kernel.new_address_space()).collect()
        };
        Ok(Self {
            kernel,
            spaces,
            shared_space: threads,
            indexed: AtomicU64::new(0),
        })
    }

    /// Returns the kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Files indexed so far.
    pub fn indexed(&self) -> u64 {
        self.indexed.load(Ordering::Relaxed)
    }

    /// Indexes one corpus file on `core`: mmap the input (libc file
    /// streams "access file contents via mmap"), read it, tokenize into
    /// the per-core table, write an index chunk, munmap.
    ///
    /// Every kernel call propagates as a typed [`KernelError`] — an
    /// injected allocation failure mid-index unwinds the mapping it
    /// created instead of panicking the worker.
    pub fn index_file(&self, core: usize, file_id: usize) -> Result<(), KernelError> {
        let core_id = CoreId(core);
        let space = if self.shared_space {
            &self.spaces[0]
        } else {
            &self.spaces[core % self.spaces.len()]
        };
        let data = self
            .kernel
            .vfs()
            .read_file(&format!("/corpus/f{file_id}"), core_id)?;
        // The mmap/munmap pair on the (possibly shared) address space —
        // the threaded version's serialization point.
        let region = space.mmap(data.len().max(1) as u64, PageSize::Base4K)?;
        // From here the mapping must not leak: tear it down before
        // surfacing any later failure.
        let indexed = (|| -> Result<(), KernelError> {
            space.touch_all(region, core)?;
            let tokens = data.split(|b| *b == b' ').count();
            self.kernel.vfs().write_file(
                &format!("/out/core{core}-f{file_id}.idx"),
                format!("{tokens}").as_bytes(),
                core_id,
            )?;
            Ok(())
        })();
        let unmapped = space.munmap(region, core).map_err(KernelError::from);
        indexed?;
        unmapped?;
        self.indexed.fetch_add(1, Ordering::Relaxed);
        Ok(())
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

    fn total_cycles(&self) -> f64 {
        self.machine.clock_hz * 3600.0 / JOBS_PER_HOUR_1CORE
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
        let t = self.total_cycles();
        let system = SYSTEM_SECONDS_1CORE * self.machine.clock_hz;
        let mut user = t - system;
        // Cache-capacity pressure: each active core's sorting working set
        // competes for the socket's L3; more cores per socket → higher
        // miss rate in msort_with_tmp → more user cycles (§5.7). The
        // per-entry working set far exceeds L3, so the *marginal* effect
        // is modelled as a linear user-time inflation per extra core on
        // the socket, calibrated to Figure 10's packed-procs decline.
        let cps = self.cores_per_socket(cores);
        let l3 = L3Model::new(self.machine);
        let _ = l3; // capacity model retained for the ablation binaries
        user *= 1.0 + 0.065 * (cps - 1.0);
        let mut net = Network::new();
        match self.variant {
            PedsortVariant::Threads => {
                // Thread-safe libc is slower even at one core, and the
                // shared address space serializes mmap/munmap in the
                // kernel.
                user *= THREAD_LIBC_PENALTY;
                let mmap_sem = system * 0.75;
                net.push(Station::delay("kernel-local", system - mmap_sem, true));
                // Generation-2 growth station, ahead of mmap_sem in
                // visit order: the shared address space frees sort
                // temporaries through the global page freelist, and past
                // ~96 cores it saturates first and owns the collapse.
                // The per-process variants (the paper's fix) keep frees
                // socket-local, so only Threads pays it.
                net.push(
                    Station::spinlock(
                        "global page freelist",
                        gen2_demand(t, 0.000_05, cores),
                        0.25,
                        true,
                    )
                    .with_class("mm.page_freelist"),
                );
                net.push(Station::spinlock(
                    "mmap_sem (shared AS)",
                    mmap_sem,
                    1.5,
                    true,
                ));
            }
            _ => {
                net.push(Station::delay("kernel-local", system, true));
            }
        }
        net.push(Station::delay("msort_with_tmp (user)", user, false));
        net
    }
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

    #[test]
    fn driver_indexes_with_shared_and_private_spaces() {
        for threads in [true, false] {
            let d = PedsortDriver::new(Personality::Stock, 2, 6, threads).unwrap();
            for f in 0..6 {
                d.index_file(f % 2, f).unwrap();
            }
            assert_eq!(d.indexed(), 6);
            // All mappings were torn down.
            for s in &d.spaces {
                assert_eq!(s.region_count(), 0);
            }
            // Threads share one space: all mmap write-locks hit the same
            // region list.
            let writes = d
                .kernel()
                .mm_stats()
                .region_write_locks
                .load(Ordering::Relaxed);
            assert_eq!(writes, 12, "6 mmaps + 6 munmaps");
        }
    }
}
