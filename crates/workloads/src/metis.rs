//! The Metis MapReduce workload (§3.7, §5.8, Figure 11).
//!
//! Metis builds an inverted index from a 2 GB in-memory file, allocating
//! large intermediate tables with mmap and faulting them in on first
//! touch. Two configurations, as in Figure 11:
//!
//! * **Stock + 4 KB pages** — every soft fault read-locks the region
//!   list, and "acquiring it even in read mode involves modifying shared
//!   lock state," so the lock word itself bottlenecks the map phase.
//! * **PK + 2 MB pages** — super-pages cut the fault count 512×, each
//!   super-page mapping gets its own mutex, and zeroing uses non-caching
//!   stores. "The time spent in the kernel becomes negligible and Metis'
//!   scalability is limited primarily by the DRAM bandwidth required by
//!   the reduce phase" (50.0 of 51.5 GB/s at 48 cores).

use crate::stations::{Class::*, Demand::*, *};
use pk_fault::FaultPlane;
use pk_kernel::{Kernel, KernelConfig, KernelError, Personality};
use pk_mapreduce::{InvertedIndex, MapReduce, MapReduceConfig, MemoryHook};
use pk_mm::PageSize;
use pk_sim::{CoreSweep, DramModel, MachineSpec, Network, SweepPoint, WorkloadModel};
use std::sync::Arc;

/// Input size (§5.8).
pub const INPUT_BYTES: u64 = 2 << 30;

/// Single-core throughput anchor with 4 KB pages, jobs/hour (Figure 11).
pub const JOBS_PER_HOUR_1CORE_4K: f64 = 30.0;
/// Single-core anchor with 2 MB pages (super-pages win even at 1 core).
pub const JOBS_PER_HOUR_1CORE_2M: f64 = 33.0;
/// Effective DRAM traffic per job, calibrated so the reduce phase hits
/// the 51.5 GB/s ceiling at 48 cores exactly where Figure 11 flattens.
pub const DRAM_BYTES_PER_JOB: f64 = 172e9;

/// The two Figure-11 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetisVariant {
    /// Stock kernel, 4 KB pages.
    StockSmallPages,
    /// PK kernel, 2 MB super-pages via hugetlbfs.
    PkSuperPages,
}

impl MetisVariant {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::StockSmallPages => "Stock + 4KB pages",
            Self::PkSuperPages => "PK + 2MB pages",
        }
    }

    /// The kernel this variant runs on.
    pub fn kernel(self) -> Personality {
        match self {
            Self::StockSmallPages => Personality::Stock,
            Self::PkSuperPages => Personality::Pk,
        }
    }

    /// The page size used for table memory.
    pub fn page_size(self) -> PageSize {
        match self {
            Self::StockSmallPages => PageSize::Base4K,
            Self::PkSuperPages => PageSize::Super2M,
        }
    }
}

/// Functional driver: a real inverted-index MapReduce run whose table
/// memory faults through the kernel's mm substrate.
#[derive(Debug)]
pub struct MetisDriver {
    kernel: Kernel,
    variant: MetisVariant,
}

impl MetisDriver {
    /// Boots the variant's kernel.
    pub fn new(variant: MetisVariant, cores: usize) -> Self {
        Self::with_faults(variant, cores, Arc::new(FaultPlane::disabled()))
    }

    /// Like [`MetisDriver::new`], with every substrate wired to `faults`.
    pub fn with_faults(variant: MetisVariant, cores: usize, faults: Arc<FaultPlane>) -> Self {
        Self {
            kernel: Kernel::with_faults(variant.kernel().config(cores), faults),
            variant,
        }
    }

    /// Returns the kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Builds an inverted index over `docs` with `workers` workers,
    /// charging table memory through the mm substrate. Returns the
    /// number of distinct terms, or a typed (transient) error when the
    /// table memory's page faults hit allocation failure.
    pub fn run_job(&self, docs: &[String], workers: usize) -> Result<usize, KernelError> {
        let mr = MapReduce::new(MapReduceConfig {
            workers,
            memory: Some(MemoryHook {
                space: self.kernel.new_address_space(),
                page_size: self.variant.page_size(),
                bytes_per_pair: 64,
            }),
        });
        Ok(mr.run(&InvertedIndex, docs)?.len())
    }
}

/// Figure-11 performance model.
#[derive(Debug, Clone, Copy)]
pub struct MetisModel {
    /// Which Metis (4 KB or 2 MB table pages) and which legend line.
    pub variant: MetisVariant,
    /// The kernel whose fix set the kernel-side demands derive from.
    /// [`MetisModel::new`] boots the variant's own kernel; the roster
    /// swaps in any other beside the variant that personality pairs
    /// with. 2 MB pages with the super-page fixes *off* (the adaptive
    /// boot) contend on the single super-page allocation mutex and
    /// cache-polluting zeroing until the fixes are promoted.
    pub config: KernelConfig,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl MetisModel {
    /// Creates the model on the variant's own kernel.
    pub fn new(variant: MetisVariant) -> Self {
        Self {
            variant,
            config: variant.kernel().config(48),
            machine: MachineSpec::paper(),
        }
    }
}

impl WorkloadModel for MetisModel {
    fn name(&self) -> String {
        // The figure legend names the variant; an adaptive kernel has
        // no legend line, so it shows its promoted-fix count.
        match self.config.personality() {
            Personality::Adaptive => {
                format!("Metis/2MB pages + {}", crate::config_label(&self.config))
            }
            _ => format!("Metis/{}", self.variant.label()),
        }
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let (anchor, table) = match self.variant {
            MetisVariant::StockSmallPages => (JOBS_PER_HOUR_1CORE_4K, SMALL_PAGES),
            MetisVariant::PkSuperPages => (JOBS_PER_HOUR_1CORE_2M, SUPER_PAGES),
        };
        let t = Anchor::PerHour(anchor).cycles(&self.machine);
        network_from(table, self, t, Some(&self.config), cores)
    }

    fn throughput_cap(&self, _cores: usize) -> Option<f64> {
        match self.variant {
            // The stock configuration never gets near DRAM bandwidth.
            MetisVariant::StockSmallPages => None,
            // The 2 MB-page application (variant pairing or config axis)
            // is DRAM-bound once kernel time is out of the way.
            MetisVariant::PkSuperPages => {
                Some(DramModel::new(self.machine).max_ops_per_sec(DRAM_BYTES_PER_JOB))
            }
        }
    }
}

/// Stock + 4 KB pages: ~524k soft faults per job; the shared
/// region-list lock word costs a coherence transaction per fault even in
/// read mode. Sized so the per-core decline matches the figure (knee ≈
/// 17 cores, ratio ≈ 0.35 at 48).
#[rustfmt::skip]
pub const SMALL_PAGES: &[Row<MetisModel>] = &[
    Row("map/reduce (user)", DELAY, USER, Unclassed, shaped!(small_pages_user)),
    Row("fault handling", DELAY, SYS, Unclassed, Frac(0.006)),
    // Generation-2 growth station, first in visit order: table allocation
    // frees and refills through the global page freelist; even with
    // super-page faults fixed, the freelist lock is the collapse at 1024,
    // where it is the first to saturate and captures the collapse queue.
    Row("global page freelist", spin(0.25), SYS, Lowered("mm.page_freelist"), Gen2(0.000_08)),
    // The rw-semaphore's shared lock word serializes (reader counter
    // updates are fair handoffs, so the station saturates without
    // collapsing).
    Row("region-list lock word", QUEUE, SYS, Unclassed, Frac(0.0595)),
];

/// PK + 2 MB pages: 512× fewer faults. Until the super-page fixes land,
/// every super-page fault funnels through one allocation mutex and zeroes
/// 2 MB through the cache, evicting every core's working set (§4.5).
/// SuperPageFineLocking gives each mapping its own mutex and
/// NoCacheSuperPageZeroing moves the zeroing off the caches: on PK kernel
/// time "becomes negligible."
#[rustfmt::skip]
pub const SUPER_PAGES: &[Row<MetisModel>] = &[
    Row("map/reduce (user)", DELAY, USER, Unclassed, shaped!(super_pages_user)),
    Row("fault handling", DELAY, SYS, Unclassed, Frac(0.0015)),
    Row("global page freelist", spin(0.25), SYS, Lowered("mm.page_freelist"), Gen2(0.000_08)),
    Row("super-page alloc mutex", QUEUE, SYS, Lowered("mm.super_page_mutex"), Frac(0.040)),
    Row("super-page zeroing", QUEUE, SYS, Lowered("mm.super_page_zeroing"), Frac(0.012)),
];

fn small_pages_user(c: &Ctx<MetisModel>) -> f64 {
    c.t - c.demand("region-list lock word") - c.demand("fault handling")
}

fn super_pages_user(c: &Ctx<MetisModel>) -> f64 {
    c.t - c.demand("super-page alloc mutex")
        - c.demand("super-page zeroing")
        - c.demand("fault handling")
}

/// Runs the Figure-11 sweep for one variant.
pub fn figure11(variant: MetisVariant) -> Vec<SweepPoint> {
    CoreSweep::run(&MetisModel::new(variant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn one_core_anchors() {
        let small = CoreSweep::point(&MetisModel::new(MetisVariant::StockSmallPages), 1);
        let big = CoreSweep::point(&MetisModel::new(MetisVariant::PkSuperPages), 1);
        assert!((small.per_core_per_sec * 3600.0 - 30.0).abs() < 0.3);
        assert!((big.per_core_per_sec * 3600.0 - 33.0).abs() < 0.4);
        assert!(big.per_core_per_sec > small.per_core_per_sec);
    }

    #[test]
    fn figure11_shapes() {
        let small = figure11(MetisVariant::StockSmallPages);
        let big = figure11(MetisVariant::PkSuperPages);
        let ratio = |s: &[SweepPoint]| s.last().unwrap().per_core_per_sec / s[0].per_core_per_sec;
        assert!(
            (0.2..0.5).contains(&ratio(&small)),
            "4 KB declines to ≈0.35: {}",
            ratio(&small)
        );
        assert!(
            (0.55..0.85).contains(&ratio(&big)),
            "2 MB holds ≈0.66: {}",
            ratio(&big)
        );
        // Super-pages make kernel time negligible.
        assert!(big.last().unwrap().system_usec < 0.01 * big.last().unwrap().user_usec);
        // 4 KB kernel time grows with cores.
        assert!(small.last().unwrap().system_usec > 3.0 * small[0].system_usec);
        // The 2 MB line is DRAM-capped at 48 cores.
        assert!(big.last().unwrap().hw_capped);
        assert!(!big[0].hw_capped, "not capped at 1 core");
    }

    #[test]
    fn driver_fault_counts_differ_by_512x_per_byte() {
        let docs: Vec<String> = (0..8)
            .map(|i| format!("{i}\tthe quick brown fox {i} jumps over lazy dogs"))
            .collect();
        let small = MetisDriver::new(MetisVariant::StockSmallPages, 2);
        let terms = small.run_job(&docs, 2).unwrap();
        assert!(terms >= 8);
        let faults_4k = small.kernel().mm_stats().faults_4k.load(Ordering::Relaxed);
        assert!(faults_4k > 0);

        let big = MetisDriver::new(MetisVariant::PkSuperPages, 2);
        let terms2 = big.run_job(&docs, 2).unwrap();
        assert_eq!(terms, terms2, "page size never changes results");
        let faults_2m = big.kernel().mm_stats().faults_2m.load(Ordering::Relaxed);
        assert!(faults_2m <= faults_4k);
        // PK zeroes super-pages with non-caching stores.
        assert!(
            big.kernel()
                .mm_stats()
                .nocache_zero_bytes
                .load(Ordering::Relaxed)
                > 0
        );
    }
}
