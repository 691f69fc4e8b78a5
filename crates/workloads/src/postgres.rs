//! The PostgreSQL workload (§3.4, §5.5, Figures 7 and 8).
//!
//! A 10 M-row indexed table in tmpfs, one connection per server core,
//! queries in batches of 256; 100% reads (Figure 7) or 95%/5%
//! read/write (Figure 8).
//!
//! Three configurations, as in the figures:
//!
//! * **Stock** — stock kernel, unmodified PostgreSQL: row/table locks
//!   hash onto only 16 user-level mutexes, so the read/write workload
//!   collapses from *user-level* contention at 28 cores.
//! * **Stock + mod PG** — the paper's application fix: a lock-free
//!   uncontended path and 1024 mutexes ([`LockManager`]). Now the
//!   *kernel* collapses at 36 cores: `lseek` "acquires a mutex on the
//!   corresponding inode," and "Linux's adaptive mutex implementation
//!   suffers from starvation under intense contention" (system time
//!   1.7 µs/query at 32 cores → 322 µs at 48).
//! * **PK + mod PG** — PK's atomic-read `lseek` removes the mutex; the
//!   residual limit is an application-level spin lock on the buffer-cache
//!   page holding the root of the table index.

use crate::common::{demand_unless, gen2_demand};
use pk_kernel::{FixId, Kernel, KernelConfig, KernelError, Personality};
use pk_percpu::{CacheAligned, CoreId};
use pk_sim::{CoreSweep, MachineSpec, Network, Station, SweepPoint, WorkloadModel};
use pk_sync::AdaptiveMutex;
use pk_vfs::Whence;
use std::sync::atomic::{AtomicU64, Ordering};

/// Queries per batch (§5.5).
pub const BATCH: usize = 256;
/// Single-core throughput anchor, queries/sec/core (Figures 7–8).
pub const QUERIES_PER_SEC_1CORE: f64 = 21_000.0;
/// Mutex count in unmodified PostgreSQL's lock manager (§5.5).
pub const STOCK_LOCK_PARTITIONS: usize = 16;
/// Mutex count after the paper's modification.
pub const MOD_LOCK_PARTITIONS: usize = 1024;

/// Lock mode for the user-level lock manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (row updates).
    Exclusive,
}

/// PostgreSQL's user-level row/table lock manager.
///
/// Unmodified: every acquisition — even a non-conflicting shared one —
/// exclusively locks one of 16 partition mutexes. Modified (the paper's
/// rewrite): 1024 partitions and a lock-free CAS fast path for
/// uncontended acquisitions.
#[derive(Debug)]
pub struct LockManager {
    /// Per-lock state words: bit 63 = exclusive, low bits = shared count.
    slots: Vec<CacheAligned<AtomicU64>>,
    partitions: Vec<AdaptiveMutex<()>>,
    lock_free_fast_path: bool,
    fast_path_hits: AtomicU64,
    mutex_acquisitions: AtomicU64,
}

const EXCL_BIT: u64 = 1 << 63;

impl LockManager {
    /// The unmodified 16-partition manager.
    pub fn stock() -> Self {
        Self::new(STOCK_LOCK_PARTITIONS, false)
    }

    /// The paper's modified manager: 1024 partitions, lock-free when
    /// uncontended.
    pub fn modified() -> Self {
        Self::new(MOD_LOCK_PARTITIONS, true)
    }

    fn new(partitions: usize, lock_free_fast_path: bool) -> Self {
        let class = pk_lockdep::register_class(
            "pg.lockmgr.partition",
            "pk-workloads",
            pk_lockdep::LockKind::Blocking,
        );
        Self {
            slots: (0..partitions * 8)
                .map(|_| CacheAligned::new(AtomicU64::new(0)))
                .collect(),
            partitions: (0..partitions)
                .map(|_| {
                    let m = AdaptiveMutex::new(());
                    m.set_class(class);
                    m
                })
                .collect(),
            lock_free_fast_path,
            fast_path_hits: AtomicU64::new(0),
            mutex_acquisitions: AtomicU64::new(0),
        }
    }

    fn slot(&self, lock_id: u64) -> &AtomicU64 {
        &self.slots[(lock_id as usize) % self.slots.len()]
    }

    fn partition(&self, lock_id: u64) -> &AdaptiveMutex<()> {
        &self.partitions[(lock_id as usize) % self.partitions.len()]
    }

    /// Attempts to acquire `lock_id` in `mode`; returns whether granted.
    pub fn acquire(&self, lock_id: u64, mode: LockMode) -> bool {
        if self.lock_free_fast_path && mode == LockMode::Shared {
            // Lock-free shared acquisition when no writer holds the lock.
            let slot = self.slot(lock_id);
            let mut cur = slot.load(Ordering::Acquire);
            while cur & EXCL_BIT == 0 {
                match slot.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        self.fast_path_hits.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(actual) => cur = actual,
                }
            }
            // Writer present: fall through to the mutex path.
        }
        let _g = self.partition(lock_id).lock();
        self.mutex_acquisitions.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(lock_id);
        let cur = slot.load(Ordering::Acquire);
        match mode {
            LockMode::Shared => {
                if cur & EXCL_BIT != 0 {
                    false
                } else {
                    slot.store(cur + 1, Ordering::Release);
                    true
                }
            }
            LockMode::Exclusive => {
                if cur != 0 {
                    false
                } else {
                    slot.store(EXCL_BIT, Ordering::Release);
                    true
                }
            }
        }
    }

    /// Releases `lock_id` held in `mode`.
    pub fn release(&self, lock_id: u64, mode: LockMode) {
        let slot = self.slot(lock_id);
        match mode {
            LockMode::Shared => {
                slot.fetch_sub(1, Ordering::AcqRel);
            }
            LockMode::Exclusive => {
                slot.store(0, Ordering::Release);
            }
        }
    }

    /// `(fast_path_hits, mutex_acquisitions)`.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.fast_path_hits.load(Ordering::Relaxed),
            self.mutex_acquisitions.load(Ordering::Relaxed),
        )
    }
}

/// The three Figure-7/8 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PgVariant {
    /// Stock kernel, unmodified PostgreSQL.
    Stock,
    /// Stock kernel, modified lock manager.
    StockModPg,
    /// PK kernel, modified lock manager.
    PkModPg,
}

impl PgVariant {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Stock => "Stock",
            Self::StockModPg => "Stock + mod PG",
            Self::PkModPg => "PK + mod PG",
        }
    }

    /// The kernel this variant runs on.
    pub fn kernel(self) -> Personality {
        match self {
            Self::Stock | Self::StockModPg => Personality::Stock,
            Self::PkModPg => Personality::Pk,
        }
    }

    /// Whether PostgreSQL's lock manager is modified.
    pub fn modified_pg(self) -> bool {
        !matches!(self, Self::Stock)
    }
}

/// Functional driver: lseek-heavy indexed queries against tmpfs tables,
/// with the user-level lock manager in the loop.
#[derive(Debug)]
pub struct PostgresDriver {
    kernel: Kernel,
    locks: LockManager,
    queries: AtomicU64,
}

/// The two table files every query lseeks (§5.5: "PostgreSQL calls lseek
/// many times per query on the same two files").
pub const TABLE_FILE: &str = "/pgdata/table";
/// The index file.
pub const INDEX_FILE: &str = "/pgdata/index";

impl PostgresDriver {
    /// Boots the variant's kernel and loads a small table + index.
    ///
    /// Table and index loading go through the kernel's syscall surface,
    /// so a boot-time failure (an injected allocation fault, a full
    /// tmpfs) surfaces as an error, not a panic.
    pub fn new(variant: PgVariant, cores: usize, rows: usize) -> Result<Self, KernelError> {
        Self::with_faults(
            variant,
            cores,
            rows,
            std::sync::Arc::new(pk_fault::FaultPlane::disabled()),
        )
    }

    /// As [`PostgresDriver::new`], wiring the kernel to `faults` so
    /// tests can inject failures into the boot and query paths.
    pub fn with_faults(
        variant: PgVariant,
        cores: usize,
        rows: usize,
        faults: std::sync::Arc<pk_fault::FaultPlane>,
    ) -> Result<Self, KernelError> {
        let kernel = Kernel::with_faults(variant.kernel().config(cores), faults);
        let core = CoreId(0);
        kernel.vfs().mkdir_p("/pgdata", core)?;
        let row = [b'r'; 32];
        let table: Vec<u8> = (0..rows).flat_map(|_| row).collect();
        kernel.vfs().write_file(TABLE_FILE, &table, core)?;
        let idx: Vec<u8> = (0..rows).flat_map(|i| (i as u64).to_le_bytes()).collect();
        kernel.vfs().write_file(INDEX_FILE, &idx, core)?;
        Ok(Self {
            kernel,
            locks: if variant.modified_pg() {
                LockManager::modified()
            } else {
                LockManager::stock()
            },
            queries: AtomicU64::new(0),
        })
    }

    /// Returns the kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Queries executed.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Executes one query on `core`: take the row lock, lseek both files
    /// (SEEK_END — the hot kernel path), read the row, release.
    ///
    /// `write` executes the 5% update flavour (exclusive row lock +
    /// a table write). On failure the row lock is released and both
    /// files are closed, so an injected fault degrades one query
    /// without wedging the row or leaking descriptors.
    pub fn query(&self, core: usize, row_id: u64, write: bool) -> Result<(), KernelError> {
        let core_id = CoreId(core);
        let mode = if write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        // Unmodified PostgreSQL exclusively locks a partition mutex even
        // for shared acquisitions; the modified manager is lock-free.
        while !self.locks.acquire(row_id, mode) {
            std::hint::spin_loop();
        }
        let result = self.query_locked(core_id, row_id, write);
        self.locks.release(row_id, mode);
        if result.is_ok() {
            self.queries.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The file-system half of [`PostgresDriver::query`], run with the
    /// row lock held. Closes whatever it opened on every path.
    fn query_locked(&self, core_id: CoreId, row_id: u64, write: bool) -> Result<(), KernelError> {
        let vfs = self.kernel.vfs();
        let table = vfs.open(TABLE_FILE, core_id)?;
        let outcome = (|| -> Result<(), KernelError> {
            let index = vfs.open(INDEX_FILE, core_id)?;
            // "PostgreSQL calls lseek many times per query on the same
            // two files."
            let seeks = (|| -> Result<(), KernelError> {
                for _ in 0..4 {
                    table.lseek(0, Whence::End)?;
                    index.lseek(0, Whence::End)?;
                }
                let off = (row_id % 1024) * 32;
                let _row = table.read_at(off, 32)?;
                if write {
                    table.inode.write_at(off, &[b'w'; 32]);
                }
                Ok(())
            })();
            vfs.close(&index, core_id);
            seeks
        })();
        vfs.close(&table, core_id);
        outcome
    }
}

/// Figure-7/8 performance model.
#[derive(Debug, Clone, Copy)]
pub struct PostgresModel {
    /// Which PostgreSQL (unmodified or modified lock manager) and which
    /// figure-legend line.
    pub variant: PgVariant,
    /// 100% reads (Figure 7) or 95/5 read/write (Figure 8).
    pub read_only: bool,
    /// The kernel whose fix set the kernel-side demands derive from.
    /// [`PostgresModel::new`] boots the variant's own kernel; the roster
    /// swaps in any other (coarse, an adaptive fix subset) beside the
    /// application variant that personality pairs with.
    pub config: KernelConfig,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl PostgresModel {
    /// Creates the model on the variant's own kernel.
    pub fn new(variant: PgVariant, read_only: bool) -> Self {
        Self {
            variant,
            read_only,
            config: variant.kernel().config(48),
            machine: MachineSpec::paper(),
        }
    }

    fn total_cycles(&self) -> f64 {
        self.machine.clock_hz / QUERIES_PER_SEC_1CORE
    }
}

impl WorkloadModel for PostgresModel {
    fn name(&self) -> String {
        // The figure legend names the application variant; an adaptive
        // kernel has no legend line, so it shows its promoted-fix count.
        let kernel = match self.config.personality() {
            Personality::Adaptive => crate::common::config_label(&self.config),
            _ => self.variant.label().to_string(),
        };
        format!(
            "PostgreSQL {}/{}",
            if self.read_only { "ro" } else { "rw" },
            kernel
        )
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let t = self.total_cycles();
        // The kernel-side lseek inode mutex: present until the atomic-
        // read fix removes it. The starvation-prone adaptive mutex gives
        // it a collapse term (knee ≈36 cores).
        let lseek = demand_unless(&self.config, FixId::AtomicLseek, t * 0.028);
        // The user-level lock manager. Unmodified: 16 partitions; heavy
        // for the read/write mix, light for read-only (which "makes
        // little use of row- and table-level locks"). Modified: 64× more
        // partitions plus the lock-free path.
        let lm_base = if self.read_only { t * 0.005 } else { t * 0.042 };
        let lock_manager = if self.variant.modified_pg() {
            lm_base / 64.0
        } else {
            lm_base
        };
        // The residual buffer-cache root-page spin lock (application).
        let root_page = if self.read_only { t * 0.038 } else { t * 0.046 };
        let kernel_local = t * 0.010;
        let user = t - kernel_local - lseek - lock_manager - root_page;
        let cross_core = if cores > 1 { t * 0.03 } else { 0.0 };
        // Generation-2 growth station: each query's open/lseek cycle
        // still pays the reference walk per component; linear in cores,
        // it owns the stock curve past a few hundred cores.
        let path_walk = demand_unless(
            &self.config,
            FixId::RcuPathWalk,
            gen2_demand(t, 0.000_08, cores),
        );

        let mut net = Network::new();
        net.push(Station::delay("user", user, false));
        net.push(Station::delay("kernel-local", kernel_local, true));
        net.push(Station::delay("cross-core misses", cross_core, true));
        // Gen-2 station first in visit order: past ~96 cores it is the
        // first to saturate and captures the collapse queue.
        net.push(
            Station::spinlock("per-component path-walk refs", path_walk, 0.25, true)
                .with_class("vfs.path_walk"),
        );
        net.push(
            Station::spinlock("lseek inode mutex", lseek, 0.13, true)
                .with_class("vfs.inode_lseek_mutex"),
        );
        net.push(Station::spinlock(
            "PG lock manager",
            lock_manager,
            0.10,
            false,
        ));
        net.push(Station::queue("root index page lock", root_page, false));
        net
    }
}

/// Runs the Figure-7 (read-only) or Figure-8 (read/write) sweep.
pub fn figure(variant: PgVariant, read_only: bool) -> Vec<SweepPoint> {
    CoreSweep::run(&PostgresModel::new(variant, read_only))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_manager_grants_and_conflicts() {
        for lm in [LockManager::stock(), LockManager::modified()] {
            assert!(lm.acquire(7, LockMode::Shared));
            assert!(lm.acquire(7, LockMode::Shared), "shared coexists");
            assert!(!lm.acquire(7, LockMode::Exclusive), "writer blocked");
            lm.release(7, LockMode::Shared);
            lm.release(7, LockMode::Shared);
            assert!(lm.acquire(7, LockMode::Exclusive));
            assert!(!lm.acquire(7, LockMode::Shared), "reader blocked");
            lm.release(7, LockMode::Exclusive);
            assert!(lm.acquire(7, LockMode::Shared));
        }
    }

    #[test]
    fn modified_manager_uses_fast_path() {
        let lm = LockManager::modified();
        for i in 0..100 {
            assert!(lm.acquire(i, LockMode::Shared));
        }
        let (fast, mutex) = lm.stats();
        assert_eq!(fast, 100);
        assert_eq!(mutex, 0);

        let stock = LockManager::stock();
        for i in 0..100 {
            assert!(stock.acquire(i, LockMode::Shared));
        }
        let (fast, mutex) = stock.stats();
        assert_eq!(fast, 0, "unmodified PG has no fast path");
        assert_eq!(mutex, 100);
    }

    #[test]
    fn driver_runs_batches() {
        let d = PostgresDriver::new(PgVariant::PkModPg, 4, 1024).unwrap();
        for q in 0..64u64 {
            d.query((q % 4) as usize, q, q % 20 == 0).unwrap();
        }
        assert_eq!(d.queries(), 64);
        // PK uses atomic lseek: no inode mutex acquisitions.
        let stats = d.kernel().vfs().stats();
        assert_eq!(stats.lseek_mutex_acquisitions.load(Ordering::Relaxed), 0);
        assert!(stats.lseek_atomic_reads.load(Ordering::Relaxed) >= 8 * 64);
    }

    #[test]
    fn stock_driver_hits_the_inode_mutex() {
        let d = PostgresDriver::new(PgVariant::StockModPg, 2, 128).unwrap();
        for q in 0..8u64 {
            d.query(0, q, false).unwrap();
        }
        let stats = d.kernel().vfs().stats();
        assert_eq!(
            stats.lseek_mutex_acquisitions.load(Ordering::Relaxed),
            8 * 8
        );
    }

    #[test]
    fn figure7_shapes() {
        let stock = figure(PgVariant::Stock, true);
        let modpg = figure(PgVariant::StockModPg, true);
        let pk = figure(PgVariant::PkModPg, true);
        let ratio = |s: &[SweepPoint]| s.last().unwrap().per_core_per_sec / s[0].per_core_per_sec;
        // Read-only: both stock-kernel lines collapse (lseek); modPG
        // changes little (it "makes little use of row- and table-level
        // locks").
        assert!(ratio(&stock) < 0.35, "stock: {}", ratio(&stock));
        assert!(ratio(&modpg) < 0.35, "modpg: {}", ratio(&modpg));
        let pk_ratio = ratio(&pk);
        assert!((0.4..0.75).contains(&pk_ratio), "PK+modPG: {pk_ratio}");
        // Stock total throughput peaks in the mid-30s then collapses.
        let peak = modpg
            .iter()
            .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
            .unwrap();
        assert!(
            (24..=44).contains(&peak.cores),
            "collapse near 36 cores: {}",
            peak.cores
        );
        // System time per query explodes at 48 cores (322 µs in §5.5).
        let sys48 = modpg.last().unwrap().system_usec;
        let sys1 = modpg[0].system_usec;
        assert!(
            sys48 > 30.0 * sys1,
            "starved lseek mutex: {sys1} → {sys48} µs"
        );
        assert_eq!(modpg.last().unwrap().bottleneck, "lseek inode mutex");
        // PK spends little time in the kernel at 48 cores.
        assert!(pk.last().unwrap().system_usec < 5.0);
    }

    #[test]
    fn figure8_shapes() {
        let stock = figure(PgVariant::Stock, false);
        let modpg = figure(PgVariant::StockModPg, false);
        let pk = figure(PgVariant::PkModPg, false);
        // Unmodified PG peaks earliest (user-level lock manager, 28
        // cores in the paper).
        let peak_of = |s: &[SweepPoint]| {
            s.iter()
                .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
                .unwrap()
                .cores
        };
        assert!(peak_of(&stock) <= 32, "stock peak: {}", peak_of(&stock));
        assert!(peak_of(&modpg) >= peak_of(&stock));
        // At 32 cores modPG clearly beats unmodified PG.
        let at =
            |s: &[SweepPoint], n: usize| s.iter().find(|p| p.cores == n).unwrap().per_core_per_sec;
        assert!(at(&modpg, 32) > 1.15 * at(&stock, 32));
        // PK+modPG keeps scaling.
        let ratio = pk.last().unwrap().per_core_per_sec / pk[0].per_core_per_sec;
        assert!((0.4..0.75).contains(&ratio), "PK rw ratio: {ratio}");
    }
}
