//! `primitives`: straight-line single-thread ns/op of the reusable
//! primitives, split into a read set and a write set.
//!
//! `core`, `sync` and `percpu` are a few percent of any other workload,
//! so a change there is invisible elsewhere; the read/write split makes
//! a read-side gain that taxes writers visible. Dcache lookups run at
//! 1 024 entries (fits the 4 096-bucket array) and at 65 536 (chains),
//! to vary the working set against the structure's own size.
//!
//! The light path is the read set, the heavy path the write set, each
//! as ops per second (10^9 over the geometric mean of its ns/op).

use crate::harness::{Ledger, Recorder, Rng};
use crate::{Rep, Side, Slice, Stats, Workload};
use pk_mm::{AddressSpace, MmConfig, MmStats, NumaAllocator, PageSize};
use pk_percpu::{CoreId, PerCore};
use pk_sloppy::{AtomicCounter, Counter, SloppyCounter, SloppyRefCount, Snzi, SnziRefCount};
use pk_sync::{rcu, McsLock, SeqLock, SpinLock, TicketLock};
use pk_vfs::{Dcache, DentryKey, InodeId, MountTable, PathWalker, Vfs, VfsConfig, VfsStats};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CORES: usize = 4;
const SOCKETS: usize = 2;
const SMALL: usize = 1_024;
const LARGE: usize = 65_536;
const BUCKETS: usize = 4_096;
/// Length of the seeded access sequence (a power of two).
const SEQUENCE: usize = 4_096;
const DIRS: usize = 8;
const FILES_PER_DIR: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Set {
    Read,
    Write,
    /// Two threads on one object: diagnostic only, traced runs only.
    Contended,
}

/// One primitive: its metric name, its set, and calls per rep, sized
/// so every op takes 3-15 ms: short enough that some rep finds the
/// host quiet for the whole of it.
const OPS: [(&str, Set, u64); 31] = [
    ("sync.rcu_read_ns", Set::Read, 600_000),
    ("sync.seqlock_read_ns", Set::Read, 4_000_000),
    ("core.snzi_query_ns", Set::Read, 4_000_000),
    ("core.sloppy_reconcile_ns", Set::Read, 400_000),
    ("vfs.dcache_lookup_rcuwalk_ns", Set::Read, 200_000),
    ("vfs.dcache_lookup_refwalk_ns", Set::Read, 80_000),
    ("vfs.dcache_lookup_large_ns", Set::Read, 16_000),
    ("vfs.mount_resolve_percore_ns", Set::Read, 60_000),
    ("vfs.mount_resolve_central_ns", Set::Read, 80_000),
    ("vfs.path_resolve_rcu_ns", Set::Read, 20_000),
    ("vfs.path_resolve_ref_ns", Set::Read, 10_000),
    ("percpu.percore_get_ns", Set::Read, 8_000_000),
    ("core.atomic_incdec_ns", Set::Write, 1_000_000),
    ("core.sloppy_acquire_release_ns", Set::Write, 400_000),
    ("core.snzi_arrive_depart_ns", Set::Write, 160_000),
    ("core.refcount_sloppy_getput_ns", Set::Write, 400_000),
    ("core.refcount_snzi_getput_ns", Set::Write, 160_000),
    ("sync.spin_lock_unlock_ns", Set::Write, 600_000),
    ("sync.mcs_lock_unlock_ns", Set::Write, 400_000),
    ("sync.ticket_lock_unlock_ns", Set::Write, 500_000),
    ("sync.seqlock_write_ns", Set::Write, 600_000),
    ("sync.defer_drop_ns", Set::Write, 50_000),
    ("sync.synchronize_ns", Set::Write, 50_000),
    ("vfs.dcache_insert_remove_ns", Set::Write, 8_000),
    ("mm.mmap_fault_munmap_ns", Set::Write, 12_000),
    ("mm.page_alloc_free_ns", Set::Write, 250_000),
    ("sync.spin_handoff_t2_ns", Set::Contended, 200_000),
    ("sync.mcs_handoff_t2_ns", Set::Contended, 200_000),
    ("sync.ticket_handoff_t2_ns", Set::Contended, 200_000),
    ("core.atomic_incdec_t2_ns", Set::Contended, 400_000),
    ("core.sloppy_acquire_release_t2_ns", Set::Contended, 400_000),
];

fn populated(entries: usize, parent: u64) -> (Dcache, Vec<DentryKey>) {
    let dc = Dcache::new(BUCKETS, VfsConfig::pk(CORES), Arc::new(VfsStats::new()));
    let keys: Vec<DentryKey> = (0..entries)
        .map(|i| DentryKey::new(InodeId(parent), format!("f{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let d = dc
            .insert(key.clone(), InodeId(i as u64 + 2), CoreId(0))
            .expect("no faults armed");
        d.put(CoreId(0));
    }
    (dc, keys)
}

pub struct Primitives {
    smoke: bool,
    /// Seeded access order for every table-driven op.
    order: Vec<u32>,
    small: (Dcache, Vec<DentryKey>),
    large: (Dcache, Vec<DentryKey>),
    churn: Dcache,
    mounts_pk: MountTable,
    mounts_stock: MountTable,
    mount_paths: Vec<String>,
    vfs: Vfs,
    file_paths: Vec<String>,
    seqlock: SeqLock<(u64, u64)>,
    snzi: Snzi,
    sloppy: SloppyCounter,
    atomic: AtomicCounter,
    ref_sloppy: SloppyRefCount,
    ref_snzi: SnziRefCount,
    spin: SpinLock<u64>,
    mcs: McsLock<u64>,
    ticket: TicketLock<u64>,
    percore: PerCore<AtomicU64>,
    allocator: Arc<NumaAllocator>,
    space: AddressSpace,
    free_pages_at_boot: u64,
    /// Acquisitions each lock has seen, to check its counter against.
    locked: [u64; 3],
}

impl Primitives {
    fn count(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 100).max(10)
        } else {
            full
        }
    }

    fn at<'a, T>(&self, table: &'a [T], i: u64) -> &'a T {
        &table[self.order[i as usize & (SEQUENCE - 1)] as usize % table.len()]
    }

    /// Runs op `name` `n` times on one thread; returns the calls that
    /// gave a wrong answer.
    fn run(&mut self, name: &str, n: u64) -> u64 {
        let mut bad = 0u64;
        let core = |i: u64| CoreId(i as usize % CORES);
        match name {
            "sync.rcu_read_ns" => {
                for _ in 0..n {
                    black_box(&rcu::read_lock());
                }
            }
            "sync.seqlock_read_ns" => {
                for _ in 0..n {
                    black_box(self.seqlock.read());
                }
            }
            "core.snzi_query_ns" => {
                for _ in 0..n {
                    bad += u64::from(!black_box(self.snzi.query()));
                }
            }
            "core.sloppy_reconcile_ns" => {
                for _ in 0..n {
                    black_box(self.sloppy.reconcile());
                }
            }
            "vfs.dcache_lookup_rcuwalk_ns" => {
                let (dc, keys) = &self.small;
                for i in 0..n {
                    bad += u64::from(!matches!(dc.peek(self.at(keys, i)), Some(Some(_))));
                }
            }
            "vfs.dcache_lookup_refwalk_ns" | "vfs.dcache_lookup_large_ns" => {
                let (dc, keys) = if name.ends_with("large_ns") {
                    &self.large
                } else {
                    &self.small
                };
                for i in 0..n {
                    match dc.lookup(self.at(keys, i), core(i)) {
                        Some(d) => d.put(core(i)),
                        None => bad += 1,
                    }
                }
            }
            "vfs.mount_resolve_percore_ns" | "vfs.mount_resolve_central_ns" => {
                let table = if name.ends_with("percore_ns") {
                    &self.mounts_pk
                } else {
                    &self.mounts_stock
                };
                for i in 0..n {
                    match table.resolve(self.at::<String>(&self.mount_paths, i), core(i)) {
                        Some(m) => m.put(core(i)),
                        None => bad += 1,
                    }
                }
            }
            "vfs.path_resolve_rcu_ns" => {
                let walker =
                    PathWalker::new(self.vfs.tmpfs(), self.vfs.dcache(), self.vfs.mounts());
                for i in 0..n {
                    let hit = walker.resolve_rcu(self.at::<String>(&self.file_paths, i), core(i));
                    bad += u64::from(!matches!(hit, Some(Ok(_))));
                }
            }
            "vfs.path_resolve_ref_ns" => {
                let walker =
                    PathWalker::new(self.vfs.tmpfs(), self.vfs.dcache(), self.vfs.mounts());
                for i in 0..n {
                    let hit = walker.resolve_ref(self.at::<String>(&self.file_paths, i), core(i));
                    bad += u64::from(hit.is_err());
                }
            }
            "percpu.percore_get_ns" => {
                for i in 0..n {
                    black_box(self.percore.get(core(i)).load(Ordering::Relaxed));
                }
            }
            "core.atomic_incdec_ns" => {
                for i in 0..n {
                    self.atomic.add(core(i), 1);
                    self.atomic.add(core(i), -1);
                }
            }
            "core.sloppy_acquire_release_ns" => {
                for i in 0..n {
                    self.sloppy.acquire(core(i), 1);
                    self.sloppy.release(core(i), 1);
                }
            }
            "core.snzi_arrive_depart_ns" => {
                for i in 0..n {
                    self.snzi.arrive(core(i), 1);
                    self.snzi.depart(core(i), 1);
                }
            }
            "core.refcount_sloppy_getput_ns" => {
                for i in 0..n {
                    bad += u64::from(self.ref_sloppy.get(core(i)).is_err());
                    self.ref_sloppy.put(core(i));
                }
            }
            "core.refcount_snzi_getput_ns" => {
                for i in 0..n {
                    bad += u64::from(self.ref_snzi.get(core(i)).is_err());
                    self.ref_snzi.put(core(i));
                }
            }
            "sync.spin_lock_unlock_ns" => {
                for _ in 0..n {
                    *self.spin.lock() += 1;
                }
                self.locked[0] += n;
            }
            "sync.mcs_lock_unlock_ns" => {
                for _ in 0..n {
                    *self.mcs.lock() += 1;
                }
                self.locked[1] += n;
            }
            "sync.ticket_lock_unlock_ns" => {
                for _ in 0..n {
                    *self.ticket.lock() += 1;
                }
                self.locked[2] += n;
            }
            "sync.seqlock_write_ns" => {
                for i in 0..n {
                    *self.seqlock.write() = (i, !i);
                }
            }
            // Amortised over the barrier that reclaims the batch.
            "sync.defer_drop_ns" => {
                for i in 0..n {
                    rcu::defer_drop(Box::new(i));
                }
                rcu::rcu_barrier();
            }
            "sync.synchronize_ns" => {
                for _ in 0..n {
                    rcu::synchronize();
                }
            }
            "vfs.dcache_insert_remove_ns" => {
                for i in 0..n {
                    let key = DentryKey::new(InodeId(99), format!("t{i}"));
                    match self
                        .churn
                        .insert(key.clone(), InodeId(1_000_000 + i), core(i))
                    {
                        Ok(d) => d.put(core(i)),
                        Err(_) => bad += 1,
                    }
                    bad += u64::from(!self.churn.remove(&key, core(i)));
                }
                rcu::rcu_barrier();
            }
            "mm.mmap_fault_munmap_ns" => {
                for i in 0..n {
                    let c = i as usize % CORES;
                    match self.space.mmap(64 << 10, PageSize::Base4K) {
                        Ok(r) => {
                            bad += u64::from(self.space.page_fault(r, 0, c) != Ok(true));
                            bad += u64::from(self.space.munmap(r, c).is_err());
                        }
                        Err(_) => bad += 1,
                    }
                }
                rcu::rcu_barrier();
            }
            "mm.page_alloc_free_ns" => {
                for i in 0..n {
                    match self.allocator.alloc_local(i as usize % CORES, 1) {
                        Ok(node) => self.allocator.free_on(node, 1),
                        Err(_) => bad += 1,
                    }
                }
            }
            other => unreachable!("{other} is not a single-thread op"),
        }
        bad
    }

    /// Runs contended op `name`: two threads, `n / 2` calls each.
    fn run_contended(&mut self, name: &str, n: u64) {
        let half = n / 2;
        let this = &*self;
        std::thread::scope(|s| {
            for t in 0..2usize {
                s.spawn(move || match name {
                    "sync.spin_handoff_t2_ns" => {
                        for _ in 0..half {
                            *this.spin.lock() += 1;
                        }
                    }
                    "sync.mcs_handoff_t2_ns" => {
                        for _ in 0..half {
                            *this.mcs.lock() += 1;
                        }
                    }
                    "sync.ticket_handoff_t2_ns" => {
                        for _ in 0..half {
                            *this.ticket.lock() += 1;
                        }
                    }
                    "core.atomic_incdec_t2_ns" => {
                        for _ in 0..half {
                            this.atomic.add(CoreId(t), 1);
                            this.atomic.add(CoreId(t), -1);
                        }
                    }
                    "core.sloppy_acquire_release_t2_ns" => {
                        for _ in 0..half {
                            this.sloppy.acquire(CoreId(t), 1);
                            this.sloppy.release(CoreId(t), 1);
                        }
                    }
                    other => unreachable!("{other} is not a contended op"),
                });
            }
        });
        match name {
            "sync.spin_handoff_t2_ns" => self.locked[0] += 2 * half,
            "sync.mcs_handoff_t2_ns" => self.locked[1] += 2 * half,
            "sync.ticket_handoff_t2_ns" => self.locked[2] += 2 * half,
            _ => {}
        }
    }

    fn pass(&mut self, scale_down: u64, rec: &Recorder, ledger: &mut Ledger) -> Rep {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut slices = Vec::with_capacity(26);
        let (_, wall_s) = rec.time("primitives.rep", 1, || {
            for (name, set, full) in OPS {
                if set == Set::Contended {
                    continue;
                }
                let n = (self.count(full) / scale_down).max(10);
                let (bad, secs) = rec.time(name.trim_end_matches("_ns"), n, || self.run(name, n));
                ledger.sample(name, secs * 1e9 / n as f64);
                slices.push(Slice {
                    side: if set == Set::Read {
                        Side::Light
                    } else {
                        Side::Heavy
                    },
                    ops: n as f64,
                    secs,
                });
                attempted += n;
                failed += bad;
            }
        });
        Rep {
            wall_s,
            slices,
            attempted,
            failed,
        }
    }
}

impl Workload for Primitives {
    const NAME: &'static str = "primitives";

    fn setup(seed: u64, smoke: bool) -> Self {
        let mut rng = Rng::new(seed);
        let vfs = Vfs::new(VfsConfig::pk(CORES));
        let mut file_paths = Vec::with_capacity(DIRS * FILES_PER_DIR);
        for d in 0..DIRS {
            let dir = format!("/srv/www/site{d}");
            vfs.mkdir_p(&dir, CoreId(0)).expect("directory tree");
            for f in 0..FILES_PER_DIR {
                let path = format!("{dir}/page{f}.html");
                vfs.write_file(&path, b"x", CoreId(0)).expect("file");
                file_paths.push(path);
            }
        }
        let mounts_pk = MountTable::new(VfsConfig::pk(CORES), Arc::new(VfsStats::new()));
        let mounts_stock = MountTable::new(VfsConfig::stock(CORES), Arc::new(VfsStats::new()));
        let mut mount_paths = Vec::with_capacity(DIRS);
        for d in 0..DIRS {
            mounts_pk.mount(&format!("/mnt/vol{d}"));
            mounts_stock.mount(&format!("/mnt/vol{d}"));
            mount_paths.push(format!("/mnt/vol{d}/data/file"));
        }
        let mm = MmConfig::pk(CORES);
        let mm_stats = Arc::new(MmStats::new());
        let allocator = Arc::new(NumaAllocator::new(mm, Arc::clone(&mm_stats)));
        let snzi = Snzi::new(CORES, SOCKETS);
        // A standing arrival, so `query` answers "non-zero" from the root.
        snzi.arrive(CoreId(0), 1);
        let mut p = Self {
            smoke,
            order: rng.indices(SEQUENCE, LARGE),
            small: populated(SMALL, 1),
            large: populated(if smoke { SMALL } else { LARGE }, 2),
            churn: Dcache::new(BUCKETS, VfsConfig::pk(CORES), Arc::new(VfsStats::new())),
            mounts_pk,
            mounts_stock,
            mount_paths,
            vfs,
            file_paths,
            seqlock: SeqLock::new((0, 0)),
            snzi,
            sloppy: SloppyCounter::new(CORES),
            atomic: AtomicCounter::new(),
            ref_sloppy: SloppyRefCount::new(CORES),
            ref_snzi: SnziRefCount::new(CORES, SOCKETS),
            spin: SpinLock::new(0),
            mcs: McsLock::new(0),
            ticket: TicketLock::new(0),
            percore: PerCore::new(CORES),
            free_pages_at_boot: (0..mm.numa_nodes).map(|n| allocator.free_pages(n)).sum(),
            space: AddressSpace::new(mm, Arc::clone(&allocator), mm_stats),
            allocator,
            locked: [0; 3],
        };
        // Warm-up: every op at a hundredth of its count (fills the
        // per-core mount snapshots the RCU walk needs).
        p.pass(
            if smoke { 1 } else { 100 },
            &Recorder::new(false),
            &mut Ledger::default(),
        );
        p
    }

    fn rep(&mut self, rec: &Recorder, ledger: &mut Ledger) -> Rep {
        self.pass(1, rec, ledger)
    }

    fn probes(&mut self, rec: &Recorder, ledger: &mut Ledger) -> (u64, u64) {
        let mut attempted = 0;
        for (name, set, full) in OPS {
            if set != Set::Contended {
                continue;
            }
            let n = self.count(full);
            let (_, secs) = rec.time(name.trim_end_matches("_ns"), n, || {
                self.run_contended(name, n)
            });
            ledger.sample(name, secs * 1e9 / n as f64);
            attempted += n;
        }
        (attempted, 0)
    }

    fn verify(&mut self, stats: &mut Stats) -> (u64, u64) {
        let free_now: u64 = (0..MmConfig::pk(CORES).numa_nodes)
            .map(|n| self.allocator.free_pages(n))
            .sum();
        let checks = [
            ("spin lock counter", *self.spin.lock(), self.locked[0]),
            ("mcs lock counter", *self.mcs.lock(), self.locked[1]),
            ("ticket lock counter", *self.ticket.lock(), self.locked[2]),
            ("atomic counter", self.atomic.value().unsigned_abs(), 0),
            (
                "sloppy counter in use",
                self.sloppy.in_use().unsigned_abs(),
                0,
            ),
            ("snzi value", self.snzi.value().unsigned_abs(), 1),
            (
                "sloppy refcount",
                self.ref_sloppy.references().unsigned_abs(),
                1,
            ),
            (
                "snzi refcount",
                self.ref_snzi.references().unsigned_abs(),
                1,
            ),
            (
                "small dcache entries",
                self.small.0.len() as u64,
                SMALL as u64,
            ),
            (
                "large dcache entries",
                self.large.0.len() as u64,
                self.large.1.len() as u64,
            ),
            ("churn dcache entries", self.churn.len() as u64, 0),
            ("mapped regions", self.space.region_count() as u64, 0),
            ("free pages", free_now, self.free_pages_at_boot),
        ];
        let mut failed = 0;
        for (what, got, want) in checks {
            if got != want {
                eprintln!("primitives: {what} is {got}, want {want}");
                failed += 1;
            }
        }
        for (name, _, full) in OPS {
            stats.insert(
                format!("calls_per_rep.{name}"),
                self.count(full).to_string(),
            );
        }
        stats.insert(
            "dcache.small.entries".to_string(),
            self.small.0.len().to_string(),
        );
        stats.insert(
            "dcache.large.entries".to_string(),
            self.large.0.len().to_string(),
        );
        stats.insert("paths.files".to_string(), self.file_paths.len().to_string());
        stats.insert(
            "paths.mounts".to_string(),
            self.mount_paths.len().to_string(),
        );
        (checks.len() as u64, failed)
    }
}
