//! The Exim mail-server workload (§3.1, §5.2, Figure 4).
//!
//! Per SMTP connection, Exim forks a handler process; per message it
//! forks twice, queues the message in one of 62 spool directories,
//! appends to the per-user mail file, deletes the spooled copy, and logs
//! the delivery. It spends 69% of its single-core time in the kernel,
//! "stressing process creation and small file creation and deletion."
//!
//! Stock bottleneck: "contention on a non-scalable kernel spin lock that
//! serializes access to the vfsmount table. Exim causes the kernel to
//! access the vfsmount table dozens of times for each message." PK's
//! residual limit is application-induced contention on the per-directory
//! locks of the spool directories.

use crate::common::{config_label, demand_unless, gen2_demand};
use pk_fault::{FaultPlane, RetryPolicy};
use pk_kernel::{FixId, Kernel, KernelConfig, KernelError, Personality};
use pk_percpu::CoreId;
use pk_proc::Pid;
use pk_sim::{CoreSweep, MachineSpec, Network, Station, SweepPoint, WorkloadModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of spool directories Exim hashes messages over (§5.2).
pub const SPOOL_DIRS: usize = 62;

/// Messages sent per SMTP connection (§5.2: "sends 10 separate 20-byte
/// messages ... prevents exhaustion of TCP client port numbers").
pub const MSGS_PER_CONNECTION: usize = 10;

/// Message body size in bytes.
pub const MSG_BYTES: usize = 20;

/// Single-core throughput anchor, messages/sec/core (Figure 4's y origin
/// for both kernels).
pub const MSGS_PER_SEC_1CORE: f64 = 630.0;

/// Fraction of single-core time spent in the kernel (§3.1).
pub const KERNEL_FRACTION: f64 = 0.69;

/// Functional driver: delivers mail through the real kernel substrate.
#[derive(Debug)]
pub struct EximDriver {
    kernel: Kernel,
    delivered: AtomicU64,
    /// Messages whose delivery was attempted (delivered + bounced once a
    /// connection completes — the chaos harness checks this invariant).
    attempted: AtomicU64,
    /// Transient delivery failures that were requeued (SMTP 4xx).
    tempfails: AtomicU64,
    /// Messages given up on after the retry budget ran out (SMTP 5xx).
    bounced: AtomicU64,
    /// Total simulated backoff charged by requeues, in cycles.
    retry_backoff_cycles: AtomicU64,
    retry: RetryPolicy,
    /// §5.2's third application fix: "We configured Exim to avoid an
    /// exec() per mail message, using deliver_drop_privilege." `false` =
    /// stock Exim, exec()ing a delivery binary per message.
    avoid_exec: bool,
    /// §5.2's first application fix: "Berkeley DB v4.6 reads /proc/stat
    /// to find the number of cores. This consumed about 20% of the total
    /// runtime, so we modified Berkeley DB to aggressively cache this
    /// information." `true` = the modified (caching) Berkeley DB.
    bdb_caches_cpu_count: bool,
    cached_cpu_count: std::sync::OnceLock<usize>,
}

impl EximDriver {
    /// Boots a kernel and lays out the spool/mail/log directories,
    /// with the modified (caching) Berkeley DB.
    ///
    /// Fails if the spool layout cannot be created — every directory
    /// goes through the kernel's syscall surface, so a boot-time fault
    /// surfaces as an error, not a panic.
    pub fn new(choice: Personality, cores: usize) -> Result<Self, KernelError> {
        Self::with_bdb(choice, cores, true)
    }

    /// As [`EximDriver::new`], selecting stock vs modified Berkeley DB.
    pub fn with_bdb(
        choice: Personality,
        cores: usize,
        bdb_caches_cpu_count: bool,
    ) -> Result<Self, KernelError> {
        Self::with_app_config(choice, cores, bdb_caches_cpu_count, true)
    }

    /// Boots a kernel wired to `faults` (with the modified Berkeley DB
    /// and deliver_drop_privilege). Arm the plane only after
    /// construction: the spool layout must not eat injected faults.
    pub fn with_faults(
        choice: Personality,
        cores: usize,
        faults: Arc<FaultPlane>,
    ) -> Result<Self, KernelError> {
        Self::build(choice, cores, true, true, faults)
    }

    /// Full application-configuration control: Berkeley DB caching and
    /// the deliver_drop_privilege (no-exec) setting.
    pub fn with_app_config(
        choice: Personality,
        cores: usize,
        bdb_caches_cpu_count: bool,
        avoid_exec: bool,
    ) -> Result<Self, KernelError> {
        Self::build(
            choice,
            cores,
            bdb_caches_cpu_count,
            avoid_exec,
            Arc::new(FaultPlane::disabled()),
        )
    }

    fn build(
        choice: Personality,
        cores: usize,
        bdb_caches_cpu_count: bool,
        avoid_exec: bool,
        faults: Arc<FaultPlane>,
    ) -> Result<Self, KernelError> {
        let kernel = Kernel::with_faults(choice.config(cores), faults);
        let core = CoreId(0);
        for d in 0..SPOOL_DIRS {
            kernel
                .vfs()
                .mkdir_p(&format!("/var/spool/input/{d}"), core)?;
        }
        kernel.vfs().mkdir_p("/var/mail", core)?;
        kernel.vfs().mkdir_p("/var/log", core)?;
        kernel.vfs().write_file("/var/log/exim", b"", core)?;
        Ok(Self {
            kernel,
            delivered: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            tempfails: AtomicU64::new(0),
            bounced: AtomicU64::new(0),
            retry_backoff_cycles: AtomicU64::new(0),
            retry: RetryPolicy::DEFAULT,
            avoid_exec,
            bdb_caches_cpu_count,
            cached_cpu_count: std::sync::OnceLock::new(),
        })
    }

    /// Berkeley DB discovering the core count: stock re-reads
    /// `/proc/stat` every time; the modified version caches it. The
    /// procfs read sits on the per-message delivery path, so its
    /// failure propagates instead of panicking.
    fn bdb_cpu_count(&self) -> Result<usize, KernelError> {
        if let Some(&n) = self.cached_cpu_count.get() {
            return Ok(n);
        }
        let stat = self.kernel.proc_read("/proc/stat")?;
        let n = pk_kernel::procfs::parse_cpu_count(&stat);
        if self.bdb_caches_cpu_count {
            let _ = self.cached_cpu_count.set(n);
        }
        Ok(n)
    }

    /// Returns the kernel (for inspecting stats).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Messages whose delivery was attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Transient failures that were requeued and retried.
    pub fn tempfails(&self) -> u64 {
        self.tempfails.load(Ordering::Relaxed)
    }

    /// Messages bounced after the retry budget ran out.
    pub fn bounced(&self) -> u64 {
        self.bounced.load(Ordering::Relaxed)
    }

    /// Total simulated requeue backoff, in cycles.
    pub fn retry_backoff_cycles(&self) -> u64 {
        self.retry_backoff_cycles.load(Ordering::Relaxed)
    }

    /// Delivers one message on `core` for `user`, as the per-connection
    /// process `conn`: fork twice, spool, append to the mailbox, unlink
    /// the spool file, log.
    ///
    /// On failure the delivery children are reaped and the spooled copy
    /// is removed, so a requeue retries from a clean slate and nothing
    /// leaks across attempts.
    pub fn deliver_message(
        &self,
        core: CoreId,
        conn: Pid,
        msg_id: u64,
        user: usize,
    ) -> Result<(), KernelError> {
        let k = &self.kernel;
        // One delivery = one request for causal tracing: every lock wait
        // and RCU-walk fallback below lands inside this context, so the
        // tail attribution can name the message that paid for it. The id
        // is a pure function of (connection, user, message) — reruns
        // fold to byte-identical span trees.
        let _req = pk_trace::RequestScope::enter(pk_trace::request_id(conn.0, user as u64, msg_id));
        // Berkeley DB consults the core count while opening its hints
        // database (stock BDB: a fresh /proc/stat read per message).
        let _cores = self.bdb_cpu_count()?;
        // Exim forks twice to deliver each message (§3.1).
        let d1 = k.fork(conn, core)?;
        let d2 = match k.fork(conn, core) {
            Ok(p) => p,
            Err(e) => {
                let _ = k.exit(d1, core);
                return Err(e);
            }
        };
        // Spool the message, hashed by process id over 62 directories.
        let dir = (conn.0 as usize).wrapping_add(msg_id as usize) % SPOOL_DIRS;
        let spool = format!("/var/spool/input/{dir}/msg-{}-{msg_id}", conn.0);
        let body = [b'x'; MSG_BYTES];
        let outcome = (|| -> Result<(), KernelError> {
            if !self.avoid_exec {
                // Stock Exim execs the delivery binary in each child.
                k.procs().exec(d1)?;
                k.procs().exec(d2)?;
            }
            k.vfs().write_file(&spool, &body, core)?;
            // Append to the per-user mail file.
            let mbox = format!("/var/mail/user{user}");
            let f = match k.vfs().open(&mbox, core) {
                Ok(f) => f,
                Err(pk_vfs::VfsError::NotFound) => k.vfs().create(&mbox, core)?,
                Err(e) => return Err(e.into()),
            };
            let append = f.append(&body);
            k.vfs().close(&f, core);
            append?;
            // Delete the spooled copy and record the delivery.
            k.vfs().unlink(&spool, core)?;
            let log = k.vfs().open("/var/log/exim", core)?;
            let logged = log.append(format!("delivered {msg_id}\n").as_bytes());
            k.vfs().close(&log, core);
            logged?;
            Ok(())
        })();
        // The delivery children exit whether or not delivery succeeded.
        let exit1 = k.exit(d1, core);
        let exit2 = k.exit(d2, core);
        match outcome {
            Ok(()) => {
                exit1?;
                exit2?;
                self.delivered.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // Leave no half-delivered spool file behind for the retry.
                let _ = k.vfs().unlink(&spool, core);
                Err(e)
            }
        }
    }

    /// Handles one SMTP connection on `core`: fork the handler, deliver
    /// [`MSGS_PER_CONNECTION`] messages to `user`, tear down.
    ///
    /// Transient failures are requeued with deterministic backoff (the
    /// jitter derives from the kernel's fault seed); a message whose
    /// retry budget runs out is bounced, counted, and the connection
    /// moves on — mirroring SMTP's 4xx tempfail / 5xx bounce split.
    /// Permanent errors abort the connection.
    pub fn run_connection(&self, core: CoreId, user: usize) -> Result<(), KernelError> {
        let seed = self.kernel.faults().seed();
        let conn_token = (user as u64).rotate_left(41) ^ core.0 as u64;
        // A fork failure that survives the retry budget aborts the
        // connection: the handler never existed.
        let conn = self.retry_transient(seed, conn_token, |_| self.kernel.fork(Pid(1), core))?;
        let mut result = Ok(());
        for m in 0..MSGS_PER_CONNECTION {
            self.attempted.fetch_add(1, Ordering::Relaxed);
            let token = conn.0 << 16 | m as u64;
            match self.retry_transient(seed, token, |_| {
                self.deliver_message(core, conn, m as u64, user)
            }) {
                Ok(()) => {}
                Err(e) if e.is_transient() => {
                    // Retry budget exhausted: bounce and move on.
                    self.bounced.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let _ = self.kernel.exit(conn, core);
        result
    }

    /// Runs `op` under the driver's retry policy, retrying only
    /// transient errors and charging the backoff to the driver's books.
    fn retry_transient<T>(
        &self,
        seed: u64,
        token: u64,
        mut op: impl FnMut(u32) -> Result<T, KernelError>,
    ) -> Result<T, KernelError> {
        let out = self.retry.run(seed, token, |attempt| match op(attempt) {
            Ok(v) => Ok(Ok(v)),
            Err(e) if e.is_transient() => Err(e), // requeue
            Err(e) => Ok(Err(e)),                 // permanent: stop retrying
        });
        if out.attempts > 1 {
            self.tempfails
                .fetch_add(u64::from(out.attempts) - 1, Ordering::Relaxed);
            self.retry_backoff_cycles
                .fetch_add(out.backoff_cycles, Ordering::Relaxed);
        }
        out.result.and_then(|inner| inner)
    }
}

/// Figure-4 performance model.
#[derive(Debug, Clone, Copy)]
pub struct EximModel {
    /// The kernel's fix set (any subset of the 16, for ablations).
    pub config: KernelConfig,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl EximModel {
    /// Creates the model for `choice` on the paper machine.
    pub fn new(choice: Personality) -> Self {
        Self::with_config(choice.config(48))
    }

    /// Creates the model for an arbitrary fix subset.
    pub fn with_config(config: KernelConfig) -> Self {
        Self {
            config,
            machine: MachineSpec::paper(),
        }
    }

    /// Total cycles per message on one core.
    fn total_cycles(&self) -> f64 {
        self.machine.clock_hz / MSGS_PER_SEC_1CORE
    }
}

impl WorkloadModel for EximModel {
    fn name(&self) -> String {
        format!("Exim/{}", config_label(&self.config))
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let t = self.total_cycles();
        let user = t * (1.0 - KERNEL_FRACTION);
        // Stock shared demands (cycles per message). The vfsmount-table
        // spin lock dominates ("dozens of [accesses] for each message");
        // dentry refcounts, per-dentry d_lock acquisitions, and the
        // falsely shared `struct page` line make up the rest. Sized so
        // the stock knee lands near 12 cores as in Figure 4.
        let cfg = &self.config;
        let vfsmount_lock = demand_unless(cfg, FixId::PerCoreMountCache, t * 0.052);
        let dentry_refs = demand_unless(cfg, FixId::SloppyDentryRefs, t * 0.018);
        let dlookup_locks = demand_unless(cfg, FixId::LockFreeDlookup, t * 0.010);
        let page_false_sharing = demand_unless(cfg, FixId::PageFalseSharing, t * 0.003);
        let shared = vfsmount_lock + dentry_refs + dlookup_locks + page_false_sharing;
        // Kernel work that stays core-local (plus, under PK, the now
        //-local sloppy/per-core replacements of the shared demands).
        let kernel_local = t * KERNEL_FRACTION - shared;
        // Cross-core misses on kernel data once more than one core runs
        // (the 1→2 core drop of §5.2), growing slowly as more chips
        // participate.
        let cross_core = if cores > 1 {
            t * 0.30 * (1.0 - 1.0 / (cores as f64).sqrt())
        } else {
            0.0
        };
        // Application-induced spool-directory contention: the probability
        // two concurrent deliveries pick the same of the 62 directories
        // grows with core count (§5.2's residual PK bottleneck).
        let spool = 20_000.0 * cores as f64 / SPOOL_DIRS as f64;
        // Generation-2 growth stations (past 48 cores): the per-component
        // get/put of the reference walk — invisible under the 48-core
        // roster, the top collapse at 1024 — and the saturation point of
        // flat sloppy dentry counters (reconciles scan every core).
        let path_walk = demand_unless(cfg, FixId::RcuPathWalk, gen2_demand(t, 0.000_12, cores));
        let dentry_ref_scale =
            demand_unless(cfg, FixId::SnziVfsRefs, gen2_demand(t, 0.000_06, cores));

        let mut net = Network::new();
        net.push(Station::delay("user", user, false));
        net.push(Station::delay("kernel-local", kernel_local, true));
        net.push(Station::delay("cross-core misses", cross_core, true));
        // The gen-2 stations sit *before* the gen-1 locks in visit
        // order: under-saturated at 48 cores the pile-up passes through
        // to the vfsmount lock, past ~96 they saturate first and own
        // the collapse (first saturated station in order captures the
        // queue under the §4.1 collapse feedback).
        net.push(
            Station::spinlock("per-component path-walk refs", path_walk, 0.3, true)
                .with_class("vfs.path_walk"),
        );
        net.push(
            Station::spinlock("dentry ref saturation", dentry_ref_scale, 0.25, true)
                .with_class("vfs.dentry_ref_scale"),
        );
        net.push(
            Station::spinlock("vfsmount-table lock", vfsmount_lock, 0.35, true)
                .with_class("vfs.mount_table"),
        );
        net.push(
            Station::queue("dentry refcounts", dentry_refs, true).with_class("vfs.dentry_ref"),
        );
        net.push(
            Station::queue("dentry d_lock", dlookup_locks, true).with_class("vfs.dentry_lock"),
        );
        net.push(
            Station::queue("page false sharing", page_false_sharing, true)
                .with_class("mm.page_line"),
        );
        net.push(Station::queue("spool directories", spool, true));
        net
    }
}

/// Runs the Figure-4 sweep for one kernel.
pub fn figure4(choice: Personality) -> Vec<SweepPoint> {
    CoreSweep::run(&EximModel::new(choice))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_delivers_mail_on_both_kernels() {
        for choice in [Personality::Stock, Personality::Pk] {
            let d = EximDriver::new(choice, 4).unwrap();
            d.run_connection(CoreId(0), 0).unwrap();
            d.run_connection(CoreId(1), 1).unwrap();
            assert_eq!(d.delivered(), 20);
            // Mailboxes accumulated 10 messages each.
            let mb = d.kernel().vfs().stat("/var/mail/user0", CoreId(0)).unwrap();
            assert_eq!(mb.size, (MSGS_PER_CONNECTION * MSG_BYTES) as u64);
            // All spool files were deleted.
            for dir in 0..SPOOL_DIRS {
                let st = d
                    .kernel()
                    .vfs()
                    .stat(&format!("/var/spool/input/{dir}"), CoreId(0))
                    .unwrap();
                assert_eq!(st.kind, pk_vfs::InodeKind::Dir);
            }
            // Processes were all reaped (only init remains).
            assert_eq!(d.kernel().procs().len(), 1);
            assert_eq!(d.kernel().procs().fork_count(), 2 * (1 + 2 * 10));
        }
    }

    #[test]
    fn driver_exercises_the_right_stats() {
        let d = EximDriver::new(Personality::Stock, 4).unwrap();
        d.run_connection(CoreId(0), 0).unwrap();
        let stats = d.kernel().vfs().stats();
        assert!(
            stats.mount_central_lookups.load(Ordering::Relaxed) > 30,
            "dozens of vfsmount accesses per connection"
        );
        let pk = EximDriver::new(Personality::Pk, 4).unwrap();
        pk.run_connection(CoreId(0), 0).unwrap();
        let pk_central = pk
            .kernel()
            .vfs()
            .stats()
            .mount_central_lookups
            .load(Ordering::Relaxed);
        assert!(
            pk_central <= 2,
            "per-core mount caches kill central lookups, got {pk_central}"
        );
    }

    #[test]
    fn deliveries_are_request_scoped_for_causal_tracing() {
        // One delivery = one context: the global tracer sees exactly one
        // CtxBegin/CtxEnd pair carrying request_id(conn, user, msg), and
        // the scope leaves nothing pinned on the thread afterwards.
        let t = pk_trace::install_global(1 << 16);
        let d = EximDriver::new(Personality::Stock, 2).unwrap();
        let conn = d.kernel().fork(Pid(1), CoreId(0)).unwrap();
        let leaks_before = pk_trace::ctx_leaks();
        t.enable();
        d.deliver_message(CoreId(0), conn, 7, 3).unwrap();
        t.disable();
        let id = pk_trace::request_id(conn.0, 3, 7);
        let events = t.drain();
        let count = |kind: pk_trace::EventKind| {
            events
                .iter()
                .filter(|e| e.kind == kind && e.arg == id)
                .count()
        };
        assert_eq!(count(pk_trace::EventKind::CtxBegin), 1);
        assert_eq!(count(pk_trace::EventKind::CtxEnd), 1);
        assert_eq!(pk_trace::ctx_leaks(), leaks_before, "scope closed cleanly");
        assert_eq!(pk_trace::current_request(), 0, "nothing pinned after");
    }

    #[test]
    fn deliver_drop_privilege_avoids_execs() {
        let stock_app = EximDriver::with_app_config(Personality::Pk, 2, true, false).unwrap();
        stock_app.run_connection(CoreId(0), 0).unwrap();
        assert_eq!(
            stock_app.kernel().procs().exec_count(),
            2 * MSGS_PER_CONNECTION as u64
        );
        let mod_app = EximDriver::new(Personality::Pk, 2).unwrap();
        mod_app.run_connection(CoreId(0), 0).unwrap();
        assert_eq!(mod_app.kernel().procs().exec_count(), 0);
    }

    #[test]
    fn bdb_proc_stat_caching() {
        // Stock Berkeley DB reads /proc/stat per message; the modified
        // one reads it once.
        let stock_bdb = EximDriver::with_bdb(Personality::Pk, 2, false).unwrap();
        stock_bdb.run_connection(CoreId(0), 0).unwrap();
        assert_eq!(
            stock_bdb
                .kernel()
                .proc_stats()
                .stat_reads
                .load(Ordering::Relaxed),
            MSGS_PER_CONNECTION as u64
        );
        let mod_bdb = EximDriver::with_bdb(Personality::Pk, 2, true).unwrap();
        mod_bdb.run_connection(CoreId(0), 0).unwrap();
        assert_eq!(
            mod_bdb
                .kernel()
                .proc_stats()
                .stat_reads
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn transient_faults_are_requeued_not_fatal() {
        let faults = Arc::new(FaultPlane::with_seed(0xE215));
        let d = EximDriver::with_faults(Personality::Pk, 4, Arc::clone(&faults)).unwrap();
        // Roughly 5% fork failures and occasional allocator trouble.
        faults.set("proc.fork_fail", pk_fault::FaultSchedule::EveryNth(20));
        faults.set("vfs.dentry_alloc", pk_fault::FaultSchedule::EveryNth(40));
        faults.enable();
        for conn in 0..8 {
            d.run_connection(CoreId(conn % 4), conn).unwrap();
        }
        faults.disable();
        assert_eq!(
            d.delivered() + d.bounced(),
            d.attempted(),
            "every message is either delivered or bounced"
        );
        assert_eq!(d.attempted(), 8 * MSGS_PER_CONNECTION as u64);
        assert!(d.tempfails() > 0, "faults must have forced requeues");
        assert!(d.retry_backoff_cycles() > 0, "requeues charge backoff");
        // No process or spool leaks despite the failures.
        assert_eq!(d.kernel().procs().len(), 1, "all children reaped");
        assert_eq!(
            d.kernel().vfs().superblock().open_files(),
            0,
            "no leaked open files"
        );
    }

    #[test]
    fn fault_free_run_counts_no_retries() {
        let d = EximDriver::new(Personality::Pk, 2).unwrap();
        d.run_connection(CoreId(0), 0).unwrap();
        assert_eq!(d.tempfails(), 0);
        assert_eq!(d.bounced(), 0);
        assert_eq!(d.attempted(), MSGS_PER_CONNECTION as u64);
        assert_eq!(d.delivered(), MSGS_PER_CONNECTION as u64);
    }

    #[test]
    fn one_core_throughputs_match_anchor() {
        for choice in [Personality::Stock, Personality::Pk] {
            let p = CoreSweep::point(&EximModel::new(choice), 1);
            let err = (p.per_core_per_sec - MSGS_PER_SEC_1CORE).abs() / MSGS_PER_SEC_1CORE;
            assert!(err < 0.01, "{choice:?}: {}", p.per_core_per_sec);
        }
    }

    #[test]
    fn figure4_shapes() {
        let stock = figure4(Personality::Stock);
        let pk = figure4(Personality::Pk);
        let ratio = |s: &[SweepPoint]| s.last().unwrap().per_core_per_sec / s[0].per_core_per_sec;
        let stock_ratio = ratio(&stock);
        let pk_ratio = ratio(&pk);
        assert!(
            stock_ratio < 0.35,
            "stock collapses (Figure 3 bar ≈ 0.1–0.3): {stock_ratio}"
        );
        assert!(
            (0.6..0.95).contains(&pk_ratio),
            "PK scales to ≈0.77: {pk_ratio}"
        );
        assert!(pk_ratio > 3.0 * stock_ratio, "PK beats stock by a lot");
        // Stock total throughput peaks well before 48 cores.
        let peak = stock
            .iter()
            .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
            .unwrap();
        assert!(peak.cores < 48, "stock peak at {} cores", peak.cores);
        // PK system time per message grows with cores (Figure 4's right
        // axis).
        assert!(pk.last().unwrap().system_usec > pk[0].system_usec);
        // The stock bottleneck is the vfsmount table.
        assert_eq!(stock.last().unwrap().bottleneck, "vfsmount-table lock");
    }
}
