//! The Apache web-server workload (§3.3, §5.4, Figure 6).
//!
//! A single Apache instance, one process per core, serving one 300-byte
//! static file; every request accepts a TCP connection, `stat`s and opens
//! the file, copies it to the socket, and closes both. 60% of single-core
//! time is kernel.
//!
//! On the stock kernel even per-core instances scale poorly (dentry
//! refcounts, per-dentry locks, open-file lists, and the network-side
//! bottlenecks shared with memcached). With PK, each connection is
//! accepted and processed entirely on the core its packets arrive on
//! (§4.2). "Past 36 cores, performance degrades because the network card
//! cannot keep up ... the card's internal receive packet FIFO overflows"
//! — server idle time reaches 18% at 48 cores.

use crate::common::{config_label, demand_unless, gen2_demand};
use pk_fault::{backoff, FaultPlane};
use pk_kernel::{FixId, Kernel, KernelConfig, KernelError, Personality};
use pk_net::FlowHash;
use pk_percpu::CoreId;
use pk_sim::{CoreSweep, MachineSpec, Network, Station, SweepPoint, WorkloadModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Size of the static file served (§5.4).
pub const FILE_BYTES: usize = 300;
/// The served path.
pub const FILE_PATH: &str = "/htdocs/index.html";

/// Single-core throughput anchor, requests/sec/core (Figure 6).
pub const REQS_PER_SEC_1CORE: f64 = 9_000.0;
/// Kernel fraction of single-core time (§3.3).
pub const KERNEL_FRACTION: f64 = 0.60;
/// Core count past which the card's RX FIFO overflows (§5.4).
pub const NIC_FIFO_KNEE: usize = 36;

/// Functional driver: accept → stat → open → read → close over the real
/// kernel.
#[derive(Debug)]
pub struct ApacheDriver {
    kernel: Kernel,
    served: AtomicU64,
    next_client_port: AtomicU64,
    /// Accept polls that found the backlog empty and charged a backoff
    /// (a live worker would sleep in `accept(2)`; the driver's polling
    /// loop models that wait explicitly instead of spinning).
    accept_backoffs: AtomicU64,
    /// Total simulated accept backoff, in cycles.
    accept_backoff_cycles: AtomicU64,
    /// Consecutive empty polls, the backoff's attempt index (resets on
    /// every accepted connection so recovery is immediate).
    empty_polls: AtomicU64,
    /// Transient filesystem failures absorbed by in-request retries.
    request_tempfails: AtomicU64,
    /// Connections accepted but answered with an error after the retry
    /// budget ran out (a live server's 5xx).
    failed_requests: AtomicU64,
}

impl ApacheDriver {
    /// Boots a kernel, publishes the document root, and listens on :80.
    pub fn new(choice: Personality, cores: usize) -> Self {
        Self::with_faults(choice, cores, Arc::new(FaultPlane::disabled()))
    }

    /// As [`ApacheDriver::new`], with every substrate wired to `faults`.
    /// Arm the plane only after construction so setup runs clean.
    pub fn with_faults(choice: Personality, cores: usize, faults: Arc<FaultPlane>) -> Self {
        let kernel = Kernel::with_faults(choice.config(cores), faults);
        let core = CoreId(0);
        kernel.vfs().mkdir_p("/htdocs", core).expect("docroot");
        kernel
            .vfs()
            .write_file(FILE_PATH, &vec![b'w'; FILE_BYTES], core)
            .expect("static file");
        kernel.net().listen(80);
        Self {
            kernel,
            served: AtomicU64::new(0),
            next_client_port: AtomicU64::new(1024),
            accept_backoffs: AtomicU64::new(0),
            accept_backoff_cycles: AtomicU64::new(0),
            empty_polls: AtomicU64::new(0),
            request_tempfails: AtomicU64::new(0),
            failed_requests: AtomicU64::new(0),
        }
    }

    /// Returns the kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Empty accept polls that charged a backoff.
    pub fn accept_backoffs(&self) -> u64 {
        self.accept_backoffs.load(Ordering::Relaxed)
    }

    /// Total simulated accept backoff, in cycles.
    pub fn accept_backoff_cycles(&self) -> u64 {
        self.accept_backoff_cycles.load(Ordering::Relaxed)
    }

    /// Transient filesystem failures absorbed by in-request retries.
    pub fn request_tempfails(&self) -> u64 {
        self.request_tempfails.load(Ordering::Relaxed)
    }

    /// Accepted connections that exhausted their retry budget (5xx).
    pub fn failed_requests(&self) -> u64 {
        self.failed_requests.load(Ordering::Relaxed)
    }

    /// A client opens a connection; the NIC steers its handshake to a
    /// core's backlog. Returns the flow for diagnostics.
    ///
    /// Panics if the handshake is refused (see
    /// [`ApacheDriver::try_client_connect`]).
    pub fn client_connect(&self, client_ip: u32) -> FlowHash {
        self.try_client_connect(client_ip)
            .expect("handshake refused: nothing listens on :80")
    }

    /// As [`ApacheDriver::client_connect`], returning a refusal instead
    /// of panicking. The listen backlog is unbounded, so a refusal can
    /// only mean that nothing listens on :80; the driver listens there
    /// from construction on. It surfaces as [`KernelError::Overloaded`].
    pub fn try_client_connect(&self, client_ip: u32) -> Result<FlowHash, KernelError> {
        let port = self.next_client_port.fetch_add(1, Ordering::Relaxed);
        let flow = FlowHash {
            src_ip: client_ip,
            src_port: (1024 + (port % 60_000)) as u16,
            dst_ip: 0x0a00_0001,
            dst_port: 80,
        };
        if self.kernel.net().incoming_connection(80, flow) {
            Ok(flow)
        } else {
            Err(KernelError::Overloaded)
        }
    }

    /// The worker on `core` accepts one connection (stealing if its own
    /// backlog is empty) and serves the file: stat, open, read, close.
    ///
    /// Returns whether a connection was available, and whether it was
    /// processed entirely on its arrival core.
    pub fn serve_one(&self, core: usize) -> Option<bool> {
        let core_id = CoreId(core);
        let conn = match self.kernel.net().accept(80, core_id) {
            Some(c) => {
                self.empty_polls.store(0, Ordering::Relaxed);
                c
            }
            None => {
                // Empty backlog: back off exponentially (with jitter from
                // the fault seed) instead of hammering the accept queue.
                let attempt = self.empty_polls.fetch_add(1, Ordering::Relaxed).min(12) as u32;
                let delay =
                    backoff::delay_cycles(self.kernel.faults().seed(), core as u64, attempt);
                self.accept_backoffs.fetch_add(1, Ordering::Relaxed);
                self.accept_backoff_cycles
                    .fetch_add(delay, Ordering::Relaxed);
                return None;
            }
        };
        // Serve the file with bounded retry: injected dcache pressure or
        // allocation failure tempfails the request instead of killing
        // the worker; an exhausted budget is the live server's 5xx.
        let seed = self.kernel.faults().seed();
        let token = (u64::from(conn.flow.src_ip) << 16) ^ u64::from(conn.flow.src_port);
        let out = backoff::run(seed, token, |_| match self.serve_file(core_id) {
            Ok(()) => Ok(Ok(())),
            Err(e) if e.is_transient() => Err(e),
            Err(e) => Ok(Err(e)),
        });
        if out.attempts > 1 {
            self.request_tempfails
                .fetch_add(u64::from(out.attempts) - 1, Ordering::Relaxed);
        }
        match out.result.and_then(|inner| inner) {
            Ok(()) => {
                // Transmit the response on this core's TX queue.
                self.kernel.net().nic().tx(core_id, conn.flow);
                self.served.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.failed_requests.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(conn.local)
    }

    /// One request body: stat, open, read from the buffer cache (§5.4),
    /// close. The open file is closed on the error path too, so the
    /// open-file accounting stays balanced under injected faults.
    fn serve_file(&self, core_id: CoreId) -> Result<(), KernelError> {
        let vfs = self.kernel.vfs();
        let st = vfs.stat(FILE_PATH, core_id)?;
        debug_assert_eq!(st.size as usize, FILE_BYTES);
        let f = vfs.open(FILE_PATH, core_id)?;
        let body = vfs.read_cached(FILE_PATH, core_id);
        vfs.close(&f, core_id);
        let body = body?;
        debug_assert_eq!(body.len(), FILE_BYTES);
        Ok(())
    }
}

/// Which Figure-6 line.
#[derive(Debug, Clone, Copy)]
pub struct ApacheModel {
    /// The kernel's fix set (any subset of the 16, for ablations).
    pub config: KernelConfig,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl ApacheModel {
    fn total_cycles(&self) -> f64 {
        self.machine.clock_hz / REQS_PER_SEC_1CORE
    }

    /// Total request rate the card sustains with `q` queues: flat until
    /// the RX FIFO knee, then declining as overflow drops grow (§5.4).
    /// The decline is measured out to the paper's 48 queues; past that
    /// the card has no more queues to fragment its FIFO over (extra
    /// cores share queues), so the delivered rate holds at the
    /// 48-queue level instead of extrapolating below zero.
    pub fn nic_request_cap(q: usize) -> f64 {
        let q = q.min(48);
        let flat = NIC_FIFO_KNEE as f64 * REQS_PER_SEC_1CORE;
        if q <= NIC_FIFO_KNEE {
            flat
        } else {
            flat - (q - NIC_FIFO_KNEE) as f64 * 5_500.0
        }
    }
}

impl WorkloadModel for ApacheModel {
    fn name(&self) -> String {
        format!("Apache/{}", config_label(&self.config))
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let t = self.total_cycles();
        let user = t * (1.0 - KERNEL_FRACTION);
        // Stock shared demands per request (stock runs per-core
        // instances, so the accept mutex is absent; the VFS and network
        // shared lines remain). Knee ≈ 5 cores.
        let cfg = &self.config;
        let dentry_refs = demand_unless(cfg, FixId::SloppyDentryRefs, t * 0.075);
        let dcache_locks = demand_unless(cfg, FixId::LockFreeDlookup, t * 0.075);
        let open_list = demand_unless(cfg, FixId::PerCoreOpenLists, t * 0.030);
        let dst_refcount = demand_unless(cfg, FixId::SloppyDstRefs, t * 0.012);
        let proto_counters = demand_unless(cfg, FixId::SloppyProtoAccounting, t * 0.008);
        let shared = dentry_refs + dcache_locks + open_list + dst_refcount + proto_counters;
        let kernel_local = t * KERNEL_FRACTION - shared;
        // Cross-core kernel data misses. Figure 6 shows PK's per-core
        // throughput staying near the anchor through 36 cores, so the
        // CPU-side decline is kept small; the post-36 droop is the card.
        let cross_core = if cores > 1 { t * 0.06 } else { 0.0 };
        // Generation-2 growth stations: flat sloppy dentry counters
        // saturate first (every request opens the same few files), with
        // the reference walk's per-component get/put close behind.
        let dentry_ref_scale =
            demand_unless(cfg, FixId::SnziVfsRefs, gen2_demand(t, 0.000_12, cores));
        let path_walk = demand_unless(cfg, FixId::RcuPathWalk, gen2_demand(t, 0.000_06, cores));

        let mut net = Network::new();
        net.push(Station::delay("user", user, false));
        net.push(Station::delay("kernel-local", kernel_local, true));
        net.push(Station::delay("cross-core misses", cross_core, true));
        // Gen-2 stations precede the gen-1 locks in visit order so the
        // first station to saturate past ~96 cores — and therefore the
        // one that captures the collapse queue — is the gen-2 one.
        net.push(
            Station::spinlock("dentry ref saturation", dentry_ref_scale, 0.3, true)
                .with_class("vfs.dentry_ref_scale"),
        );
        net.push(
            Station::spinlock("per-component path-walk refs", path_walk, 0.25, true)
                .with_class("vfs.path_walk"),
        );
        net.push(
            Station::queue("dentry refcounts", dentry_refs, true).with_class("vfs.dentry_ref"),
        );
        net.push(
            Station::spinlock("dentry d_lock", dcache_locks, 0.4, true)
                .with_class("vfs.dentry_lock"),
        );
        net.push(Station::queue("open-file list", open_list, true).with_class("vfs.open_list"));
        net.push(
            Station::queue("dst_entry refcount", dst_refcount, true).with_class("net.dst_ref"),
        );
        net.push(
            Station::queue("proto memory counters", proto_counters, true)
                .with_class("net.proto_accounting"),
        );
        net
    }

    fn throughput_cap(&self, cores: usize) -> Option<f64> {
        Some(Self::nic_request_cap(cores))
    }
}

/// Runs the Figure-6 sweep for one kernel.
pub fn figure6(choice: Personality) -> Vec<SweepPoint> {
    CoreSweep::run(&*crate::roster::model("apache", choice).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_shapes() {
        let stock = figure6(Personality::Stock);
        let pk = figure6(Personality::Pk);
        let ratio = |s: &[SweepPoint]| s.last().unwrap().per_core_per_sec / s[0].per_core_per_sec;
        assert!(ratio(&stock) < 0.2, "stock collapses: {}", ratio(&stock));
        let pk_ratio = ratio(&pk);
        assert!(
            (0.4..0.75).contains(&pk_ratio),
            "PK ratio ≈0.5–0.6 (NIC-bound): {pk_ratio}"
        );
        // PK total throughput peaks at the FIFO knee and then declines.
        let peak = pk
            .iter()
            .max_by(|a, b| a.total_per_sec.total_cmp(&b.total_per_sec))
            .unwrap();
        assert!(
            (32..=40).contains(&peak.cores),
            "PK total peaks near 36: {}",
            peak.cores
        );
        assert!(pk.last().unwrap().hw_capped);
        // "Lack of work causes the server idle time to reach 18% at 48
        // cores." Our counterfactual uncapped throughput is optimistic
        // (the model's CPU side barely declines), so the band is wide.
        let idle = pk.last().unwrap().idle_fraction;
        assert!(
            (0.10..0.45).contains(&idle),
            "significant idle at 48: {idle}"
        );
        let total_at =
            |s: &[SweepPoint], n: usize| s.iter().find(|p| p.cores == n).unwrap().total_per_sec;
        assert!(
            total_at(&pk, 48) < total_at(&pk, 36),
            "past 36 the card drops requests"
        );
    }

    #[test]
    fn driver_serves_connections_locally_on_pk() {
        let d = ApacheDriver::new(Personality::Pk, 4);
        let mut flows = Vec::new();
        for i in 0..40 {
            flows.push(d.client_connect(0x0b00_0000 + i));
        }
        let mut local = 0;
        let mut total = 0;
        // Workers serve round-robin, as live Apache processes would —
        // each core drains its own backlog before stealing kicks in.
        loop {
            let mut progress = false;
            for core in 0..4 {
                if let Some(was_local) = d.serve_one(core) {
                    progress = true;
                    total += 1;
                    if was_local {
                        local += 1;
                    }
                }
            }
            if !progress {
                break;
            }
        }
        assert_eq!(total, 40);
        assert_eq!(d.served(), 40);
        assert!(
            local >= 30,
            "most connections served on their arrival core: {local}/40"
        );
    }

    #[test]
    fn empty_accept_polls_back_off_deterministically() {
        let d = ApacheDriver::new(Personality::Pk, 2);
        // No connections queued: every poll backs off, exponentially.
        for _ in 0..4 {
            assert!(d.serve_one(0).is_none());
        }
        assert_eq!(d.accept_backoffs(), 4);
        let first = d.accept_backoff_cycles();
        assert!(first > 0);
        // Work resets the backoff ladder.
        d.client_connect(0x0d00_0001);
        assert!(d.serve_one(0).is_some());
        assert!(d.serve_one(0).is_none());
        assert_eq!(d.accept_backoffs(), 5);
        // A fresh driver replays the identical backoff schedule (jitter
        // derives from the fault seed, not wall-clock state).
        let d2 = ApacheDriver::new(Personality::Pk, 2);
        for _ in 0..4 {
            assert!(d2.serve_one(0).is_none());
        }
        assert_eq!(d2.accept_backoff_cycles(), first);
    }

    #[test]
    fn driver_stock_serializes_on_shared_backlog() {
        let d = ApacheDriver::new(Personality::Stock, 4);
        for i in 0..8 {
            d.client_connect(0x0c00_0000 + i);
        }
        for core in 0..4 {
            while d.serve_one(core).is_some() {}
        }
        let stats = d.kernel().net().stats();
        assert_eq!(stats.accept_shared_queue.load(Ordering::Relaxed), 8);
        assert_eq!(stats.accept_local_queue.load(Ordering::Relaxed), 0);
    }
}
