//! `kernel_apps`: the three functional drivers on the real `pk-kernel`,
//! stock and PK.
//!
//! Each kernel boots with 4 cores and is driven by one thread that
//! issues ops round-robin over the core ids (the way `pk-bench::chaos`
//! drives them), so per-core structures are exercised and every counter
//! is deterministic. The simulator does nothing here; `vfs`, `net`,
//! `proc` and `kernel` do everything. Exim is namespace *writes*
//! (create + unlink per message), Apache is namespace *reads*
//! (stat/open/read_cached hits), memcached is `net` only — so a dcache
//! or page-cache change that helps lookups and hurts create/unlink
//! shows as one cell up and another down.
//!
//! The light path is the geometric mean of the memcached and Apache
//! cells, the heavy path that of the Exim cells (ops per second).

use crate::harness::{median, quantile, Ledger, Recorder, Rng};
use crate::{Rep, Side, Slice, Stats, Workload};
use bytes::Bytes;
use pk_kernel::Kernel;
use pk_net::{FlowHash, Protocol, SockAddr, UdpSocket};
use pk_percpu::CoreId;
use pk_proc::Pid;
use pk_workloads::apache::{ApacheDriver, FILE_BYTES, FILE_PATH};
use pk_workloads::exim::{EximDriver, MSGS_PER_CONNECTION, MSG_BYTES, SPOOL_DIRS};
use pk_workloads::memcached::{MemcachedDriver, BASE_PORT, BATCH, REQUEST_BYTES, RESPONSE_BYTES};
use pk_workloads::KernelChoice;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const KERNELS: [(KernelChoice, &str); 2] =
    [(KernelChoice::Stock, "stock"), (KernelChoice::Pk, "pk")];
const CORES: usize = 4;
/// Distinct mailbox owners, memcached clients and Apache client hosts.
const USERS: usize = 16;
const CLIENTS: u64 = 512;
const HOSTS: u64 = 1 << 16;

/// Work per cell and rep, sized so each of the six cells takes about
/// the same time: Exim messages, memcached rounds of `BATCH` requests,
/// Apache requests.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    exim_msgs: usize,
    memcached_rounds: usize,
    apache_reqs: usize,
    /// The layer probes replay a slice of each script, one span per
    /// call, so they are kept small.
    replay_msgs: usize,
    replay_rounds: usize,
    replay_reqs: usize,
}

const FULL: Sizes = Sizes {
    exim_msgs: 50,
    memcached_rounds: 1_000,
    apache_reqs: 10_000,
    replay_msgs: 30,
    replay_rounds: 100,
    replay_reqs: 500,
};
/// The warm-up slice of a set-up: a tenth to a fifth of a rep.
const WARM: Sizes = Sizes {
    exim_msgs: 10,
    memcached_rounds: 100,
    apache_reqs: 1_000,
    ..FULL
};
const SMOKE: Sizes = Sizes {
    exim_msgs: 10,
    memcached_rounds: 20,
    apache_reqs: 200,
    replay_msgs: 10,
    replay_rounds: 10,
    replay_reqs: 50,
};

/// The VfsStats counters the ratios are made of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct VfsCounts {
    lockfree: u64,
    locked: u64,
    mount_percore: u64,
    mount_central: u64,
    shared: u64,
}

impl VfsCounts {
    fn of(k: &Kernel) -> Self {
        let s = k.vfs().stats();
        Self {
            lockfree: s.lockfree_lookups.load(Ordering::Relaxed),
            locked: s.dentry_lock_acquisitions.load(Ordering::Relaxed),
            mount_percore: s.mount_percore_hits.load(Ordering::Relaxed),
            mount_central: s.mount_central_lookups.load(Ordering::Relaxed),
            shared: s.shared_events(),
        }
    }

    fn add_delta(&mut self, before: Self, after: Self) {
        self.lockfree += after.lockfree - before.lockfree;
        self.locked += after.locked - before.locked;
        self.mount_percore += after.mount_percore - before.mount_percore;
        self.mount_central += after.mount_central - before.mount_central;
        self.shared += after.shared - before.shared;
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Records the microseconds since `last` as one op's time, if per-op
/// times are wanted, and starts the next op's.
fn lap(op_us: &mut Option<&mut Vec<f64>>, last: &mut Instant) {
    if let Some(v) = op_us.as_deref_mut() {
        let now = Instant::now();
        v.push((now - *last).as_secs_f64() * 1e6);
        *last = now;
    }
}

/// Delivers one message per entry of `users` on handlers re-forked
/// every `MSGS_PER_CONNECTION`, connection `j` on
/// `cores[j % cores.len()]`. Returns the calls that failed.
fn exim_ops(
    d: &EximDriver,
    users: &[usize],
    cores: &[usize],
    mut op_us: Option<&mut Vec<f64>>,
) -> u64 {
    let mut failed = 0;
    for (j, chunk) in users.chunks(MSGS_PER_CONNECTION).enumerate() {
        let core = CoreId(cores[j % cores.len()]);
        let Ok(conn) = d.kernel().fork(Pid(1), core) else {
            failed += chunk.len() as u64;
            continue;
        };
        let mut last = Instant::now();
        for (m, &user) in chunk.iter().enumerate() {
            failed += u64::from(d.deliver_message(core, conn, m as u64, user).is_err());
            lap(&mut op_us, &mut last);
        }
        failed += u64::from(d.kernel().exit(conn, core).is_err());
    }
    failed
}

/// One client batch and one server poll per entry of `clients`, round
/// `j` on `cores[j % cores.len()]`. Returns the requests refused.
fn memcached_ops(
    d: &MemcachedDriver,
    clients: &[u32],
    cores: &[usize],
    mut op_us: Option<&mut Vec<f64>>,
) -> u64 {
    let mut refused = 0;
    let mut last = Instant::now();
    for (j, &client) in clients.iter().enumerate() {
        let core = cores[j % cores.len()];
        refused += (BATCH - d.client_batch(client, core)) as u64;
        d.server_poll(core);
        lap(&mut op_us, &mut last);
    }
    refused
}

/// One client connect and one `serve_one` per entry of `hosts`,
/// request `j` served on `cores[j % cores.len()]`. Returns the
/// handshakes refused.
fn apache_ops(
    d: &ApacheDriver,
    hosts: &[u32],
    cores: &[usize],
    mut op_us: Option<&mut Vec<f64>>,
) -> u64 {
    let mut refused = 0;
    let mut last = Instant::now();
    for (j, &host) in hosts.iter().enumerate() {
        refused += u64::from(d.try_client_connect(0x0e00_0000 + host).is_err());
        // With two driving threads a worker can find its connection
        // already taken by the other; the cell drains what is left.
        let _ = d.serve_one(cores[j % cores.len()]);
        lap(&mut op_us, &mut last);
    }
    refused
}

/// Who drives a cell.
enum Driving<'a> {
    /// One thread over all cores; per-op times go to the vector, if any.
    OneThread(Option<&'a mut Vec<f64>>),
    /// Two threads, thread `t` taking half the inputs and cores `t` and
    /// `t + 2`.
    TwoThreads,
}

/// Runs `ops` over `inputs` as `driving` says.
fn drive<T: Sync>(
    inputs: &[T],
    driving: Driving<'_>,
    ops: impl Fn(&[T], &[usize], Option<&mut Vec<f64>>) -> u64 + Sync,
) -> u64 {
    if let Driving::OneThread(op_us) = driving {
        return ops(inputs, &ALL_CORES, op_us);
    }
    let (a, b) = inputs.split_at(inputs.len() / 2);
    std::thread::scope(|s| {
        let ops = &ops;
        let handles = [
            s.spawn(move || ops(a, &[0, 2], None)),
            s.spawn(move || ops(b, &[1, 3], None)),
        ];
        handles
            .into_iter()
            .map(|h| h.join().expect("a driving thread panicked"))
            .sum()
    })
}

/// The names of one kernel's layer probes.
struct ProbeNames {
    fork_exit: String,
    exec: String,
    write_file: String,
    unlink: String,
    open_close: String,
    append: String,
    stat: String,
    read_cached: String,
    udp_send: String,
    process_rx: String,
    recv_release: String,
    incoming_connection: String,
    accept: String,
    nic_tx: String,
}

impl ProbeNames {
    fn new(k: &str) -> Self {
        Self {
            fork_exit: format!("kernel.{k}.fork_exit"),
            exec: format!("proc.{k}.exec"),
            write_file: format!("vfs.{k}.write_file"),
            unlink: format!("vfs.{k}.unlink"),
            open_close: format!("vfs.{k}.open_close"),
            append: format!("vfs.{k}.append"),
            stat: format!("vfs.{k}.stat"),
            read_cached: format!("vfs.{k}.read_cached"),
            udp_send: format!("net.{k}.udp_send"),
            process_rx: format!("net.{k}.process_rx"),
            recv_release: format!("net.{k}.recv_release"),
            incoming_connection: format!("net.{k}.incoming_connection"),
            accept: format!("net.{k}.accept"),
            nic_tx: format!("net.{k}.nic_tx"),
        }
    }
}

/// Probe time and call counts by span name, plus the time charged
/// since the last `take_total` (one app's share, for the coverage).
struct ProbeAcc {
    by_name: BTreeMap<String, (f64, f64)>,
    total_s: f64,
    failed: u64,
    /// What an empty span measures: the clock read between a span's two
    /// timestamps. At seven spans per 2 µs Apache request it is a
    /// twelfth of the sum, so every span is charged net of it.
    clock_s: f64,
}

impl ProbeAcc {
    fn new() -> Self {
        let clock_s = (0..64)
            .map(|_| {
                let start = Instant::now();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        Self {
            by_name: BTreeMap::new(),
            total_s: 0.0,
            failed: 0,
            clock_s,
        }
    }

    /// Times `f` as one span of `calls` calls, charged as `weight`
    /// units of the probe (a fork is half a fork+exit pair).
    fn call<T>(
        &mut self,
        rec: &Recorder,
        name: &str,
        calls: u64,
        weight: f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, s) = rec.time(name, calls, f);
        self.charge(name, s, weight);
        out
    }

    /// Charges one span's `secs` as `weight` units of probe `name`.
    fn charge(&mut self, name: &str, secs: f64, weight: f64) {
        let secs = (secs - self.clock_s).max(0.0);
        let e = self.by_name.entry(name.to_string()).or_default();
        e.0 += secs;
        e.1 += weight;
        self.total_s += secs;
    }

    fn take_total(&mut self) -> f64 {
        std::mem::take(&mut self.total_s)
    }
}

/// One kernel set up for all three replays.
struct ReplayKernel {
    kernel: Kernel,
    sockets: Vec<Arc<UdpSocket>>,
    names: ProbeNames,
    next_port: u64,
}

impl ReplayKernel {
    /// Lays the kernel out exactly as the three drivers lay out theirs.
    fn boot(choice: KernelChoice, k: &str) -> Self {
        let kernel = Kernel::new(choice.config(CORES));
        let core = CoreId(0);
        let vfs = kernel.vfs();
        for d in 0..SPOOL_DIRS {
            vfs.mkdir_p(&format!("/var/spool/input/{d}"), core)
                .expect("spool layout");
        }
        vfs.mkdir_p("/var/mail", core).expect("mail directory");
        vfs.mkdir_p("/var/log", core).expect("log directory");
        vfs.write_file("/var/log/exim", b"", core)
            .expect("log file");
        for u in 0..USERS {
            vfs.write_file(&format!("/var/mail/user{u}"), b"", core)
                .expect("mailbox");
        }
        vfs.mkdir_p("/htdocs", core).expect("docroot");
        vfs.write_file(FILE_PATH, &vec![b'w'; FILE_BYTES], core)
            .expect("static file");
        kernel.net().listen(80);
        let sockets = (0..CORES)
            .map(|c| {
                kernel
                    .net()
                    .udp_bind(BASE_PORT + c as u16, CoreId(c))
                    .expect("port free")
            })
            .collect();
        Self {
            kernel,
            sockets,
            names: ProbeNames::new(k),
            next_port: 1024,
        }
    }

    /// `EximDriver::deliver_message` and its handler fork, as direct
    /// calls. Returns ops replayed.
    fn exim(&self, rec: &Recorder, acc: &mut ProbeAcc, users: &[usize]) -> u64 {
        let k = &self.kernel;
        let n = &self.names;
        let body = [b'x'; MSG_BYTES];
        for (j, chunk) in users.chunks(MSGS_PER_CONNECTION).enumerate() {
            let core = CoreId(j % CORES);
            let Ok(conn) = acc.call(rec, &n.fork_exit, 1, 0.5, || k.fork(Pid(1), core)) else {
                acc.failed += 1;
                continue;
            };
            for (m, &user) in chunk.iter().enumerate() {
                let d1 = acc.call(rec, &n.fork_exit, 1, 0.5, || k.fork(conn, core));
                let d2 = acc.call(rec, &n.fork_exit, 1, 0.5, || k.fork(conn, core));
                let (Ok(d1), Ok(d2)) = (d1, d2) else {
                    acc.failed += 1;
                    continue;
                };
                let dir = (conn.0 as usize).wrapping_add(m) % SPOOL_DIRS;
                let spool = format!("/var/spool/input/{dir}/msg-{}-{m}", conn.0);
                let mbox = format!("/var/mail/user{user}");
                let log_line = format!("delivered {m}\n");
                let vfs = k.vfs();
                let mut ok = acc
                    .call(rec, &n.write_file, 1, 1.0, || {
                        vfs.write_file(&spool, &body, core)
                    })
                    .is_ok();
                ok &= self.append_to(rec, acc, &mbox, &body, core);
                ok &= acc
                    .call(rec, &n.unlink, 1, 1.0, || vfs.unlink(&spool, core))
                    .is_ok();
                ok &= self.append_to(rec, acc, "/var/log/exim", log_line.as_bytes(), core);
                ok &= acc
                    .call(rec, &n.fork_exit, 1, 0.5, || k.exit(d1, core))
                    .is_ok();
                ok &= acc
                    .call(rec, &n.fork_exit, 1, 0.5, || k.exit(d2, core))
                    .is_ok();
                acc.failed += u64::from(!ok);
            }
            let exited = acc.call(rec, &n.fork_exit, 1, 0.5, || k.exit(conn, core));
            acc.failed += u64::from(exited.is_err());
        }
        users.len() as u64
    }

    /// Open, append, close. Returns whether all three worked.
    fn append_to(
        &self,
        rec: &Recorder,
        acc: &mut ProbeAcc,
        path: &str,
        data: &[u8],
        core: CoreId,
    ) -> bool {
        let (vfs, n) = (self.kernel.vfs(), &self.names);
        let Ok(f) = acc.call(rec, &n.open_close, 1, 0.5, || vfs.open(path, core)) else {
            return false;
        };
        let appended = acc.call(rec, &n.append, 1, 1.0, || f.append(data)).is_ok();
        acc.call(rec, &n.open_close, 1, 0.5, || vfs.close(&f, core));
        appended
    }

    /// `client_batch` + `server_poll`, as direct calls, one span per
    /// run of same calls. Returns requests replayed.
    fn memcached(&self, rec: &Recorder, acc: &mut ProbeAcc, clients: &[u32]) -> u64 {
        let net = self.kernel.net();
        let n = &self.names;
        for (j, &client) in clients.iter().enumerate() {
            let c = j % CORES;
            let core = CoreId(c);
            let from = SockAddr::new(0x0a01_0000 + client, 7000 + (client % 100) as u16);
            let to = SockAddr::new(0x0a00_0001, BASE_PORT + c as u16);
            let requests: Vec<Bytes> = (0..BATCH)
                .map(|_| Bytes::from(vec![b'q'; REQUEST_BYTES]))
                .collect();
            let refused = acc.call(rec, &n.udp_send, BATCH as u64, BATCH as f64, || {
                requests
                    .into_iter()
                    .filter(|body| net.udp_send(core, from, to, body.clone()).is_err())
                    .count()
            });
            // One call, charged per packet it processed.
            let (polled, s) = rec.time(&n.process_rx, 1, || net.process_rx(core, usize::MAX));
            acc.charge(&n.process_rx, s, polled as f64);
            let sock = &self.sockets[c];
            let reply_to = acc.call(rec, &n.recv_release, polled as u64, polled as f64, || {
                let mut reply_to = Vec::with_capacity(BATCH);
                while let Some(dgram) = sock.recv() {
                    reply_to.push(SockAddr::new(dgram.from.src_ip, dgram.from.src_port));
                    net.release(core, dgram.skb);
                }
                reply_to
            });
            let replies: Vec<Bytes> = reply_to
                .iter()
                .map(|_| Bytes::from(vec![b'r'; RESPONSE_BYTES]))
                .collect();
            let server = SockAddr::new(0x0a00_0001, sock.port);
            let served = reply_to.len();
            let lost = acc.call(rec, &n.udp_send, served as u64, served as f64, || {
                reply_to
                    .iter()
                    .zip(replies)
                    .filter(|(to, body)| net.udp_send(core, server, **to, body.clone()).is_err())
                    .count()
            });
            acc.failed += (refused + lost + (BATCH - served)) as u64;
        }
        (clients.len() * BATCH) as u64
    }

    /// `client_connect` + `serve_one`, as direct calls. Returns
    /// requests replayed.
    fn apache(&mut self, rec: &Recorder, acc: &mut ProbeAcc, hosts: &[u32]) -> u64 {
        let k = &self.kernel;
        let n = &self.names;
        for (j, &host) in hosts.iter().enumerate() {
            let core = CoreId(j % CORES);
            let flow = FlowHash {
                src_ip: 0x0e00_0000 + host,
                src_port: (1024 + (self.next_port % 60_000)) as u16,
                dst_ip: 0x0a00_0001,
                dst_port: 80,
            };
            self.next_port += 1;
            let queued = acc.call(rec, &n.incoming_connection, 1, 1.0, || {
                k.net().incoming_connection(80, flow)
            });
            let conn = acc.call(rec, &n.accept, 1, 1.0, || k.net().accept(80, core));
            let (true, Some(conn)) = (queued, conn) else {
                acc.failed += 1;
                continue;
            };
            let vfs = k.vfs();
            let mut ok = acc
                .call(rec, &n.stat, 1, 1.0, || vfs.stat(FILE_PATH, core))
                .is_ok();
            match acc.call(rec, &n.open_close, 1, 0.5, || vfs.open(FILE_PATH, core)) {
                Ok(f) => {
                    ok &= acc
                        .call(rec, &n.read_cached, 1, 1.0, || {
                            vfs.read_cached(FILE_PATH, core)
                        })
                        .is_ok();
                    acc.call(rec, &n.open_close, 1, 0.5, || vfs.close(&f, core));
                }
                Err(_) => ok = false,
            }
            acc.call(rec, &n.nic_tx, 1, 1.0, || k.net().nic().tx(core, conn.flow));
            acc.failed += u64::from(!ok);
        }
        hosts.len() as u64
    }

    /// Stock Exim's per-message `exec`, which the driver's default
    /// configuration avoids; probed on its own, outside the coverage.
    fn exec(&self, rec: &Recorder, acc: &mut ProbeAcc, count: usize) {
        let k = &self.kernel;
        let core = CoreId(0);
        for _ in 0..count {
            let Ok(pid) = k.fork(Pid(1), core) else {
                acc.failed += 1;
                continue;
            };
            let ran = acc.call(rec, &self.names.exec, 1, 1.0, || k.procs().exec(pid));
            acc.failed += u64::from(ran.is_err()) + u64::from(k.exit(pid, core).is_err());
        }
        acc.take_total();
    }
}

const ALL_CORES: [usize; CORES] = [0, 1, 2, 3];
/// Traced reps whose probes include the script replays.
const PROBE_PASSES: usize = 8;
const APPS: [&str; 3] = ["exim", "memcached", "apache"];

pub struct KernelApps {
    sizes: Sizes,
    users: Vec<usize>,
    clients: Vec<u32>,
    hosts: Vec<u32>,
    exim: Vec<EximDriver>,
    memcached: Vec<MemcachedDriver>,
    apache: Vec<ApacheDriver>,
    replay: Vec<ReplayKernel>,
    /// Per-op samples of the traced reps, by cell.
    op_us: BTreeMap<String, Vec<f64>>,
    /// By cell: the drivers' seconds per op in the last rep, and for
    /// each probe pass the replay's probe seconds per op over that.
    driver_s_per_op: BTreeMap<String, f64>,
    coverage: BTreeMap<String, Vec<f64>>,
    probe_passes: usize,
    /// VfsStats deltas of the first full-size rep, by kernel. Later reps
    /// differ by a few chain comparisons: handler pids advance, so the
    /// spool paths hash to other buckets.
    vfs_first: Option<[VfsCounts; 2]>,
}

impl KernelApps {
    fn kernel_of(&self, app: &str, k: usize) -> &Kernel {
        match app {
            "exim" => self.exim[k].kernel(),
            "memcached" => self.memcached[k].kernel(),
            _ => self.apache[k].kernel(),
        }
    }

    /// Drives one (app, kernel) cell and checks its accounting
    /// identity. Returns (seconds, ops, failed).
    fn cell(
        &self,
        app: &str,
        k: usize,
        sizes: Sizes,
        driving: Driving<'_>,
        rec: &Recorder,
        span: &str,
    ) -> (f64, u64, u64) {
        match app {
            "exim" => {
                let d = &self.exim[k];
                let users = &self.users[..sizes.exim_msgs];
                let before = d.delivered();
                let (bad, secs) = rec.time(span, users.len() as u64, || {
                    drive(users, driving, |u, c, v| exim_ops(d, u, c, v))
                });
                let ops = users.len() as u64;
                (secs, ops, bad + ops.abs_diff(d.delivered() - before))
            }
            "memcached" => {
                let d = &self.memcached[k];
                let clients = &self.clients[..sizes.memcached_rounds];
                let before = d.served();
                let ops = (clients.len() * BATCH) as u64;
                let (bad, secs) = rec.time(span, ops, || {
                    let bad = drive(clients, driving, |cl, c, v| memcached_ops(d, cl, c, v));
                    d.drain_all();
                    bad
                });
                (secs, ops, bad + ops.abs_diff(d.served() - before))
            }
            _ => {
                let d = &self.apache[k];
                let hosts = &self.hosts[..sizes.apache_reqs];
                let before = d.served();
                let ops = hosts.len() as u64;
                let (bad, secs) = rec.time(span, ops, || {
                    let bad = drive(hosts, driving, |h, c, v| apache_ops(d, h, c, v));
                    while d.served() - before < ops
                        && ALL_CORES.iter().any(|&c| d.serve_one(c).is_some())
                    {}
                    bad
                });
                (secs, ops, bad + ops.abs_diff(d.served() - before))
            }
        }
    }

    fn pass(&mut self, sizes: Sizes, rec: &Recorder, ledger: &mut Ledger) -> Rep {
        let per_op = rec.enabled();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut slices = Vec::with_capacity(6);
        let mut vfs_now = [VfsCounts::default(); 2];
        let mut ops_by_kernel = [0u64; 2];
        let mut cells = Vec::with_capacity(6);
        let (_, wall_s) = rec.time("kernel_apps.rep", 1, || {
            for (k, (_, kernel)) in KERNELS.into_iter().enumerate() {
                for app in APPS {
                    let name = format!("workloads.{app}.{kernel}");
                    let mut samples = per_op.then(|| self.op_us.remove(&name).unwrap_or_default());
                    let before = VfsCounts::of(self.kernel_of(app, k));
                    let (secs, ops, bad) = self.cell(
                        app,
                        k,
                        sizes,
                        Driving::OneThread(samples.as_mut()),
                        rec,
                        &name,
                    );
                    vfs_now[k].add_delta(before, VfsCounts::of(self.kernel_of(app, k)));
                    if let Some(s) = samples {
                        self.op_us.insert(name.clone(), s);
                    }
                    attempted += ops;
                    failed += bad;
                    ops_by_kernel[k] += ops;
                    cells.push((name, app, secs, ops));
                }
            }
        });
        for (name, app, secs, ops) in cells {
            let rate = ops as f64 / secs;
            ledger.sample(&format!("{name}.ops_per_s"), rate);
            self.driver_s_per_op.insert(name, secs / ops as f64);
            slices.push(Slice {
                side: if app == "exim" {
                    Side::Heavy
                } else {
                    Side::Light
                },
                ops: ops as f64,
                secs,
            });
        }
        for (k, (_, kernel)) in KERNELS.into_iter().enumerate() {
            let v = vfs_now[k];
            ledger.sample(
                &format!("vfs.{kernel}.lockfree_lookup_ratio"),
                ratio(v.lockfree, v.lockfree + v.locked),
            );
            ledger.sample(
                &format!("vfs.{kernel}.mount_percore_hit_ratio"),
                ratio(v.mount_percore, v.mount_percore + v.mount_central),
            );
            ledger.sample(
                &format!("vfs.{kernel}.shared_events_per_op"),
                ratio(v.shared, ops_by_kernel[k]),
            );
        }
        if sizes.exim_msgs == self.sizes.exim_msgs && self.vfs_first.is_none() {
            self.vfs_first = Some(vfs_now);
        }
        Rep {
            wall_s,
            slices,
            attempted,
            failed,
        }
    }
}

impl Workload for KernelApps {
    const NAME: &'static str = "kernel_apps";

    fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { SMOKE } else { FULL };
        let mut rng = Rng::new(seed);
        let users = (0..sizes.exim_msgs)
            .map(|_| rng.below(USERS as u64) as usize)
            .collect();
        let clients = (0..sizes.memcached_rounds)
            .map(|_| rng.below(CLIENTS) as u32)
            .collect();
        let hosts = (0..sizes.apache_reqs)
            .map(|_| rng.below(HOSTS) as u32)
            .collect();
        let exim: Vec<EximDriver> = KERNELS
            .iter()
            .map(|(choice, _)| EximDriver::new(*choice, CORES).expect("boot exim"))
            .collect();
        // Mailboxes exist before the first message, so every rep takes
        // the open path and none the create path.
        for d in &exim {
            for u in 0..USERS {
                d.kernel()
                    .vfs()
                    .write_file(&format!("/var/mail/user{u}"), b"", CoreId(0))
                    .expect("mailbox");
            }
        }
        let mut w = Self {
            sizes,
            users,
            clients,
            hosts,
            exim,
            memcached: KERNELS
                .iter()
                .map(|(c, _)| MemcachedDriver::new(*c, CORES))
                .collect(),
            apache: KERNELS
                .iter()
                .map(|(c, _)| ApacheDriver::new(*c, CORES))
                .collect(),
            replay: KERNELS
                .iter()
                .map(|(c, k)| ReplayKernel::boot(*c, k))
                .collect(),
            op_us: BTreeMap::new(),
            driver_s_per_op: BTreeMap::new(),
            coverage: BTreeMap::new(),
            probe_passes: 0,
            vfs_first: None,
        };
        let warm = if smoke { SMOKE } else { WARM };
        w.pass(warm, &Recorder::new(false), &mut Ledger::default());
        w.vfs_first = None;
        w
    }

    fn rep(&mut self, rec: &Recorder, ledger: &mut Ledger) -> Rep {
        self.pass(self.sizes, rec, ledger)
    }

    /// Replays each app's script as direct calls on the layers, one
    /// span per call, then drives each cell from two threads.
    fn probes(&mut self, rec: &Recorder, ledger: &mut Ledger) -> (u64, u64) {
        let sizes = self.sizes;
        let (mut attempted, mut failed) = (0u64, 0u64);
        // One span per call adds up: the replays stop after a few passes.
        let replaying = self.probe_passes < PROBE_PASSES;
        self.probe_passes += 1;
        for (k, (_, kernel)) in KERNELS.into_iter().enumerate().filter(|_| replaying) {
            let mut acc = ProbeAcc::new();
            for app in APPS {
                let replay = &mut self.replay[k];
                let ops = match app {
                    "exim" => replay.exim(rec, &mut acc, &self.users[..sizes.replay_msgs]),
                    "memcached" => {
                        replay.memcached(rec, &mut acc, &self.clients[..sizes.replay_rounds])
                    }
                    _ => replay.apache(rec, &mut acc, &self.hosts[..sizes.replay_reqs]),
                };
                attempted += ops;
                let cell = format!("workloads.{app}.{kernel}");
                let probe_s_per_op = acc.take_total() / ops as f64;
                let covered = probe_s_per_op / self.driver_s_per_op[&cell];
                self.coverage.entry(cell).or_default().push(covered);
            }
            self.replay[k].exec(rec, &mut acc, sizes.replay_msgs);
            failed += acc.failed;
            for (name, (secs, weight)) in &acc.by_name {
                ledger.sample(&format!("{name}_ns"), secs * 1e9 / weight);
            }
        }

        for (k, (_, kernel)) in KERNELS.into_iter().enumerate() {
            for app in APPS {
                let name = format!("workloads.{app}.{kernel}.t2");
                let (secs, ops, bad) = self.cell(app, k, sizes, Driving::TwoThreads, rec, &name);
                ledger.sample(&format!("{name}_ops_per_s"), ops as f64 / secs);
                attempted += ops;
                failed += bad;
            }
        }
        (attempted, failed)
    }

    fn finish(&mut self, ledger: &mut Ledger) {
        for (cell, v) in &self.op_us {
            ledger.fix(&format!("{cell}.op_p99_us"), quantile(v, 0.99), v.len());
        }
        // Probe seconds per op over driver seconds per op, each pass
        // against the rep just before it (so the host's drift cancels),
        // median over passes, of the cell farthest from 1: inside
        // 0.85-1.15, every cell is.
        let worst = self
            .coverage
            .values()
            .map(|passes| median(passes))
            .max_by(|a, b| a.ln().abs().total_cmp(&b.ln().abs()))
            .expect("the traced run made its probes");
        ledger.fix(
            "bench.kernel_apps.probe_coverage",
            worst,
            self.probe_passes.min(PROBE_PASSES),
        );
        // One pass (another workload's traced run, a smoke run) is too
        // noisy to judge.
        if self.probe_passes >= PROBE_PASSES && !(0.85..=1.15).contains(&worst) {
            eprintln!(
                "kernel_apps: probe coverage {worst:.3} is outside 0.85-1.15: the replay \
                 scripts no longer decompose the drivers' ops"
            );
        }
    }

    fn verify(&mut self, stats: &mut Stats) -> (u64, u64) {
        let mut failed = 0;
        let mut checks = 0;
        let mut balanced = |what: &str, got: u64, want: u64| {
            checks += 1;
            if got != want {
                eprintln!("kernel_apps: {what} is {got}, want {want}");
                failed += 1;
            }
        };
        for (k, (_, kernel)) in KERNELS.into_iter().enumerate() {
            let kernels = [
                ("exim", self.exim[k].kernel()),
                ("memcached", self.memcached[k].kernel()),
                ("apache", self.apache[k].kernel()),
                ("replay", &self.replay[k].kernel),
            ];
            for (app, kern) in kernels {
                balanced(
                    &format!("{app}/{kernel} open files"),
                    kern.vfs().superblock().open_files() as u64,
                    0,
                );
                balanced(
                    &format!("{app}/{kernel} live processes"),
                    kern.procs().len() as u64,
                    1,
                );
                balanced(
                    &format!("{app}/{kernel} UDP memory"),
                    kern.net().proto().usage(Protocol::Udp).unsigned_abs(),
                    0,
                );
            }
            stats.insert(
                format!("exim.{kernel}.delivered_per_rep"),
                self.sizes.exim_msgs.to_string(),
            );
            stats.insert(
                format!("memcached.{kernel}.served_per_rep"),
                (self.sizes.memcached_rounds * BATCH).to_string(),
            );
            stats.insert(
                format!("apache.{kernel}.served_per_rep"),
                self.sizes.apache_reqs.to_string(),
            );
            let v = self.vfs_first.expect("at least one rep ran")[k];
            stats.insert(
                format!("vfs.{kernel}.lockfree_lookups_first_rep"),
                v.lockfree.to_string(),
            );
            stats.insert(
                format!("vfs.{kernel}.dentry_lock_acquisitions_first_rep"),
                v.locked.to_string(),
            );
            stats.insert(
                format!("vfs.{kernel}.mount_percore_hits_first_rep"),
                v.mount_percore.to_string(),
            );
            stats.insert(
                format!("vfs.{kernel}.mount_central_lookups_first_rep"),
                v.mount_central.to_string(),
            );
            stats.insert(
                format!("vfs.{kernel}.shared_events_first_rep"),
                v.shared.to_string(),
            );
        }
        (checks, failed)
    }
}
