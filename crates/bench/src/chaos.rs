//! Chaos soak harness: MOSBENCH drivers × kernel config × seeded fault
//! mix, plus the DES, adaptive-controller, open-loop overload,
//! exhausted-deadline and RCU overflow legs. Every leg yields [`Soak`]
//! rows: a cell, its printed counts, one named [`Check`] per invariant,
//! and the faulted run's injection trace.
//!
//! Each functional driver runs the same load fault-free (the baseline)
//! and with a [`FaultMix`] armed on a seeded [`FaultPlane`], on one
//! thread in a fixed order: the faulted run's ordered trace is a pure
//! function of the seed, so a failing soak replays from its seed alone.

use crate::adaptive::MAX_FLIPS;
use crate::personality::converge;
use pk_fault::{FaultEvent, FaultPlane, FaultSchedule};
use pk_kernel::{Kernel, Personality};
use pk_obs::{Cell, Table};
use pk_percpu::CoreId;
use pk_sim::des;
use pk_workloads::apache::ApacheDriver;
use pk_workloads::exim::EximDriver;
use pk_workloads::memcached::MemcachedDriver;
use pk_workloads::roster;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// SMTP connections per Exim soak (each delivers
/// [`pk_workloads::exim::MSGS_PER_CONNECTION`] messages).
const EXIM_CONNECTIONS: usize = 24;
/// Client batches per memcached soak (each sends
/// [`pk_workloads::memcached::BATCH`] requests).
const MEMCACHED_BATCHES: u32 = 24;
/// Connections per Apache soak.
const APACHE_CONNECTIONS: u32 = 120;
/// Pages each allocator-churn probe asks for: the workload's share of
/// process memory pressure, so `mm.alloc_enomem` has arrivals to hit
/// in every soak.
const CHURN_PAGES: u64 = 4;
/// Operations per core for the discrete-event-simulator chaos runs.
const DES_OPS_PER_CORE: u64 = 2_000;
/// Requests per open-loop overload chaos run.
const OVERLOAD_REQUESTS: u64 = 2_000;
/// Offered load for the overload rows, percent of PK capacity.
const OVERLOAD_LOAD_PCT: u32 = 200;
/// Requests driven through the exhausted-deadline row.
const DEADLINE_REQUESTS: u64 = 16;
/// VFS operations per RCU overflow soak.
const RCU_CHURN_OPS: usize = 600;

/// A named set of schedules to arm on the plane before a faulted run.
#[derive(Debug, Clone)]
pub struct FaultMix {
    /// Human-readable label for reports.
    pub label: &'static str,
    /// `(injection point, schedule)` pairs to arm.
    pub points: Vec<(&'static str, FaultSchedule)>,
}

impl FaultMix {
    /// The acceptance mix: 1% ENOMEM (page *and* dentry allocations)
    /// plus 1% NIC receive drop, the headline robustness bar — every
    /// workload must complete under it with bounded retries and zero
    /// panics.
    pub fn acceptance() -> Self {
        Self {
            label: "1% enomem (pages + dentries) + 1% rx-drop",
            points: vec![
                ("mm.alloc_enomem", FaultSchedule::Probability(0.01)),
                ("vfs.dentry_alloc", FaultSchedule::Probability(0.01)),
                ("net.rx_drop", FaultSchedule::Probability(0.01)),
            ],
        }
    }

    /// A harsher mix that also exercises fork failure, dentry
    /// allocation failure, and dcache pressure.
    pub fn heavy() -> Self {
        Self {
            label: "heavy (enomem, rx-drop, fork, dentry, dcache)",
            points: vec![
                ("mm.alloc_enomem", FaultSchedule::Probability(0.02)),
                ("net.rx_drop", FaultSchedule::Probability(0.02)),
                ("proc.fork_fail", FaultSchedule::Probability(0.02)),
                ("vfs.dentry_alloc", FaultSchedule::Probability(0.01)),
                ("vfs.dcache_pressure", FaultSchedule::Probability(0.01)),
            ],
        }
    }

    /// The DES and adaptive legs' scheduler faults: lock-holder
    /// preemption every 211th dispatch and a core stall every 389th.
    pub fn scheduler() -> Self {
        Self {
            label: "lock-holder preemption + core stalls",
            points: vec![
                ("sim.lock_holder_preempt", FaultSchedule::EveryNth(211)),
                ("sim.core_stall", FaultSchedule::EveryNth(389)),
            ],
        }
    }

    /// The overload leg's packet loss: 1% NIC receive drop.
    pub fn rx_drop() -> Self {
        Self {
            label: "1% net.rx_drop",
            points: vec![("net.rx_drop", FaultSchedule::Probability(0.01))],
        }
    }

    /// The RCU leg's forced spills: every 17th `call_rcu` takes the
    /// blocking overflow path.
    pub fn rcu_overflow() -> Self {
        Self {
            label: "rcu.defer_overflow every 17th call_rcu",
            points: vec![("rcu.defer_overflow", FaultSchedule::EveryNth(17))],
        }
    }

    /// Arms every schedule on `plane` and enables it. Call only after
    /// driver construction, so setup runs clean.
    pub fn arm(&self, plane: &FaultPlane) {
        for (name, schedule) in &self.points {
            plane.set(name, *schedule);
        }
        plane.enable();
    }
}

/// How one leg of the chaos matrix prints.
#[derive(Debug)]
pub struct Leg {
    /// The line above the leg's rows (`""` for none).
    pub title: &'static str,
    /// Whether a header line precedes the rows.
    pub header: bool,
    /// The row layout: one [`Table::col`] text spec per column, each
    /// running to its `}` and any non-space text right after it. A
    /// column shows what its header names: the row's `workload` or
    /// `config`, its `ok?` verdict, or the count of that name.
    pub layout: &'static str,
}

/// The functional drivers under a fault mix.
pub const FUNCTIONAL: Leg = Leg {
    title: "",
    header: true,
    layout: "{workload:>10} {config:>6} {baseline:>10} {faulted:>10} {degr%:>6.1}% \
             {retries:>8} {backoff_cyc:>12} {checked:>9} {injected:>9} {ok?:>6}",
};

/// The roster's models in the DES under scheduler faults.
pub const DES: Leg = Leg {
    title: "DES chaos (lock-holder preemption + core stalls), PK config:",
    header: true,
    layout: "{workload:>10} {base ops/cyc:>16.6} {faulted ops/cyc:>16.6} {degr%:>6.1}% \
             {injected:>9}",
};

/// The adaptive controller converging under scheduler faults.
pub const ADAPTIVE: Leg = Leg {
    title: "Adaptive-controller chaos (convergence under scheduler faults):",
    header: true,
    layout: "{workload:>10} {clean:>8} {faulted:>8} {epochs:>7} {flips:>6} {injected:>9} \
             {final ops/cyc:>16.6} {ok?:>6}",
};

/// The serving workloads under 2× arrivals and packet loss.
pub const OVERLOAD: Leg = Leg {
    title: "Open-loop overload (2x arrivals, shedding on, 1% net.rx_drop):",
    header: true,
    layout: "{workload:>10} {config:>6} {arrivals:>9} {completed:>9} {rx-drop:>8} {shed:>8} \
             {cancelled:>9} {p999:>12} {peak/cap:>9} {ok?:>6}",
};

/// One sentence: requests whose deadline runs out mid-retry.
pub const DEADLINE: Leg = Leg {
    title: "Exhausted-deadline row (budget spent mid-retry must surface Timeout):",
    header: false,
    layout: "  {requests} requests: {timeouts} timeouts, {admitted} admitted, \
             depth after {depth} — {ok?}",
};

/// Deferred reclamation under forced queue spills.
pub const RCU: Leg = Leg {
    title: "RCU deferred-reclamation soak (forced queue spills via rcu.defer_overflow):",
    header: true,
    layout: "{config:>10} {call_rcu:>9} {freed:>8} {pending:>9} {injected:>9} {spills:>8} \
             {ok?:>6}",
};

/// The check every leg carries: its fault mix injected something.
pub const FIRED: &str = "fault mix fired";

/// One named invariant of a soak row.
///
/// A failed check fails `report chaos` (exit 1) unless it is
/// `strict_only`; those fail it only under `--strict`. Exactly two are
/// strict-only: the functional and DES legs' [`FIRED`] checks. The
/// adaptive, overload and RCU legs' [`FIRED`] checks always gate. A
/// row's `ok?` verdict counts only the checks that always gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The invariant, e.g. `delivered + bounced == attempted`.
    pub name: &'static str,
    /// Whether the check gates only under `--strict`.
    pub strict_only: bool,
    /// What broke (the values, where the check has them; else empty),
    /// or `None` if the invariant held.
    pub failure: Option<String>,
}

/// One row of the chaos matrix.
#[derive(Debug, Clone)]
pub struct Soak {
    /// The leg the row belongs to.
    pub leg: &'static Leg,
    /// Workload name.
    pub workload: &'static str,
    /// Kernel config label (`Stock` / `PK`).
    pub config: &'static str,
    /// The printed counts, named by their column headers, in order.
    pub counts: Vec<(&'static str, Cell)>,
    /// The row's invariants.
    pub checks: Vec<Check>,
    /// The faulted run's ordered injection trace, for replay checks.
    pub trace: Vec<FaultEvent>,
}

impl Soak {
    /// An empty row of `leg` for `workload` on `config`.
    fn new(leg: &'static Leg, workload: &'static str, config: &'static str) -> Self {
        let (counts, checks, trace) = (Vec::new(), Vec::new(), Vec::new());
        Soak {
            leg,
            workload,
            config,
            counts,
            checks,
            trace,
        }
    }

    /// Appends the count `name`.
    fn with(mut self, name: &'static str, value: impl Into<Cell>) -> Self {
        self.counts.push((name, value.into()));
        self
    }

    /// Appends the always-gating check `name`: it `held`, or failed as
    /// `why` says.
    fn check(mut self, name: &'static str, held: bool, why: impl FnOnce() -> String) -> Self {
        let (strict_only, failure) = (false, (!held).then(why));
        self.checks.push(Check {
            name,
            strict_only,
            failure,
        });
        self
    }

    /// Appends the identity check `got == want`.
    fn eq<T: PartialEq + Display>(self, name: &'static str, got: T, want: T) -> Self {
        self.check(name, got == want, || format!("{got} != {want}"))
    }

    /// Appends the bound check `got <= cap`.
    fn le<T: PartialOrd + Display>(self, name: &'static str, got: T, cap: T) -> Self {
        self.check(name, got <= cap, || format!("{got} > {cap}"))
    }

    /// Appends the [`FIRED`] check: `mix` injected `injected` faults.
    fn fired(self, mix: &FaultMix, injected: u64, strict_only: bool) -> Self {
        let mut soak = self.check(FIRED, injected > 0, || format!("{} never fired", mix.label));
        soak.checks.last_mut().expect("just appended").strict_only = strict_only;
        soak
    }

    /// Records `plane`'s injection trace.
    fn traced(mut self, plane: &FaultPlane) -> Self {
        self.trace = plane.trace();
        self
    }

    /// The count `name` (panics if the row has none).
    pub fn count(&self, name: &str) -> &Cell {
        let found = self.counts.iter().find(|(n, _)| *n == name);
        &found.unwrap_or_else(|| panic!("no count {name:?}")).1
    }

    /// The numeric count `name`, as a float.
    pub fn num(&self, name: &str) -> f64 {
        match self.count(name) {
            Cell::Int(v) => *v as f64,
            Cell::Float(v) => *v,
            other => panic!("count {name:?} is not a number: {other:?}"),
        }
    }

    /// The `ok?` verdict: every always-gating check held.
    pub fn passed(&self) -> bool {
        let held = |c: &Check| c.strict_only || c.failure.is_none();
        self.checks.iter().all(held)
    }

    /// The checks that fail the run, with or without `--strict`.
    pub fn failures(&self, strict: bool) -> impl Iterator<Item = &Check> {
        let gates = move |c: &&Check| c.failure.is_some() && (strict || !c.strict_only);
        self.checks.iter().filter(gates)
    }
}

/// `rows` as `leg` prints them: its title, header and rows, each row
/// followed by one violation line per check that fails the run. Returns
/// the text and whether any check failed the run.
pub fn render(leg: &Leg, rows: &[Soak], strict: bool) -> (String, bool) {
    let (mut table, mut rest) = (Table::new(), leg.layout);
    while let Some(close) = rest.find('}') {
        let end = rest[close..].find(' ').map_or(rest.len(), |n| close + n);
        let (spec, tail) = rest.split_at(end);
        let (_, named) = spec.split_once('{').expect("a named column");
        let head = named.split([':', '}']).next().unwrap_or_default();
        table = table.col(spec, "", move |s: &Soak| -> Cell {
            match head {
                "workload" => s.workload.into(),
                "config" => s.config.into(),
                "ok?" => (if s.passed() { "pass" } else { "FAIL" }).into(),
                name => s.count(name).clone(),
            }
        });
        rest = tail;
    }
    let mut out = String::new();
    if !leg.title.is_empty() {
        out += &format!("\n{}\n", leg.title);
    }
    if leg.header {
        out += &format!("{}\n", table.header());
    }
    let mut failed = false;
    for s in rows {
        out += &format!("{}\n", table.row(s));
        for c in s.failures(strict) {
            failed = true;
            let why = c.failure.as_deref().filter(|w| !w.is_empty());
            let why = why.map(|w| format!(": {w}")).unwrap_or_default();
            out += &format!("{:>10}   violation: {}{why}\n", "", c.name);
        }
    }
    (out, failed)
}

/// Throughput lost from `base` to `faulted`, percent of `base`.
fn degradation(base: f64, faulted: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    100.0 * (1.0 - faulted / base)
}

/// Probes the allocator with a small allocation the workload would shed
/// under memory pressure.
fn churn(kernel: &Kernel, core: usize) {
    if let Ok(node) = kernel.allocator().alloc_local(core, CHURN_PAGES) {
        kernel.allocator().free_on(node, CHURN_PAGES);
    }
}

/// Soaks one functional driver into `row`, its cell: the same load
/// fault-free (the baseline) and then with `mix` armed on a plane seeded
/// `seed`. `boot` builds the driver on a plane, `work` drives the load
/// and returns its tally, and `ops` reads the operations a run
/// completed. `judge` appends the faulted run's `retries` and
/// `backoff_cyc` counts and its invariants, given its driver and tally
/// (`None` if the work panicked).
fn run<D>(
    row: Soak,
    seed: u64,
    mix: &FaultMix,
    boot: impl Fn(Arc<FaultPlane>) -> D,
    work: impl Fn(&D) -> u64,
    ops: impl Fn(&D) -> u64,
    judge: impl Fn(&D, Option<u64>, Soak) -> Soak,
) -> Soak {
    let baseline = {
        let d = boot(Arc::new(FaultPlane::disabled()));
        work(&d);
        ops(&d)
    };
    let plane = Arc::new(FaultPlane::with_seed(seed));
    let d = boot(Arc::clone(&plane));
    mix.arm(&plane);
    let tally = catch_unwind(AssertUnwindSafe(|| work(&d))).ok();
    plane.disable();
    let faulted = ops(&d);
    let row = row
        .with("baseline", baseline)
        .with("faulted", faulted)
        .with("degr%", degradation(baseline as f64, faulted as f64))
        .check("no panic", tally.is_some(), String::new);
    // Count only the points the mix armed: arrivals at Never-scheduled
    // points would inflate `checked` and make an inert mix look busy.
    let stats = plane.stats();
    let armed = || (stats.iter()).filter(|p| mix.points.iter().any(|(n, _)| *n == p.name));
    let injected = armed().map(|p| p.injected).sum();
    judge(&d, tally, row)
        .with("checked", armed().map(|p| p.checked).sum::<u64>())
        .with("injected", injected)
        .fired(mix, injected, true)
        .traced(&plane)
}

/// Runs one workload's soak by name. Returns `None` for names without
/// a functional driver (the DES sweep covers the rest of the roster).
pub fn run_workload(
    name: &str,
    choice: Personality,
    cores: usize,
    seed: u64,
    mix: &FaultMix,
) -> Option<Soak> {
    let cell = |workload| Soak::new(&FUNCTIONAL, workload, choice.legend());
    let open_files = |k: &Kernel| k.vfs().superblock().open_files();
    Some(match name.to_ascii_lowercase().as_str() {
        // Ops: messages delivered. Tally: connections aborted on
        // permanent errors.
        "exim" => run(
            cell("exim"),
            seed,
            mix,
            |p| EximDriver::with_faults(choice, cores, p).expect("boot exim (plane not yet armed)"),
            |d| {
                let mut aborted = 0;
                for conn in 0..EXIM_CONNECTIONS {
                    churn(d.kernel(), conn % cores);
                    aborted += u64::from(d.run_connection(CoreId(conn % cores), conn).is_err());
                }
                aborted
            },
            EximDriver::delivered,
            |d, aborted, row| {
                let (sum, attempted) = (d.delivered() + d.bounced(), d.attempted());
                row.with("retries", d.tempfails())
                    .with("backoff_cyc", d.retry_backoff_cycles())
                    .eq("aborted connections == 0", aborted.unwrap_or(0), 0)
                    .eq("delivered + bounced == attempted", sum, attempted)
                    .eq("live processes == 1 (init)", d.kernel().procs().len(), 1)
                    .eq("open files == 0", open_files(d.kernel()), 0)
            },
        ),
        // Ops: requests served. Tally: requests the NIC accepted.
        "memcached" => run(
            cell("memcached"),
            seed,
            mix,
            |p| MemcachedDriver::with_faults(choice, cores, p),
            |d| {
                let mut sent = 0;
                for round in 0..MEMCACHED_BATCHES {
                    let core = round as usize % cores;
                    churn(d.kernel(), core);
                    sent += d.client_batch(round, core) as u64;
                }
                d.drain_all();
                sent
            },
            MemcachedDriver::served,
            |d, sent, row| {
                let served = d.served();
                let usage = d.kernel().net().proto().usage(pk_net::Protocol::Udp);
                row.with("retries", d.client_retries())
                    .with("backoff_cyc", 0u64)
                    .eq("served == accepted", served, sent.unwrap_or(served))
                    .eq("UDP memory charged == 0", usage, 0)
            },
        ),
        // Ops: requests served. Tally: connections accepted.
        "apache" => run(
            cell("apache"),
            seed,
            mix,
            |p| ApacheDriver::with_faults(choice, cores, p),
            |d| {
                for i in 0..APACHE_CONNECTIONS {
                    d.client_connect(0x0e00_0000 + i);
                }
                let mut accepted = 0;
                loop {
                    let mut progress = false;
                    for core in 0..cores {
                        churn(d.kernel(), core);
                        if d.serve_one(core).is_some() {
                            progress = true;
                            accepted += 1;
                        }
                    }
                    if !progress {
                        return accepted;
                    }
                }
            },
            ApacheDriver::served,
            |d, accepted, row| {
                let (all, done) = (APACHE_CONNECTIONS.into(), d.served() + d.failed_requests());
                row.with("retries", d.request_tempfails())
                    .with("backoff_cyc", d.accept_backoff_cycles())
                    .eq("accepted == connected", accepted.unwrap_or(all), all)
                    .eq(
                        "served + failed == accepted",
                        done,
                        accepted.unwrap_or(done),
                    )
                    .eq("open files == 0", open_files(d.kernel()), 0)
            },
        ),
        _ => return None,
    })
}

/// Soaks every named workload under both kernel configs with the
/// acceptance mix. The report order (and each report's trace) is a pure
/// function of `(seed, workloads, cores)`.
pub fn soak(seed: u64, workloads: &[&str], cores: usize) -> Vec<Soak> {
    let mix = FaultMix::acceptance();
    let both = [Personality::Stock, Personality::Pk];
    let cells = workloads
        .iter()
        .flat_map(|&name| both.map(|choice| (name, choice)));
    let soak = |(name, choice)| run_workload(name, choice, cores, seed, &mix);
    cells.filter_map(soak).collect()
}

/// Simulates every roster model with and without
/// [`FaultMix::scheduler`]: the DES leg of the chaos matrix.
pub fn des_chaos(choice: Personality, cores: usize, seed: u64) -> Vec<Soak> {
    let mix = FaultMix::scheduler();
    roster::NAMES
        .iter()
        .filter_map(|&name| {
            let net = roster::model(name, choice)?.network(cores);
            let base = des::simulate(&net, cores, DES_OPS_PER_CORE, seed).ops_per_cycle;
            let plane = FaultPlane::with_seed(seed);
            mix.arm(&plane);
            let faulted = des::simulate_with_faults(&net, cores, DES_OPS_PER_CORE, seed, &plane);
            let (faulted, injected) = (faulted.ops_per_cycle, plane.injected_total());
            let row = Soak::new(&DES, name, choice.legend())
                .with("base ops/cyc", base)
                .with("faulted ops/cyc", faulted)
                .with("degr%", degradation(base, faulted))
                .with("injected", injected);
            Some(row.fired(&mix, injected, true).traced(&plane))
        })
        .collect()
}

/// Converges the adaptive controller for every roster workload with
/// [`FaultMix::scheduler`] perturbing each measurement epoch (the
/// controller leg). It must still settle, change no knob's direction
/// more than [`MAX_FLIPS`] times, see faults fire, and land on a config
/// with 90% of the fault-free throughput of [`converge`]'s clean one.
/// Deterministic per `(cores, seed)`.
pub fn adaptive_chaos(cores: usize, seed: u64) -> Vec<Soak> {
    use pk_adapt::{AdaptController, AdaptPolicy, Observation};
    use pk_kernel::KernelConfig;
    use pk_sim::MachineSpec;

    let machine = MachineSpec::paper();
    let mix = FaultMix::scheduler();
    let policy = AdaptPolicy::default();
    roster::NAMES
        .iter()
        .map(|&name| {
            let build = |cfg: &KernelConfig| {
                roster::model_with_config(name, cfg, machine)
                    .expect("roster name resolves")
                    .network(cores)
            };
            let (clean_model, clean) =
                converge(name, cores, machine, seed).expect("roster name resolves");
            let mut injected = 0u64;
            let out = AdaptController::new(KernelConfig::adaptive(cores), policy, seed)
                .converge_with(|cfg, epoch| {
                    let net = build(cfg);
                    let epoch_seed = seed ^ (u64::from(epoch) + 1).wrapping_mul(0x9E37_79B9);
                    let plane = FaultPlane::with_seed(epoch_seed);
                    mix.arm(&plane);
                    let ops = policy.ops_per_core;
                    let r = des::simulate_with_faults(&net, cores, ops, epoch_seed, &plane);
                    injected += plane.injected_total();
                    Observation::from_des(&net, &r)
                });
            let flips = out.max_direction_changes();
            // Judge both configs fault-free over the same seeded run.
            let tput = |net| des::simulate(&net, cores, DES_OPS_PER_CORE, seed).ops_per_cycle;
            let (clean_tput, final_tput) =
                (tput(clean_model.network(cores)), tput(build(&out.config)));
            Soak::new(&ADAPTIVE, name, Personality::Adaptive.legend())
                .with("clean", clean.config.enabled_count())
                .with("faulted", out.config.enabled_count())
                .with("epochs", out.epochs)
                .with("flips", flips)
                .with("injected", injected)
                .with("final ops/cyc", final_tput)
                .check("controller settles", out.converged, String::new)
                .le("flips <= MAX_FLIPS", flips, MAX_FLIPS)
                .fired(&mix, injected, false)
                .le("0.9 × clean <= final", 0.90 * clean_tput, final_tput)
        })
        .collect()
}

/// Runs every serving workload at `OVERLOAD_LOAD_PCT` offered load with
/// shedding on and [`FaultMix::rx_drop`] armed (the open-loop leg): the
/// admission queue must stay bounded and every arrival accounted for
/// while the plane eats packets. Deterministic per `(choice, cores, seed)`.
pub fn overload_chaos(choice: Personality, cores: usize, seed: u64) -> Vec<Soak> {
    let mix = FaultMix::rx_drop();
    pk_serve::SERVING
        .iter()
        .map(|&w| {
            let plane = FaultPlane::with_seed(seed);
            mix.arm(&plane);
            let (load, requests) = (OVERLOAD_LOAD_PCT, OVERLOAD_REQUESTS);
            let run = pk_serve::run_serving(w, choice, cores, true, load, requests, seed, &plane)
                .expect("SERVING workloads all have serving specs");
            let (r, cap) = (&run.result, run.policy.admission_cap);
            let peak = r.queue_depth_peak;
            Soak::new(&OVERLOAD, w, choice.legend())
                .with("arrivals", r.arrivals)
                .with("completed", r.completed)
                .with("rx-drop", r.nic_dropped)
                .with("shed", r.rejected + r.shed_oldest + r.shed_probabilistic)
                .with("cancelled", r.deadline_cancelled)
                .with("p999", run.latency.p999)
                .with("peak/cap", format!("{peak:>6}/{cap:<2}"))
                .eq("accounted == arrivals", r.accounted(), r.arrivals)
                .fired(&mix, r.nic_dropped, false)
                .le("peak <= admission cap", peak, cap.into())
                .check("completed > 0", r.completed > 0, String::new)
                .traced(&plane)
        })
        .collect()
}

/// The exhausted-deadline row: `DEADLINE_REQUESTS` requests whose
/// downstream fails transiently on every attempt, under a deadline
/// shorter than the first retry backoff. Each must surface
/// [`pk_kernel::KernelError::Timeout`] — not its last transient error,
/// which invites retry amplification — and uncharge its admission slot;
/// a recovery request afterwards must still be served.
pub fn run_exhausted_deadline(seed: u64) -> Soak {
    use pk_fault::RetryPolicy;
    use pk_kernel::KernelError;
    use pk_serve::{serve_with_deadline, AdmissionQueue};

    let queue = AdmissionQueue::new(4);
    let serve = |req, ok: bool| {
        serve_with_deadline(&queue, RetryPolicy::DEFAULT, seed, req, 10, |_| {
            // Recovered, or a downstream stuck in backpressure.
            let stuck = KernelError::Net(pk_net::NetError::Backpressure);
            ok.then_some(()).ok_or(stuck)
        })
    };
    let (mut timeouts, mut charged) = (0u64, 0);
    for req in 0..DEADLINE_REQUESTS {
        timeouts += u64::from(matches!(serve(req, false), Err(KernelError::Timeout)));
        charged = charged.max(queue.depth());
    }
    let recovery = serve(DEADLINE_REQUESTS, true);
    let depth = queue.depth();
    Soak::new(&DEADLINE, "deadline", "")
        .with("requests", DEADLINE_REQUESTS)
        .with("timeouts", timeouts)
        .with("admitted", queue.admitted())
        .with("depth", depth)
        .eq("Timeouts == dead requests", timeouts, DEADLINE_REQUESTS)
        .eq("depth after each Timeout == 0", charged, 0)
        .check("recovery request served", recovery.is_ok(), String::new)
        .eq("depth after recovery == 0", depth, 0)
}

/// Soaks deferred reclamation under forced queue spills: arms
/// [`FaultMix::rcu_overflow`] as the RCU spill probe, drives dcache and
/// mount-table writes through a real kernel, and checks from the RCU
/// counters ([`pk_sync::rcu::stats_snapshot`]) that every retired
/// object was freed exactly once. Single-threaded and seeded, so every
/// counter delta replays from the seed.
pub fn run_rcu_overflow(choice: Personality, cores: usize, seed: u64) -> Soak {
    use pk_sync::rcu;

    let kernel = Kernel::new(choice.config(cores));
    // Start from drained queues so the pending gauge reads 0-based.
    rcu::rcu_barrier();
    let before = rcu::stats_snapshot();

    let mix = FaultMix::rcu_overflow();
    let plane = FaultPlane::with_seed(seed);
    mix.arm(&plane);
    let point = plane.point("rcu.defer_overflow");

    let vfs = kernel.vfs();
    let churn = || -> Result<(), pk_vfs::VfsError> {
        vfs.mkdir_p("/tmp", CoreId(0))?;
        for i in 0..RCU_CHURN_OPS {
            let core = CoreId(i % cores);
            let path = format!("/tmp/f{}", i % 32);
            vfs.write_file(&path, b"x", core)?;
            vfs.unlink(&path, core)?;
            if i.is_multiple_of(16) {
                vfs.mounts().mount("/mnt");
                vfs.mounts().umount("/mnt");
            }
        }
        Ok(())
    };
    // The probe is this thread's only, and gone again (unwind included)
    // before the run is judged.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rcu::with_spill_probe(move || point.should_inject(), churn)
    }));
    plane.disable();
    rcu::rcu_barrier();
    let after = rcu::stats_snapshot();

    let injected = plane.injected_total();
    let call_rcu = after.call_rcu_calls - before.call_rcu_calls;
    let freed = after.deferred_freed - before.deferred_freed;
    let spills = after.spills - before.spills;
    let pending = after.deferred_pending;
    Soak::new(&RCU, "rcu", choice.legend())
        .with("call_rcu", call_rcu)
        .with("freed", freed)
        .with("pending", pending)
        .with("injected", injected)
        .with("spills", spills)
        .check("no panic", outcome.is_ok(), String::new)
        .check("call_rcu > 0", call_rcu > 0, String::new)
        .fired(&mix, injected, false)
        .le("injected <= spills", injected, spills)
        .eq("pending after rcu_barrier == 0", pending, 0)
        .eq("call_rcu == freed", call_rcu, freed)
        .traced(&plane)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names of `s`'s failed checks, in order.
    fn failed(s: &Soak) -> Vec<&'static str> {
        let failed = s.checks.iter().filter(|c| c.failure.is_some());
        failed.map(|c| c.name).collect()
    }

    #[test]
    fn acceptance_mix_names_only_registered_points() {
        // Guard against typos: arming a misspelled point would silently
        // inject nothing.
        let known = [
            "mm.alloc_enomem",
            "mm.freelist_exhausted",
            "net.rx_drop",
            "net.link_flap",
            "vfs.dentry_alloc",
            "vfs.dcache_pressure",
            "proc.fork_fail",
            "sim.lock_holder_preempt",
            "sim.core_stall",
            "rcu.defer_overflow",
        ];
        let mixes = [
            FaultMix::acceptance(),
            FaultMix::heavy(),
            FaultMix::scheduler(),
            FaultMix::rx_drop(),
            FaultMix::rcu_overflow(),
        ];
        for mix in mixes {
            for (name, _) in &mix.points {
                assert!(known.contains(name), "unknown fault point {name}");
            }
        }
    }

    #[test]
    fn an_inert_mix_fails_one_check_and_only_under_strict() {
        let inert = FaultMix {
            label: "inert",
            points: vec![("mm.alloc_enomem", FaultSchedule::Never)],
        };
        let s = run(
            Soak::new(&FUNCTIONAL, "probe", "PK"),
            42,
            &inert,
            |plane| plane,
            |plane| {
                let point = plane.point("mm.alloc_enomem");
                (0..100).filter(|_| point.should_inject()).count() as u64
            },
            |_| 0,
            |_, _, row| row.with("retries", 0u64).with("backoff_cyc", 0u64),
        );
        assert_eq!((s.num("checked"), s.num("injected")), (100.0, 0.0));
        assert_eq!(failed(&s), [FIRED]);
        assert!(s.passed(), "a strict-only check leaves the row `pass`");
        let rows = [s];
        assert!(!render(&FUNCTIONAL, &rows, false).1);
        let (text, strict_fails) = render(&FUNCTIONAL, &rows, true);
        assert!(strict_fails);
        assert!(text.contains("violation: fault mix fired: inert never fired"));
    }

    #[test]
    fn a_broken_identity_renders_fail_and_names_its_check() {
        let s = Soak::new(&RCU, "rcu", "PK")
            .with("call_rcu", 5u64)
            .with("freed", 4u64)
            .with("pending", 0u64)
            .with("injected", 1u64)
            .with("spills", 1u64)
            .eq("call_rcu == freed", 5u64, 4);
        let (text, failed) = render(&RCU, &[s], false);
        assert!(failed);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[3].starts_with("        PK") && lines[3].ends_with("FAIL"));
        let violations: Vec<_> = lines.iter().filter(|l| l.contains("violation")).collect();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].ends_with("violation: call_rcu == freed: 5 != 4"));
    }

    #[test]
    fn the_runner_turns_a_panicking_run_into_a_failed_check() {
        let s = run(
            Soak::new(&FUNCTIONAL, "probe", "Stock"),
            42,
            &FaultMix::acceptance(),
            |plane| (plane, std::cell::Cell::new(0)),
            |(plane, done)| {
                assert!(!plane.is_enabled(), "the faulted run panics");
                done.set(7);
                7
            },
            |(_, done)| done.get(),
            |_, _, row| row,
        );
        assert_eq!(failed(&s), ["no panic", FIRED]);
        assert!(!s.passed());
        assert_eq!((s.num("baseline"), s.num("faulted")), (7.0, 0.0));
    }

    #[test]
    fn overload_chaos_sheds_and_accounts_under_packet_loss() {
        for choice in [Personality::Stock, Personality::Pk] {
            let rows = overload_chaos(choice, 4, 42);
            assert_eq!(rows.len(), pk_serve::SERVING.len());
            for r in &rows {
                assert!(r.passed(), "{}/{}: {:?}", r.workload, r.config, r.checks);
                assert!(r.num("rx-drop") > 0.0, "{}: rx-drop must fire", r.workload);
                assert!(r.num("shed") > 0.0, "{}: 2x overload must shed", r.workload);
            }
            // Same seed → identical rows: the soak replays.
            let again = overload_chaos(choice, 4, 42);
            for (a, b) in rows.iter().zip(&again) {
                assert_eq!(a.counts, b.counts);
            }
        }
    }

    #[test]
    fn exhausted_deadline_row_surfaces_timeout_and_drains() {
        let r = run_exhausted_deadline(42);
        assert!(r.passed(), "{:?}", r.checks);
        assert_eq!(r.num("timeouts"), r.num("requests"));
        assert_eq!(r.num("depth"), 0.0);
        // Every dead request plus the recovery request took a slot.
        assert_eq!(r.num("admitted"), r.num("requests") + 1.0);
    }

    #[test]
    fn rcu_overflow_soak_balances_and_replays() {
        let _serial = crate::rcu_serial();
        for choice in [Personality::Stock, Personality::Pk] {
            let r = run_rcu_overflow(choice, 4, 7);
            assert!(r.passed(), "{}: {:?}", r.config, r.checks);
            assert!(r.num("injected") > 0.0 && r.num("spills") >= r.num("injected"));
            assert_eq!(
                r.num("call_rcu"),
                r.num("freed"),
                "every retirement freed once"
            );
            // Same seed → identical injection counts: the soak replays.
            let again = run_rcu_overflow(choice, 4, 7);
            assert_eq!(again.num("injected"), r.num("injected"));
            assert_eq!(again.num("call_rcu"), r.num("call_rcu"));
        }
    }

    #[test]
    fn adaptive_chaos_converges_and_replays() {
        let rows = adaptive_chaos(8, 7);
        assert_eq!(rows.len(), roster::NAMES.len());
        for r in &rows {
            assert!(r.passed(), "{}: {:?}", r.workload, r.checks);
        }
        // Faults fire somewhere in the roster (workloads whose stations
        // are pure delays may see none).
        assert!(rows.iter().any(|r| r.num("injected") > 0.0));
        // Same seed → identical rows: the soak replays.
        let again = adaptive_chaos(8, 7);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.counts, b.counts);
        }
    }

    #[test]
    fn des_chaos_degrades_but_stays_positive() {
        let rows = des_chaos(Personality::Pk, 8, 7);
        assert_eq!(rows.len(), roster::NAMES.len());
        for r in &rows {
            assert!(
                r.failures(true).next().is_none(),
                "{}: {:?}",
                r.workload,
                r.checks
            );
            let faulted = r.num("faulted ops/cyc");
            assert!(faulted > 0.0, "{}: simulation starved", r.workload);
            // Faults never make a model faster (small measurement-window
            // jitter aside); workloads whose bottleneck is a delay
            // station may show ~0 loss.
            let degr = r.num("degr%");
            assert!(
                degr > -2.0,
                "{}: faults sped the model up: {degr:.2}%",
                r.workload
            );
        }
        assert!(
            rows.iter().any(|r| r.num("degr%") > 0.5),
            "no workload showed clear preemption cost"
        );
    }
}
