//! Chaos soak harness: MOSBENCH drivers × kernel config × seeded fault
//! mix.
//!
//! Each run drives one functional workload driver twice over the same
//! offered load — once fault-free for the throughput baseline, once
//! with a [`FaultMix`] armed on a seeded [`FaultPlane`] — and reports
//! throughput degradation, retry counts, and invariant violations. The
//! faulted run's trace is a pure function of the seed, so a failing
//! soak replays byte-for-byte from its seed alone.
//!
//! The harness is deliberately single-threaded: one thread drives every
//! core's share of the load in a fixed order, so two soaks with the
//! same seed produce *identical* ordered traces (asserted by the
//! `chaos_report` integration test), not merely identical trace sets.

use crate::personality::converge;
use pk_fault::{FaultEvent, FaultPlane, FaultSchedule};
use pk_kernel::{Kernel, Personality};
use pk_percpu::CoreId;
use pk_sim::des;
use pk_workloads::apache::ApacheDriver;
use pk_workloads::exim::EximDriver;
use pk_workloads::memcached::MemcachedDriver;
use pk_workloads::roster;
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

    /// Arms every schedule on `plane` and enables it. Call only after
    /// driver construction, so setup runs clean.
    pub fn arm(&self, plane: &FaultPlane) {
        for (name, schedule) in &self.points {
            plane.set(name, *schedule);
        }
        plane.enable();
    }
}

/// One workload's soak outcome under one kernel config and fault mix.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Workload name (`exim`, `memcached`, `apache`).
    pub workload: &'static str,
    /// Kernel config label (`stock` / `PK`).
    pub config: &'static str,
    /// Fault-mix label.
    pub mix: &'static str,
    /// Operations completed by the fault-free baseline run.
    pub baseline_ops: u64,
    /// Operations completed by the faulted run.
    pub faulted_ops: u64,
    /// Transient failures absorbed by retries during the faulted run.
    pub retries: u64,
    /// Simulated backoff the retries charged, in cycles.
    pub backoff_cycles: u64,
    /// Allocator-churn probes that shed their allocation on ENOMEM.
    pub enomem_shed: u64,
    /// Fault-point arrivals checked while the plane was enabled.
    pub faults_checked: u64,
    /// Faults actually injected.
    pub faults_injected: u64,
    /// Invariant violations found after the faulted run (empty = pass).
    pub violations: Vec<String>,
    /// Whether the faulted run panicked (always a failure).
    pub panicked: bool,
    /// The faulted run's ordered injection trace, for replay checks.
    pub trace: Vec<FaultEvent>,
}

impl ChaosReport {
    /// Throughput lost to the fault mix, as a percentage of baseline.
    pub fn degradation_pct(&self) -> f64 {
        if self.baseline_ops == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.faulted_ops as f64 / self.baseline_ops as f64)
    }

    /// Whether the soak passed: no panic and no invariant violations.
    pub fn passed(&self) -> bool {
        !self.panicked && self.violations.is_empty()
    }
}

/// One DES chaos row: a workload model simulated with and without
/// lock-holder preemption and core stalls.
#[derive(Debug, Clone)]
pub struct DesChaosRow {
    /// Workload model name.
    pub workload: &'static str,
    /// Ops/cycle without faults.
    pub baseline_ops_per_cycle: f64,
    /// Ops/cycle with preemption and stall faults armed.
    pub faulted_ops_per_cycle: f64,
    /// Faults injected during the faulted simulation.
    pub faults_injected: u64,
}

impl DesChaosRow {
    /// Simulated throughput lost to the faults, percent of baseline.
    pub fn degradation_pct(&self) -> f64 {
        if self.baseline_ops_per_cycle == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.faulted_ops_per_cycle / self.baseline_ops_per_cycle)
    }
}

/// Probes the allocator with a small allocation the workload would shed
/// under memory pressure; returns whether it had to shed (ENOMEM).
fn churn(kernel: &Kernel, core: CoreId) -> bool {
    match kernel.allocator().alloc_local(core.0, CHURN_PAGES) {
        Ok(node) => {
            kernel.allocator().free_on(node, CHURN_PAGES);
            false
        }
        Err(_) => true,
    }
}

/// Drives the Exim soak load: round-robin SMTP connections across the
/// cores, with allocator churn per connection. Returns `(hard errors,
/// ENOMEM sheds)`.
fn exim_work(d: &EximDriver, cores: usize) -> (u64, u64) {
    let mut hard = 0;
    let mut shed = 0;
    for conn in 0..EXIM_CONNECTIONS {
        let core = CoreId(conn % cores);
        if churn(d.kernel(), core) {
            shed += 1;
        }
        if d.run_connection(core, conn).is_err() {
            hard += 1;
        }
    }
    (hard, shed)
}

/// Soaks Exim under `mix`. Ops metric: messages delivered.
pub fn run_exim(choice: Personality, cores: usize, seed: u64, mix: &FaultMix) -> ChaosReport {
    let baseline = {
        let d = EximDriver::new(choice, cores).expect("boot exim");
        exim_work(&d, cores);
        d.delivered()
    };
    let plane = Arc::new(FaultPlane::with_seed(seed));
    let d = EximDriver::with_faults(choice, cores, Arc::clone(&plane))
        .expect("boot exim (plane not yet armed)");
    mix.arm(&plane);
    let outcome = catch_unwind(AssertUnwindSafe(|| exim_work(&d, cores)));
    plane.disable();
    let (panicked, hard, shed) = match outcome {
        Ok((hard, shed)) => (false, hard, shed),
        Err(_) => (true, 0, 0),
    };
    let mut violations = Vec::new();
    if hard > 0 {
        violations.push(format!("{hard} connections aborted on permanent errors"));
    }
    if d.delivered() + d.bounced() != d.attempted() {
        violations.push(format!(
            "message accounting leaked: {} delivered + {} bounced != {} attempted",
            d.delivered(),
            d.bounced(),
            d.attempted()
        ));
    }
    if d.kernel().procs().len() != 1 {
        violations.push(format!(
            "process table leaked: {} live (want 1: init)",
            d.kernel().procs().len()
        ));
    }
    let open = d.kernel().vfs().superblock().open_files();
    if open != 0 {
        violations.push(format!("open-file accounting leaked: {open} (want 0)"));
    }
    finish(
        "exim",
        choice,
        mix,
        baseline,
        d.delivered(),
        d.tempfails(),
        d.retry_backoff_cycles(),
        shed,
        &plane,
        violations,
        panicked,
    )
}

/// Drives the memcached soak load. Returns `(requests that got
/// through, ENOMEM sheds)`.
fn memcached_work(d: &MemcachedDriver, cores: usize) -> (u64, u64) {
    let mut sent = 0u64;
    let mut shed = 0u64;
    for round in 0..MEMCACHED_BATCHES {
        let core = round as usize % cores;
        if churn(d.kernel(), CoreId(core)) {
            shed += 1;
        }
        sent += d.client_batch(round, core) as u64;
    }
    d.drain_all();
    (sent, shed)
}

/// Soaks memcached under `mix`. Ops metric: requests served.
pub fn run_memcached(choice: Personality, cores: usize, seed: u64, mix: &FaultMix) -> ChaosReport {
    let baseline = {
        let d = MemcachedDriver::new(choice, cores);
        memcached_work(&d, cores);
        d.served()
    };
    let plane = Arc::new(FaultPlane::with_seed(seed));
    let d = MemcachedDriver::with_faults(choice, cores, Arc::clone(&plane));
    mix.arm(&plane);
    let outcome = catch_unwind(AssertUnwindSafe(|| memcached_work(&d, cores)));
    plane.disable();
    let (panicked, sent, shed) = match outcome {
        Ok((sent, shed)) => (false, sent, shed),
        Err(_) => (true, 0, 0),
    };
    let mut violations = Vec::new();
    if !panicked && d.served() != sent {
        violations.push(format!(
            "request accounting leaked: {} served != {} accepted by the NIC",
            d.served(),
            sent
        ));
    }
    let usage = d.kernel().net().proto().usage(pk_net::Protocol::Udp);
    if usage != 0 {
        violations.push(format!("UDP memory accounting leaked: {usage} (want 0)"));
    }
    finish(
        "memcached",
        choice,
        mix,
        baseline,
        d.served(),
        d.client_retries(),
        0,
        shed,
        &plane,
        violations,
        panicked,
    )
}

/// Drives the Apache soak load. Returns `(connections accepted,
/// ENOMEM sheds)`.
fn apache_work(d: &ApacheDriver, cores: usize) -> (u64, u64) {
    for i in 0..APACHE_CONNECTIONS {
        d.client_connect(0x0e00_0000 + i);
    }
    let mut accepted = 0u64;
    let mut shed = 0u64;
    loop {
        let mut progress = false;
        for core in 0..cores {
            if churn(d.kernel(), CoreId(core)) {
                shed += 1;
            }
            if d.serve_one(core).is_some() {
                progress = true;
                accepted += 1;
            }
        }
        if !progress {
            return (accepted, shed);
        }
    }
}

/// Soaks Apache under `mix`. Ops metric: requests served.
pub fn run_apache(choice: Personality, cores: usize, seed: u64, mix: &FaultMix) -> ChaosReport {
    let baseline = {
        let d = ApacheDriver::new(choice, cores);
        apache_work(&d, cores);
        d.served()
    };
    let plane = Arc::new(FaultPlane::with_seed(seed));
    let d = ApacheDriver::with_faults(choice, cores, Arc::clone(&plane));
    mix.arm(&plane);
    let outcome = catch_unwind(AssertUnwindSafe(|| apache_work(&d, cores)));
    plane.disable();
    let (panicked, accepted, shed) = match outcome {
        Ok((accepted, shed)) => (false, accepted, shed),
        Err(_) => (true, 0, 0),
    };
    let mut violations = Vec::new();
    if !panicked && accepted != u64::from(APACHE_CONNECTIONS) {
        violations.push(format!(
            "connections lost: accepted {accepted} of {APACHE_CONNECTIONS}"
        ));
    }
    if !panicked && d.served() + d.failed_requests() != accepted {
        violations.push(format!(
            "request accounting leaked: {} served + {} failed != {} accepted",
            d.served(),
            d.failed_requests(),
            accepted
        ));
    }
    let open = d.kernel().vfs().superblock().open_files();
    if open != 0 {
        violations.push(format!("open-file accounting leaked: {open} (want 0)"));
    }
    finish(
        "apache",
        choice,
        mix,
        baseline,
        d.served(),
        d.request_tempfails(),
        d.accept_backoff_cycles(),
        shed,
        &plane,
        violations,
        panicked,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish(
    workload: &'static str,
    choice: Personality,
    mix: &FaultMix,
    baseline_ops: u64,
    faulted_ops: u64,
    retries: u64,
    backoff_cycles: u64,
    enomem_shed: u64,
    plane: &FaultPlane,
    violations: Vec<String>,
    panicked: bool,
) -> ChaosReport {
    // Count only the points the mix armed: arrivals at Never-scheduled
    // points would inflate `checked` and make an inert mix look busy.
    let armed = |name: &str| mix.points.iter().any(|(n, _)| *n == name);
    let stats = plane.stats();
    ChaosReport {
        workload,
        config: choice.legend(),
        mix: mix.label,
        baseline_ops,
        faulted_ops,
        retries,
        backoff_cycles,
        enomem_shed,
        faults_checked: stats
            .iter()
            .filter(|p| armed(p.name))
            .map(|p| p.checked)
            .sum(),
        faults_injected: stats
            .iter()
            .filter(|p| armed(p.name))
            .map(|p| p.injected)
            .sum(),
        violations,
        panicked,
        trace: plane.trace(),
    }
}

/// Runs one workload's soak by name. Returns `None` for names without
/// a functional driver (the DES sweep covers the rest of the roster).
pub fn run_workload(
    name: &str,
    choice: Personality,
    cores: usize,
    seed: u64,
    mix: &FaultMix,
) -> Option<ChaosReport> {
    match name.to_ascii_lowercase().as_str() {
        "exim" => Some(run_exim(choice, cores, seed, mix)),
        "memcached" => Some(run_memcached(choice, cores, seed, mix)),
        "apache" => Some(run_apache(choice, cores, seed, mix)),
        _ => None,
    }
}

/// Soaks every named workload under both kernel configs with the
/// acceptance mix. The report order (and each report's trace) is a pure
/// function of `(seed, workloads, cores)`.
pub fn soak(seed: u64, workloads: &[&str], cores: usize) -> Vec<ChaosReport> {
    let mix = FaultMix::acceptance();
    let mut out = Vec::new();
    for name in workloads {
        for choice in [Personality::Stock, Personality::Pk] {
            if let Some(r) = run_workload(name, choice, cores, seed, &mix) {
                out.push(r);
            }
        }
    }
    out
}

/// Simulates every roster model with and without scheduler-level
/// faults (lock-holder preemption every 211th dispatch, a core stall
/// every 389th): the DES leg of the chaos matrix.
pub fn des_chaos(choice: Personality, cores: usize, seed: u64) -> Vec<DesChaosRow> {
    roster::NAMES
        .iter()
        .filter_map(|name| {
            let model = roster::model(name, choice)?;
            let net = model.network(cores);
            let base = des::simulate(&net, cores, DES_OPS_PER_CORE, seed);
            let plane = FaultPlane::with_seed(seed);
            plane.set("sim.lock_holder_preempt", FaultSchedule::EveryNth(211));
            plane.set("sim.core_stall", FaultSchedule::EveryNth(389));
            plane.enable();
            let faulted = des::simulate_with_faults(&net, cores, DES_OPS_PER_CORE, seed, &plane);
            Some(DesChaosRow {
                workload: name,
                baseline_ops_per_cycle: base.ops_per_cycle,
                faulted_ops_per_cycle: faulted.ops_per_cycle,
                faults_injected: plane.injected_total(),
            })
        })
        .collect()
}

/// One workload's adaptive-controller convergence under scheduler
/// faults: the controller leg of the chaos matrix. Every measurement
/// epoch runs with lock-holder preemption and core stalls armed; the
/// controller must still settle, keep its flip bound, and land on a
/// config that performs.
#[derive(Debug, Clone)]
pub struct AdaptiveChaosRow {
    /// Workload model name.
    pub workload: &'static str,
    /// Fixes promoted by the fault-free reference convergence.
    pub clean_promoted: usize,
    /// Fixes promoted while faults were armed.
    pub faulted_promoted: usize,
    /// Epochs the faulted convergence consumed.
    pub epochs: u32,
    /// Whether the faulted controller settled before the epoch cap.
    pub converged: bool,
    /// Max direction changes of any knob during the faulted run.
    pub max_flips: u32,
    /// Scheduler faults injected across the measurement epochs.
    pub faults_injected: u64,
    /// Ops/cycle of the faulted run's final config (fault-free
    /// measurement — the config must perform once the noise is gone).
    pub final_ops_per_cycle: f64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl AdaptiveChaosRow {
    /// Whether the row passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Converges the adaptive controller for every roster workload with
/// scheduler faults armed during each measurement epoch.
///
/// The clean reference is [`converge`]'s own run;
/// the faulted leg drives the same default-policy controller manually
/// (same epoch sizing, cap and settle window), measuring each
/// epoch through [`des::simulate_with_faults`] so lock-holder
/// preemption and core stalls perturb the contention samples the
/// controller sees. Gates per workload: the controller must still
/// settle, no knob may flap (> 3 direction changes), faults must
/// actually fire, and the converged config must reach 90% of the clean
/// config's fault-free throughput. Deterministic per `(cores, seed)`.
pub fn adaptive_chaos(cores: usize, seed: u64) -> Vec<AdaptiveChaosRow> {
    use pk_adapt::{AdaptController, AdaptPolicy, Observation};
    use pk_kernel::KernelConfig;
    use pk_sim::MachineSpec;

    let machine = MachineSpec::paper();
    roster::NAMES
        .iter()
        .map(|&name| {
            let build = |cfg: &KernelConfig| {
                roster::model_with_config(name, cfg, machine)
                    .expect("roster name resolves")
                    .network(cores)
            };
            let policy = AdaptPolicy::default();
            let (clean_model, clean) =
                converge(name, cores, machine, seed).expect("roster name resolves");

            // Faulted convergence: same controller semantics, but every
            // epoch's measurement runs under armed scheduler faults.
            let mut faults_injected = 0u64;
            let out = AdaptController::new(KernelConfig::adaptive(cores), policy, seed)
                .converge_with(|cfg, epoch| {
                    let net = build(cfg);
                    let epoch_seed = seed ^ (u64::from(epoch) + 1).wrapping_mul(0x9E37_79B9);
                    let plane = FaultPlane::with_seed(epoch_seed);
                    plane.set("sim.lock_holder_preempt", FaultSchedule::EveryNth(211));
                    plane.set("sim.core_stall", FaultSchedule::EveryNth(389));
                    plane.enable();
                    let r = des::simulate_with_faults(
                        &net,
                        cores,
                        policy.ops_per_core,
                        epoch_seed,
                        &plane,
                    );
                    faults_injected += plane.injected_total();
                    Observation::from_des(&net, &r)
                });
            let (converged, max_flips) = (out.converged, out.max_direction_changes());
            let final_config = out.config;

            // Judge both configs fault-free over the same seeded run.
            let clean_tput =
                des::simulate(&clean_model.network(cores), cores, DES_OPS_PER_CORE, seed)
                    .ops_per_cycle;
            let final_ops_per_cycle =
                des::simulate(&build(&final_config), cores, DES_OPS_PER_CORE, seed).ops_per_cycle;

            let mut violations = Vec::new();
            if !converged {
                violations.push(format!(
                    "controller wedged: no settle within {} epochs",
                    policy.max_epochs
                ));
            }
            if max_flips > 3 {
                violations.push(format!("a knob flapped {max_flips} times under faults"));
            }
            if faults_injected == 0 {
                violations.push("scheduler faults never fired".to_string());
            }
            if final_ops_per_cycle < 0.90 * clean_tput {
                violations.push(format!(
                    "faulted convergence landed on a bad config: {final_ops_per_cycle:.6} \
                     vs clean {clean_tput:.6} ops/cycle"
                ));
            }
            AdaptiveChaosRow {
                workload: name,
                clean_promoted: clean.config.enabled_count(),
                faulted_promoted: final_config.enabled_count(),
                epochs: out.epochs,
                converged,
                max_flips,
                faults_injected,
                final_ops_per_cycle,
                violations,
            }
        })
        .collect()
}

/// Requests per open-loop overload chaos run.
const OVERLOAD_REQUESTS: u64 = 2_000;
/// Offered load for the overload rows, percent of PK capacity.
const OVERLOAD_LOAD_PCT: u32 = 200;

/// One serving workload under 2× arrival overload with 1% NIC receive
/// drop: the open-loop leg of the chaos matrix. The shedding policy
/// must keep the admission queue bounded and every arrival accounted
/// for — completed, shed, cancelled, dropped by the NIC, or still in
/// the system — while the fault plane eats packets underneath it.
#[derive(Debug, Clone)]
pub struct OverloadChaosRow {
    /// Workload name.
    pub workload: &'static str,
    /// Kernel config label (`stock` / `PK`).
    pub config: &'static str,
    /// Requests the arrival process offered.
    pub arrivals: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Arrivals lost to the injected NIC drop.
    pub nic_dropped: u64,
    /// Arrivals refused or evicted by the shedding policy.
    pub shed: u64,
    /// Requests cancelled by deadline propagation.
    pub deadline_cancelled: u64,
    /// p999 of completed requests, cycles.
    pub p999: u64,
    /// Peak admission-queue depth (must respect the policy cap).
    pub queue_depth_peak: u64,
    /// The policy's admission cap.
    pub admission_cap: u32,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl OverloadChaosRow {
    /// Whether the row passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every serving workload at `OVERLOAD_LOAD_PCT` offered load
/// with shedding on and 1% `net.rx_drop` armed. Deterministic per
/// `(choice, cores, seed)`.
pub fn overload_chaos(choice: Personality, cores: usize, seed: u64) -> Vec<OverloadChaosRow> {
    pk_serve::SERVING
        .iter()
        .map(|w| {
            let plane = FaultPlane::with_seed(seed);
            plane.set("net.rx_drop", FaultSchedule::Probability(0.01));
            plane.enable();
            let run = pk_serve::run_serving(
                w,
                choice,
                cores,
                true,
                OVERLOAD_LOAD_PCT,
                OVERLOAD_REQUESTS,
                seed,
                &plane,
            )
            .expect("SERVING workloads all have serving specs");
            let r = &run.result;
            let mut violations = Vec::new();
            if r.accounted() != r.arrivals {
                violations.push(format!(
                    "arrival accounting leaked: {} accounted != {} arrivals",
                    r.accounted(),
                    r.arrivals
                ));
            }
            if r.nic_dropped == 0 {
                violations.push("net.rx_drop never fired".to_string());
            }
            let cap = run.policy.admission_cap;
            if r.queue_depth_peak > u64::from(cap) {
                violations.push(format!(
                    "admission cap breached: peak {} > cap {cap}",
                    r.queue_depth_peak
                ));
            }
            if r.completed == 0 {
                violations.push("overload starved the server completely".to_string());
            }
            OverloadChaosRow {
                workload: w,
                config: choice.legend(),
                arrivals: r.arrivals,
                completed: r.completed,
                nic_dropped: r.nic_dropped,
                shed: r.rejected + r.shed_oldest + r.shed_probabilistic,
                deadline_cancelled: r.deadline_cancelled,
                p999: run.latency.p999,
                queue_depth_peak: r.queue_depth_peak,
                admission_cap: cap,
                violations,
            }
        })
        .collect()
}

/// Requests driven through the exhausted-deadline row.
const DEADLINE_REQUESTS: u64 = 16;

/// The `exhausted-deadline` chaos row: a request that burns its whole
/// retry budget past its deadline must surface as
/// [`pk_kernel::KernelError::Timeout`] — *not* its last transient
/// error, which would invite the retry amplification the deadline
/// forbids — and must uncharge its admission slot on the way out.
#[derive(Debug, Clone)]
pub struct DeadlineChaosRow {
    /// Requests driven into the permanently-failing downstream.
    pub requests: u64,
    /// Requests that surfaced `Timeout`, as required.
    pub timeouts: u64,
    /// Admission-queue depth after the storm (must be 0).
    pub depth_after: u32,
    /// Requests admitted across the row.
    pub admitted: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl DeadlineChaosRow {
    /// Whether the row passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the exhausted-deadline row: `DEADLINE_REQUESTS` requests hit
/// a downstream that fails transiently on every attempt, under a
/// deadline budget smaller than the first retry backoff. Every request
/// must come back `Timeout` with the admission queue fully drained;
/// one recovery request afterwards proves the queue still serves.
pub fn run_exhausted_deadline(seed: u64) -> DeadlineChaosRow {
    use pk_fault::RetryPolicy;
    use pk_kernel::KernelError;
    use pk_serve::{serve_with_deadline, AdmissionQueue};

    let queue = AdmissionQueue::new(4);
    let mut timeouts = 0u64;
    let mut violations = Vec::new();
    for req in 0..DEADLINE_REQUESTS {
        let out = serve_with_deadline(&queue, RetryPolicy::DEFAULT, seed, req, 10, |_| {
            // A downstream stuck in backpressure: transient every time.
            Err::<(), _>(KernelError::Net(pk_net::NetError::Backpressure))
        });
        match out {
            Err(KernelError::Timeout) => timeouts += 1,
            Err(e) => violations.push(format!(
                "request {req} leaked its last transient error: {e}"
            )),
            Ok(()) => violations.push(format!("request {req} cannot have succeeded")),
        }
        if queue.depth() != 0 {
            violations.push(format!(
                "request {req} left its admission slot charged (depth {})",
                queue.depth()
            ));
        }
    }
    if timeouts != DEADLINE_REQUESTS {
        violations.push(format!(
            "only {timeouts} of {DEADLINE_REQUESTS} dead requests surfaced Timeout"
        ));
    }
    // The queue must still serve once the downstream recovers.
    match serve_with_deadline(
        &queue,
        RetryPolicy::DEFAULT,
        seed,
        DEADLINE_REQUESTS,
        10,
        |_| Ok::<_, pk_kernel::KernelError>(()),
    ) {
        Ok(()) => {}
        Err(e) => violations.push(format!("recovery request failed: {e}")),
    }
    if queue.depth() != 0 {
        violations.push(format!(
            "queue not drained after recovery (depth {})",
            queue.depth()
        ));
    }
    DeadlineChaosRow {
        requests: DEADLINE_REQUESTS,
        timeouts,
        depth_after: queue.depth(),
        admitted: queue.admitted(),
        violations,
    }
}

/// VFS operations per RCU overflow soak.
const RCU_CHURN_OPS: usize = 600;
/// Force a deferred-queue spill on every Nth `call_rcu`.
const RCU_OVERFLOW_EVERY: u64 = 17;

/// Outcome of the RCU deferred-queue overflow soak: `rcu.*` counter
/// deltas (read through the kernel's observability snapshot) plus the
/// leak/double-free verdict.
#[derive(Debug, Clone)]
pub struct RcuChaosReport {
    /// Kernel config label (`stock` / `PK`).
    pub config: &'static str,
    /// `rcu.defer_overflow` injections (forced spills).
    pub injected: u64,
    /// Blocking spills the queues actually took.
    pub spills: u64,
    /// Objects retired through `call_rcu` during the soak.
    pub call_rcu: u64,
    /// Deferred objects reclaimed by the end (post-barrier).
    pub freed: u64,
    /// Deferred objects still queued after `rcu_barrier` (must be 0).
    pub pending_after_barrier: u64,
    /// Invariant violations (empty = pass: no leak, no double-free).
    pub violations: Vec<String>,
}

impl RcuChaosReport {
    /// Whether the soak passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Reads an `rcu.*` counter out of an observability snapshot.
fn rcu_sample(snap: &pk_obs::Snapshot, name: &str) -> u64 {
    match snap.find(name).map(|s| &s.value) {
        Some(pk_obs::MetricValue::Counter(v)) => *v,
        Some(pk_obs::MetricValue::Gauge(v)) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    }
}

/// Soaks the deferred-reclamation machinery under forced queue spills.
///
/// Arms a `rcu.defer_overflow` fault point as the RCU spill probe, so
/// every `RCU_OVERFLOW_EVERY`th `call_rcu` is forced down the
/// blocking overflow path mid-churn, then drives dcache and mount-table
/// write traffic through a real kernel and checks — via the kernel's
/// `rcu.*` observability samples — that every retired object was freed
/// exactly once: `call_rcu == deferred_freed` after the final barrier,
/// with nothing left pending.
///
/// Single-threaded and seeded like the other soaks: the injection
/// trace, and therefore every counter delta, replays from the seed.
pub fn run_rcu_overflow(choice: Personality, cores: usize, seed: u64) -> RcuChaosReport {
    use pk_sync::rcu;

    let kernel = Kernel::new(choice.config(cores));
    // Start from drained queues so the pending gauge reads 0-based.
    rcu::rcu_barrier();
    let before = kernel.obs_snapshot();

    let plane = Arc::new(FaultPlane::with_seed(seed));
    plane.set(
        "rcu.defer_overflow",
        FaultSchedule::EveryNth(RCU_OVERFLOW_EVERY),
    );
    plane.enable();
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
    let after = kernel.obs_snapshot();

    let delta = |name: &str| rcu_sample(&after, name) - rcu_sample(&before, name);
    let injected = plane.injected_total();
    let call_rcu = delta("rcu.call_rcu");
    let freed = delta("rcu.deferred_freed");
    let spills = delta("rcu.spills");
    let pending_after_barrier = rcu_sample(&after, "rcu.deferred_pending");

    let mut violations = Vec::new();
    if outcome.is_err() {
        violations.push("churn panicked under forced spills".to_string());
    }
    if call_rcu == 0 {
        violations.push("no call_rcu traffic: soak exercised nothing".to_string());
    }
    if injected == 0 {
        violations.push("rcu.defer_overflow never fired".to_string());
    }
    if spills < injected {
        violations.push(format!(
            "forced overflows lost: {injected} injected but only {spills} spills"
        ));
    }
    if pending_after_barrier != 0 {
        violations.push(format!(
            "leak: {pending_after_barrier} deferred objects survived rcu_barrier"
        ));
    }
    if call_rcu != freed {
        violations.push(format!(
            "reclamation imbalance: {call_rcu} retired != {freed} freed \
             (leak if under, double-free if over)"
        ));
    }
    RcuChaosReport {
        config: choice.legend(),
        injected,
        spills,
        call_rcu,
        freed,
        pending_after_barrier,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        ];
        for mix in [FaultMix::acceptance(), FaultMix::heavy()] {
            for (name, _) in &mix.points {
                assert!(known.contains(name), "unknown fault point {name}");
            }
        }
    }

    #[test]
    fn overload_chaos_sheds_and_accounts_under_packet_loss() {
        for choice in [Personality::Stock, Personality::Pk] {
            let rows = overload_chaos(choice, 4, 42);
            assert_eq!(rows.len(), pk_serve::SERVING.len());
            for r in &rows {
                assert!(
                    r.passed(),
                    "{}/{}: {:?}",
                    r.workload,
                    r.config,
                    r.violations
                );
                assert!(r.nic_dropped > 0, "{}: rx-drop must fire", r.workload);
                assert!(r.shed > 0, "{}: 2x overload must shed", r.workload);
            }
            // Same seed → identical rows: the soak replays.
            let again = overload_chaos(choice, 4, 42);
            for (a, b) in rows.iter().zip(&again) {
                assert_eq!(a.completed, b.completed);
                assert_eq!(a.nic_dropped, b.nic_dropped);
                assert_eq!(a.p999, b.p999);
            }
        }
    }

    #[test]
    fn exhausted_deadline_row_surfaces_timeout_and_drains() {
        let r = run_exhausted_deadline(42);
        assert!(r.passed(), "{:?}", r.violations);
        assert_eq!(r.timeouts, r.requests);
        assert_eq!(r.depth_after, 0);
        // Every dead request plus the recovery request took a slot.
        assert_eq!(r.admitted, r.requests + 1);
    }

    #[test]
    fn rcu_overflow_soak_balances_and_replays() {
        let _serial = crate::rcu_serial();
        for choice in [Personality::Stock, Personality::Pk] {
            let r = run_rcu_overflow(choice, 4, 7);
            assert!(r.passed(), "{}: {:?}", r.config, r.violations);
            assert!(r.injected > 0 && r.spills >= r.injected);
            assert_eq!(r.call_rcu, r.freed, "every retirement freed exactly once");
            // Same seed → identical injection counts: the soak replays.
            let again = run_rcu_overflow(choice, 4, 7);
            assert_eq!(again.injected, r.injected);
            assert_eq!(again.call_rcu, r.call_rcu);
        }
    }

    #[test]
    fn adaptive_chaos_converges_and_replays() {
        let rows = adaptive_chaos(8, 7);
        assert_eq!(rows.len(), roster::NAMES.len());
        for r in &rows {
            assert!(r.passed(), "{}: {:?}", r.workload, r.violations);
            assert!(r.converged, "{}: wedged under faults", r.workload);
            assert!(r.max_flips <= 3, "{}: flapped", r.workload);
        }
        // Faults fire somewhere in the roster (workloads whose stations
        // are pure delays may see none).
        assert!(rows.iter().any(|r| r.faults_injected > 0));
        // Same seed → identical rows: the soak replays.
        let again = adaptive_chaos(8, 7);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.faulted_promoted, b.faulted_promoted);
            assert_eq!(a.epochs, b.epochs);
            assert_eq!(a.faults_injected, b.faults_injected);
        }
    }

    #[test]
    fn des_chaos_degrades_but_stays_positive() {
        let rows = des_chaos(Personality::Pk, 8, 7);
        assert_eq!(rows.len(), roster::NAMES.len());
        for r in &rows {
            assert!(r.faults_injected > 0, "{}: no faults fired", r.workload);
            assert!(
                r.faulted_ops_per_cycle > 0.0,
                "{}: simulation starved",
                r.workload
            );
            // Faults never make a model faster (small measurement-window
            // jitter aside); workloads whose bottleneck is a delay
            // station may show ~0 loss.
            assert!(
                r.degradation_pct() > -2.0,
                "{}: faults sped the model up: {:.2}%",
                r.workload,
                r.degradation_pct()
            );
        }
        assert!(
            rows.iter().any(|r| r.degradation_pct() > 0.5),
            "no workload showed clear preemption cost"
        );
    }
}
