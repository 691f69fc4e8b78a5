//! The open-loop serving layer: live traffic for the roster's three
//! server workloads.
//!
//! Everything below `pk-serve` measures *throughput*: closed loops
//! where every core always has its next operation ready. This crate
//! turns the serving workloads — Exim, memcached, Apache (§5 of the
//! paper) — into *servers*: a seeded arrival process
//! ([`pk_sim::ArrivalPattern`]) offers requests from a population of
//! millions of distinct simulated users ([`pk_sim::ClientMix`]), the
//! run's [`pk_sim::OverloadPolicy`] decides what to admit, reject,
//! cancel, or degrade, and every completion lands in a `pk-obs` latency
//! histogram with p50/p99/p999 and SLO-violation accounting.
//!
//! Each workload's serving personality lives in a `ServingSpec`:
//! arrival shape, client mix (churn, slow clients), and the graceful
//! degradation hook the real server would reach for (memcached
//! stale-ok reads, Apache shrinking keepalive, Exim deferring
//! non-essential work). Every workload's SLO budget is the same
//! multiple of the PK kernel's healthy request time. [`run_serving`]
//! assembles the run;
//! `pk-bench report latency` sweeps the
//! {stock, PK} × {no-shed, shed} × {normal, 2× overload} grid and
//! asserts the stock-vs-PK tail inversion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;

pub use admission::{serve_with_deadline, AdmissionQueue, SlotGuard};

use pk_fault::FaultPlane;
use pk_kernel::Personality;
use pk_sim::{
    simulate_flow, simulate_open, ArrivalPattern, ClientMix, Network, OpenLoopResult,
    OverloadPolicy,
};
use pk_trace::Tracer;
use pk_workloads::roster;

/// The serving subset of the roster: workloads whose real-world shape
/// is a network server with latency SLOs, not a batch job.
pub use pk_workloads::roster::SERVING;

/// SLO budget as a multiple of the PK kernel's mean closed-loop request
/// time at the target core count, for every serving workload.
const SLO_MULTIPLE: u32 = 8;

/// How one workload behaves as a live server.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServingSpec {
    /// Roster name (`exim`, `memcached`, `apache`).
    pub workload: &'static str,
    /// Arrival shape at 1.0× load; scaled by the run's load factor.
    /// The mean interarrival here is a placeholder of 1.0 — it is
    /// re-anchored to the machine's capacity by [`run_serving`].
    pub pattern_kind: PatternKind,
    /// The client population behind the traffic.
    pub clients: ClientMix,
    /// Service demand charged while degraded, percent.
    pub degrade_demand_pct: u8,
    /// Slow-client stall charged while degraded, percent.
    pub degrade_stall_pct: u8,
}

/// Which arrival process a serving spec uses (rates are anchored to
/// measured capacity at run time, so the spec only picks the shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PatternKind {
    /// Memoryless arrivals.
    Poisson,
    /// Bursty on/off traffic: on for 600 of every 800 anchor gaps, at
    /// 4/3 the anchor rate (duty cycle 3/4).
    OnOff,
    /// Day/night alternation: peak phases at 1.5× the anchor rate,
    /// troughs at 0.75×.
    Diurnal,
}

impl ServingSpec {
    /// The serving personality for `workload`; `None` for batch
    /// workloads that have no serving shape.
    pub fn for_workload(workload: &str) -> Option<Self> {
        match workload.to_ascii_lowercase().as_str() {
            // One message per SMTP connection: churn on every request.
            // Under pressure Exim defers non-essential per-message work
            // (verbose logging, immediate fsync) — a demand cut.
            "exim" => Some(Self {
                workload: "exim",
                pattern_kind: PatternKind::Diurnal,
                clients: ClientMix {
                    population: 1_000_000,
                    mean_session_requests: 1,
                    connect_cycles: 3_000,
                    slow_per_mille: 10,
                    stall_cycles: 20_000,
                },
                degrade_demand_pct: 80,
                degrade_stall_pct: 100,
            }),
            // Long-lived connections, tiny requests. Degradation is
            // the classic stale-ok read: skip lease revalidation and
            // serve possibly-stale values at a fraction of the demand.
            "memcached" => Some(Self {
                workload: "memcached",
                pattern_kind: PatternKind::Poisson,
                clients: ClientMix {
                    population: 4_000_000,
                    mean_session_requests: 64,
                    connect_cycles: 2_000,
                    slow_per_mille: 20,
                    stall_cycles: 10_000,
                },
                degrade_demand_pct: 60,
                degrade_stall_pct: 100,
            }),
            // Keepalive sessions with a real slow-client problem
            // (trickled requests hold a worker). Under pressure Apache
            // shrinks keepalive and hangs up on slow clients: the
            // stall cost collapses.
            "apache" => Some(Self {
                workload: "apache",
                pattern_kind: PatternKind::OnOff,
                clients: ClientMix {
                    population: 2_000_000,
                    mean_session_requests: 8,
                    connect_cycles: 4_000,
                    slow_per_mille: 50,
                    stall_cycles: 50_000,
                },
                degrade_demand_pct: 100,
                degrade_stall_pct: 10,
            }),
            _ => None,
        }
    }

    /// Builds the arrival pattern for this spec at the given mean
    /// interarrival gap (cycles).
    pub fn pattern(&self, mean_interarrival_cycles: f64) -> ArrivalPattern {
        match self.pattern_kind {
            PatternKind::Poisson => ArrivalPattern::Poisson {
                mean_interarrival_cycles,
            },
            PatternKind::OnOff => {
                // Duty cycle 3/4: bursts at 4/3 the anchor rate keep
                // the long-run mean at the anchor. An on window of 600
                // anchor gaps (period 800) fits several full on/off
                // periods into a few-thousand-request horizon, so the
                // silent windows actually materialize — and the burst
                // rate stays low enough that a within-SLO bounded
                // queue can still serve most of the capacity.
                let on = (mean_interarrival_cycles * 600.0) as u64;
                ArrivalPattern::OnOff {
                    mean_interarrival_cycles: mean_interarrival_cycles * 0.75,
                    on_cycles: on.max(1),
                    off_cycles: (on / 3).max(1),
                }
            }
            PatternKind::Diurnal => {
                // Peak 1.5×, trough 0.75× the anchor rate — a long-run
                // mean of 1.125×, close enough to the anchor that load
                // factors stay meaningful. A 500-gap phase gives a
                // few-thousand-request horizon several day/night flips.
                let phase = (mean_interarrival_cycles * 500.0) as u64;
                ArrivalPattern::Diurnal {
                    peak_interarrival_cycles: mean_interarrival_cycles / 1.5,
                    trough_interarrival_cycles: mean_interarrival_cycles / 0.75,
                    phase_cycles: phase.max(1),
                }
            }
        }
    }
}

/// Latency quantiles pulled from a `pk-obs` histogram snapshot — the
/// three the SLO dashboards care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median latency, cycles (log2-bucket upper edge).
    pub p50: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
    /// 99.9th percentile, cycles.
    pub p999: u64,
}

impl LatencySummary {
    /// Extracts p50/p99/p999 from a histogram snapshot.
    pub fn of(h: &pk_obs::HistogramSnapshot) -> Self {
        Self {
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

/// One serving run, from either engine: the open-loop result plus
/// everything the latency tables print. Which kernel personality served
/// it is the caller's to remember — [`run_serving_flow`] takes a
/// prebuilt network and never learns it.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Roster workload name.
    pub workload: &'static str,
    /// The overload policy in force.
    pub policy: OverloadPolicy,
    /// Offered load as a fraction of PK saturation capacity, percent.
    pub load_pct: u32,
    /// The engine's counters and latency histogram.
    pub result: OpenLoopResult,
    /// p50/p99/p999 of completed requests.
    pub latency: LatencySummary,
    /// The SLO budget applied, cycles.
    pub slo_budget_cycles: u64,
    /// PK saturation capacity, ops/cycle — the goodput denominator.
    pub capacity_ops_per_cycle: f64,
}

impl ServeRun {
    /// Goodput as a fraction of saturation capacity.
    pub fn goodput_fraction(&self) -> f64 {
        self.result.goodput_ops_per_cycle() / self.capacity_ops_per_cycle
    }
}

/// The two numbers every serving run is anchored to, from one solve of
/// the PK kernel's closed-loop model at `cores`:
///
/// * the machine's serving capacity, the PK saturation throughput in
///   ops/cycle. Both kernels are measured against it — "how much of the
///   hardware's capacity does this kernel serve within SLO" is the
///   question the paper's throughput figures ask, transposed to latency;
/// * the SLO budget in cycles, [`SLO_MULTIPLE`] × the PK mean request
///   time. One budget per workload, shared by every kernel/policy
///   variant — the SLO belongs to the product, not the kernel.
fn anchor(spec: &ServingSpec, cores: usize) -> Option<(f64, u64)> {
    let pk = roster::model(spec.workload, Personality::Pk)?
        .network(cores)
        .solve(cores);
    let slo = (pk.cycles_per_op * SLO_MULTIPLE as f64) as u64;
    Some((pk.ops_per_cycle, slo))
}

/// The overload policy a run uses: `shed = false` observes the SLO
/// over an unbounded queue (the historical posture); `shed = true`
/// bounds admission, rejects arrivals at a full queue, propagates
/// deadlines, and arms the workload's degradation hook at half the cap.
///
/// The cap is sized to the SLO, not to a constant: a request admitted
/// to a full queue waits roughly `cap / cores` mean service times, so
/// `cap = cores × SLO_MULTIPLE / 2` pins the worst admission wait at
/// half the SLO budget. A deeper queue would admit work that deadline
/// propagation is doomed to cancel; a shallower one idles servers
/// between bursts.
pub(crate) fn policy_for(spec: &ServingSpec, cores: usize, shed: bool, slo: u64) -> OverloadPolicy {
    if shed {
        let cap = (cores as u32) * SLO_MULTIPLE / 2;
        OverloadPolicy::shedding(cap, slo, spec.degrade_demand_pct, spec.degrade_stall_pct)
    } else {
        OverloadPolicy::observe(slo)
    }
}

/// Anchors one serving run — SLO, policy, arrival pattern and horizon
/// are all pinned to the *PK* kernel's capacity at `cores`, whichever
/// network serves — hands them to `engine`, and wraps its result.
fn serve(
    workload: &str,
    cores: usize,
    shed: bool,
    load_pct: u32,
    requests: u64,
    engine: impl FnOnce(&ServingSpec, ArrivalPattern, OverloadPolicy, u64) -> Option<OpenLoopResult>,
) -> Option<ServeRun> {
    let spec = ServingSpec::for_workload(workload)?;
    let (capacity, slo) = anchor(&spec, cores)?;
    let policy = policy_for(&spec, cores, shed, slo);

    let mean_gap = 1.0 / (capacity * load_pct as f64 / 100.0);
    let pattern = spec.pattern(mean_gap);
    let horizon = (requests as f64 * pattern.mean_interarrival_cycles()) as u64;

    let result = engine(&spec, pattern, policy, horizon.max(1))?;
    let latency = LatencySummary::of(&result.latency);
    Some(ServeRun {
        workload: spec.workload,
        policy,
        load_pct,
        result,
        latency,
        slo_budget_cycles: slo,
        capacity_ops_per_cycle: capacity,
    })
}

/// Runs `workload` as an open-loop server.
///
/// * `load_pct` — offered load as a percentage of the PK saturation
///   capacity (100 = arrivals exactly at capacity, 200 = 2× overload).
/// * `requests` — target arrival count; sets the horizon.
/// * `shed` — whether the kernel's overload policy bounds and sheds.
///
/// Returns `None` for non-serving workloads. Deterministic: a pure
/// function of its arguments (the plane's seed included).
#[allow(clippy::too_many_arguments)]
pub fn run_serving(
    workload: &str,
    choice: Personality,
    cores: usize,
    shed: bool,
    load_pct: u32,
    requests: u64,
    seed: u64,
    faults: &FaultPlane,
) -> Option<ServeRun> {
    serve(
        workload,
        cores,
        shed,
        load_pct,
        requests,
        |spec, pattern, policy, horizon| {
            // The serving network: the same roster model the closed
            // figures use, under the kernel actually being measured.
            let net = roster::model(spec.workload, choice)?.network(cores);
            Some(simulate_open(
                &net,
                cores,
                pattern,
                spec.clients,
                policy,
                horizon,
                seed,
                faults,
            ))
        },
    )
}

/// Runs `workload` as an open-loop server through the request-flow
/// engine ([`pk_sim::simulate_flow`]): same arrival process, client
/// mix, policy, and load anchoring as [`run_serving`], but admitted
/// requests traverse `network`'s stations through real FIFOs, and —
/// when `tracer` is `Some` — every request's causal path is recorded
/// for `pk-why` to fold (DESIGN.md §15).
///
/// `network` is the serving network of whichever kernel personality is
/// being measured (`roster::model(w, choice).network(cores)`, or a
/// `model_with_config` network for the adaptive personality) — stock,
/// coarse, PK, or an adaptive controller's converged config — while the
/// SLO budget and capacity denominator stay anchored to the PK kernel.
/// The tracer, if any, needs `cores + 1` tracks sized by
/// [`pk_sim::flow_ring_capacity`].
///
/// Returns `None` for non-serving workloads. Deterministic: a pure
/// function of its arguments, trace stream included.
#[allow(clippy::too_many_arguments)]
pub fn run_serving_flow(
    workload: &str,
    network: &Network,
    cores: usize,
    shed: bool,
    load_pct: u32,
    requests: u64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Option<ServeRun> {
    serve(
        workload,
        cores,
        shed,
        load_pct,
        requests,
        |spec, pattern, policy, horizon| {
            Some(simulate_flow(
                network,
                cores,
                pattern,
                spec.clients,
                policy,
                horizon,
                seed,
                tracer,
                &FaultPlane::disabled(),
            ))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_exactly_the_serving_roster() {
        for w in SERVING {
            assert!(ServingSpec::for_workload(w).is_some(), "{w} missing");
        }
        for w in ["gmake", "pedsort", "metis", "postgres", "nonsense"] {
            assert!(ServingSpec::for_workload(w).is_none(), "{w} is not serving");
        }
    }

    #[test]
    fn run_is_deterministic() {
        let plane = FaultPlane::disabled();
        let run = || {
            run_serving(
                "memcached",
                Personality::Pk,
                8,
                true,
                150,
                2_000,
                42,
                &plane,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.result.latency.buckets, b.result.latency.buckets);
        assert_eq!(a.result.arrivals, b.result.arrivals);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn overload_sheds_and_normal_load_mostly_meets_slo() {
        let plane = FaultPlane::disabled();
        let normal =
            run_serving("memcached", Personality::Pk, 8, true, 60, 3_000, 42, &plane).unwrap();
        assert_eq!(normal.result.accounted(), normal.result.arrivals);
        assert!(
            normal.result.slo_violations * 10 < normal.result.completed,
            "PK at 60% load should mostly meet SLO: {} violations / {}",
            normal.result.slo_violations,
            normal.result.completed
        );

        let over = run_serving(
            "memcached",
            Personality::Pk,
            8,
            true,
            200,
            3_000,
            42,
            &plane,
        )
        .unwrap();
        assert!(
            over.result.rejected > 0,
            "2x overload must shed: {:?}",
            over.result
        );
        assert!(
            over.result.queue_depth_peak <= 32,
            "cap cores x SLO_MULTIPLE / 2 must bound the queue"
        );
    }

    #[test]
    fn all_serving_specs_run_on_both_kernels() {
        let plane = FaultPlane::disabled();
        for w in SERVING {
            for choice in [Personality::Stock, Personality::Pk] {
                let r = run_serving(w, choice, 4, false, 80, 1_000, 42, &plane)
                    .unwrap_or_else(|| panic!("{w} under {choice:?} must run"));
                assert!(r.result.completed > 0, "{w}/{choice:?} completed nothing");
                assert_eq!(r.result.accounted(), r.result.arrivals);
                // Zero offered load is an infinite mean gap: no arrivals,
                // and no overflow summing a saturated on/off window.
                let idle = run_serving(w, choice, 4, true, 0, 100, 42, &plane)
                    .unwrap_or_else(|| panic!("{w} under {choice:?} must run idle"));
                assert_eq!(idle.result.arrivals, 0, "{w}/{choice:?} at 0% load");
                assert_eq!(idle.result.accounted(), 0);
            }
        }
    }

    #[test]
    fn flow_engine_sees_the_same_offered_stream_as_the_lumped_one() {
        // Same anchoring, same seed: the two engines must agree on
        // everything on the arrival side of the admission decision.
        let plane = FaultPlane::disabled();
        let net = roster::model("exim", Personality::Stock)
            .unwrap()
            .network(8);
        let f = run_serving_flow("exim", &net, 8, true, 120, 2_000, 42, None).unwrap();
        let o = run_serving("exim", Personality::Stock, 8, true, 120, 2_000, 42, &plane).unwrap();
        assert_eq!(f.result.arrivals, o.result.arrivals);
        assert_eq!(f.result.distinct_users, o.result.distinct_users);
        assert_eq!(f.result.new_connections, o.result.new_connections);
        assert_eq!(f.result.slow_requests, o.result.slow_requests);
        assert_eq!(f.slo_budget_cycles, o.slo_budget_cycles);
        assert_eq!(f.result.accounted(), f.result.arrivals);
    }

    #[test]
    fn flow_run_traces_every_personality_without_ring_overflow() {
        use pk_sim::flow_ring_capacity;
        use pk_trace::EventKind;
        let cores = 8;
        for choice in [Personality::Stock, Personality::Coarse, Personality::Pk] {
            let net = roster::model("memcached", choice).unwrap().network(cores);
            let tracer = Tracer::new(
                cores + 1,
                flow_ring_capacity(1_500, cores, net.stations().len()),
            );
            let r = run_serving_flow("memcached", &net, cores, true, 80, 1_000, 42, Some(&tracer))
                .unwrap();
            assert!(r.result.completed > 0, "{choice:?} completed nothing");
            assert_eq!(tracer.dropped(), 0, "{choice:?} overflowed its rings");
            let events = tracer.drain();
            let ends = events
                .iter()
                .filter(|e| e.kind == EventKind::CtxEnd)
                .count() as u64;
            assert_eq!(ends, r.result.completed, "{choice:?} ctx envelope");
        }
    }

    #[test]
    fn slo_budget_scales_with_the_pk_request_time() {
        let spec = ServingSpec::for_workload("memcached").unwrap();
        let (_, slo8) = anchor(&spec, 8).unwrap();
        assert!(slo8 > 0);
        // The budget is a multiple of the mean request time, so it is
        // far above the p50 of a healthy run.
        let plane = FaultPlane::disabled();
        let r = run_serving(
            "memcached",
            Personality::Pk,
            8,
            false,
            50,
            2_000,
            42,
            &plane,
        )
        .unwrap();
        assert!(r.latency.p50 < slo8, "p50 {} vs slo {slo8}", r.latency.p50);
    }
}
