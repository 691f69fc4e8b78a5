//! `serving_tail`: the two report paths over the open-loop engines at
//! 48 cores.
//!
//! (a) the `latency_report` path — `pk_serve::run_serving` (lumped
//! engine, tracing off) over SERVING × {stock, pk} × {60 % load, 200 %
//! unbounded, 200 % shedding};
//! (b) the `tail_report` path — `Tracer::new` → `run_serving_flow` with
//! the tracer → `drain` → `pk_why::fold` → `RequestCost::of` →
//! `attribute` at p50/p99/p999 → `exemplars`/`encode_exemplars`, over
//! SERVING × {stock, pk} at 60 % load.
//!
//! It uses the simulator differently from `paper_sweep` (arrival
//! schedule, admission, shedding) and is the only workload where
//! `trace` and `why` do real work. The light path is (a), the heavy
//! path (b), both in requests per second of host time, so a gain for
//! the traced path that costs the untraced one shows, and vice versa.
//! The "open loop" is simulated time: the host sees one caller issuing
//! the next call when the previous returns.

use crate::harness::{fnv64, Ledger, Recorder};
use crate::{Rep, Side, Slice, Stats, Workload};
use pk_fault::FaultPlane;
use pk_serve::{run_serving, run_serving_flow, SERVING};
use pk_sim::{flow_ring_capacity, Network};
use pk_trace::Tracer;
use pk_why::{attribute, encode_exemplars, exemplars, fold, RequestCost};
use pk_workloads::{roster, KernelChoice};

const KERNELS: [(KernelChoice, &str); 2] =
    [(KernelChoice::Stock, "stock"), (KernelChoice::Pk, "pk")];
const CORES: usize = 48;
/// (shedding, load as % of PK saturation capacity, label).
const POSTURES: [(bool, u32, &str); 3] = [
    (false, 60, "normal"),
    (false, 200, "overload"),
    (true, 200, "shed"),
];
const TRACED_LOAD_PCT: u32 = 60;
const QUANTILES: [(f64, &str); 3] = [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")];
const EXEMPLARS_PER_CELL: usize = 3;

/// Requests per cell and rep: (grid a, grid b). Grid (b) allocates
/// `flow_ring_capacity` slots per track and fills about a twentieth of
/// them, so its size sets the peak resident set.
const FULL_REQUESTS: (u64, u64) = (40_000, 20_000);
const SMOKE_REQUESTS: (u64, u64) = (400, 200);
/// The warm-up slice of a set-up: a fifth of a rep.
const WARM_REQUESTS: (u64, u64) = (8_000, 4_000);

pub struct ServingTail {
    seed: u64,
    requests: (u64, u64),
    /// The serving networks of grid (b), built once in set-up.
    nets: Vec<(&'static str, &'static str, Network)>,
    plane: FaultPlane,
    stats: Stats,
    reps_disagree: bool,
}

fn shed(r: &pk_sim::OpenLoopResult) -> u64 {
    r.rejected + r.shed_oldest + r.shed_probabilistic
}

impl ServingTail {
    fn pass(&mut self, requests: (u64, u64), rec: &Recorder, ledger: &mut Ledger) -> Rep {
        let mut stats = Stats::new();
        let mut slices = Vec::with_capacity(24);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let (mut open_arrivals, mut open_s) = ([0u64; 2], [0.0f64; 2]);
        let (mut arrivals, mut completed, mut shed_total) = (0u64, 0u64, 0u64);
        let mut traced_arrivals = 0u64;
        let (mut new_s, mut flow_s, mut drain_s, mut fold_s, mut attr_s, mut ex_s) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut events, mut slots, mut dropped, mut trees) = (0u64, 0u64, 0u64, 0u64);

        let (_, wall_s) = rec.time("serving_tail.rep", 1, || {
            // Grid (a): the lumped engine, tracing off.
            for w in SERVING {
                for (k, (choice, kernel)) in KERNELS.into_iter().enumerate() {
                    for (shedding, load, posture) in POSTURES {
                        let (run, s) = rec.time("serve.run_serving", 1, || {
                            run_serving(
                                w,
                                choice,
                                CORES,
                                shedding,
                                load,
                                requests.0,
                                self.seed,
                                &self.plane,
                            )
                        });
                        attempted += 1;
                        let Some(run) = run else {
                            failed += 1;
                            continue;
                        };
                        let r = &run.result;
                        failed += u64::from(r.accounted() != r.arrivals);
                        open_arrivals[k] += r.arrivals;
                        open_s[k] += s;
                        slices.push(Slice {
                            side: Side::Light,
                            ops: r.arrivals as f64,
                            secs: s,
                        });
                        arrivals += r.arrivals;
                        completed += r.completed;
                        shed_total += shed(r);
                        let prefix = format!("open.{w}.{kernel}.{posture}");
                        stats.insert(format!("{prefix}.arrivals"), r.arrivals.to_string());
                        stats.insert(format!("{prefix}.completed"), r.completed.to_string());
                        stats.insert(format!("{prefix}.shed"), shed(r).to_string());
                        stats.insert(format!("{prefix}.p50"), run.latency.p50.to_string());
                        stats.insert(format!("{prefix}.p99"), run.latency.p99.to_string());
                        stats.insert(format!("{prefix}.p999"), run.latency.p999.to_string());
                    }
                }
            }

            // Grid (b): the per-station engine with causal tracing on,
            // then the whole pk-why chain, ring allocation included.
            for (w, kernel, net) in &self.nets {
                let leaks_before = pk_trace::ctx_leaks();
                let arrivals_before = traced_arrivals;
                let (_, chain_s) = rec.time("serving_tail.traced_chain", 1, || {
                    let capacity = flow_ring_capacity(requests.1, CORES, net.stations().len());
                    let (tracer, s) =
                        rec.time("trace.tracer_new", 1, || Tracer::new(CORES + 1, capacity));
                    new_s += s;
                    slots += (capacity * (CORES + 1)) as u64;
                    let (run, s) = rec.time("sim.flow.traced", 1, || {
                        run_serving_flow(
                            w,
                            net,
                            CORES,
                            false,
                            TRACED_LOAD_PCT,
                            requests.1,
                            self.seed,
                            Some(&tracer),
                        )
                    });
                    flow_s += s;
                    attempted += 1;
                    let Some(run) = run else {
                        failed += 1;
                        return;
                    };
                    dropped += tracer.dropped();
                    let (captured, s) = rec.time("trace.drain", 1, || tracer.drain());
                    drain_s += s;
                    events += captured.len() as u64;
                    let (f, s) = rec.time("why.fold", 1, || fold(&captured));
                    fold_s += s;
                    let (attributions, s) = rec.time("why.attribute", 1, || {
                        let costs: Vec<RequestCost> = f.trees.iter().map(RequestCost::of).collect();
                        QUANTILES.map(|(q, _)| attribute(&costs, q))
                    });
                    attr_s += s;
                    let (bytes, s) = rec.time("why.exemplars", 1, || {
                        encode_exemplars(&exemplars(&f.trees, EXEMPLARS_PER_CELL, self.seed))
                    });
                    ex_s += s;

                    let r = &run.result;
                    traced_arrivals += r.arrivals;
                    trees += f.trees.len() as u64;
                    failed += u64::from(r.accounted() != r.arrivals)
                        + u64::from(f.trees.len() as u64 != r.completed)
                        + u64::from(f.malformed != 0)
                        + u64::from(pk_trace::ctx_leaks() != leaks_before);
                    let prefix = format!("traced.{w}.{kernel}");
                    stats.insert(format!("{prefix}.arrivals"), r.arrivals.to_string());
                    stats.insert(format!("{prefix}.completed"), r.completed.to_string());
                    stats.insert(format!("{prefix}.trees"), f.trees.len().to_string());
                    stats.insert(format!("{prefix}.events"), captured.len().to_string());
                    for ((_, label), a) in QUANTILES.iter().zip(&attributions) {
                        let Some(a) = a else {
                            failed += 1;
                            continue;
                        };
                        stats.insert(format!("{prefix}.{label}"), a.threshold_cycles.to_string());
                        stats.insert(
                            format!("{prefix}.{label}.top_class"),
                            a.by_class
                                .first()
                                .map_or("-", |c| c.class.as_str())
                                .to_string(),
                        );
                    }
                    stats.insert(
                        format!("{prefix}.exemplars_fnv64"),
                        format!("{:016x}", fnv64(&bytes)),
                    );
                });
                slices.push(Slice {
                    side: Side::Heavy,
                    ops: (traced_arrivals - arrivals_before) as f64,
                    secs: chain_s,
                });
            }
        });
        failed += dropped;

        if !self.stats.is_empty() && self.stats != stats && requests == self.requests {
            eprintln!("serving_tail: two reps at one seed simulated different results");
            self.reps_disagree = true;
        }
        self.stats = stats;

        for (k, (_, kernel)) in KERNELS.into_iter().enumerate() {
            ledger.sample(
                &format!("serve.open.{kernel}.requests_per_s"),
                open_arrivals[k] as f64 / open_s[k],
            );
        }
        ledger.sample(
            "sim.flow.traced_requests_per_s",
            traced_arrivals as f64 / flow_s,
        );
        ledger.sample("trace.tracer_new_s", new_s);
        ledger.sample("trace.drain_events_per_s", events as f64 / drain_s);
        ledger.sample("why.fold_events_per_s", events as f64 / fold_s);
        ledger.sample("why.attribute_requests_per_s", trees as f64 / attr_s);
        ledger.sample("why.exemplars_s", ex_s);
        ledger.sample("trace.ring_fill_ratio", events as f64 / slots as f64);
        ledger.counter("trace.events_recorded", events);
        ledger.counter("trace.events_dropped", dropped);
        ledger.counter("why.trees", trees);
        ledger.counter("serve.arrivals", arrivals);
        ledger.counter("serve.completed", completed);
        ledger.counter("serve.shed", shed_total);

        Rep {
            wall_s,
            slices,
            attempted,
            failed,
        }
    }
}

impl Workload for ServingTail {
    const NAME: &'static str = "serving_tail";

    fn setup(seed: u64, smoke: bool) -> Self {
        let mut nets = Vec::with_capacity(6);
        for w in SERVING {
            for (choice, kernel) in KERNELS {
                let net = roster::model(w, choice)
                    .expect("serving workload resolves")
                    .network(CORES);
                nets.push((w, kernel, net));
            }
        }
        let mut s = Self {
            seed,
            requests: if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS },
            nets,
            plane: FaultPlane::disabled(),
            stats: Stats::new(),
            reps_disagree: false,
        };
        let warm = if smoke { SMOKE_REQUESTS } else { WARM_REQUESTS };
        s.pass(warm, &Recorder::new(false), &mut Ledger::default());
        s.stats.clear();
        s
    }

    fn rep(&mut self, rec: &Recorder, ledger: &mut Ledger) -> Rep {
        self.pass(self.requests, rec, ledger)
    }

    /// The flow engine again with no tracer: the quotient of the two
    /// rates is what it costs to watch.
    fn probes(&mut self, rec: &Recorder, ledger: &mut Ledger) -> (u64, u64) {
        let (mut arrivals, mut secs, mut failed) = (0u64, 0.0, 0u64);
        for (w, _, net) in &self.nets {
            let (run, s) = rec.time("sim.flow.untraced", 1, || {
                run_serving_flow(
                    w,
                    net,
                    CORES,
                    false,
                    TRACED_LOAD_PCT,
                    self.requests.1,
                    self.seed,
                    None,
                )
            });
            match run {
                Some(run) => arrivals += run.result.arrivals,
                None => failed += 1,
            }
            secs += s;
        }
        let untraced = arrivals as f64 / secs;
        ledger.sample("sim.flow.untraced_requests_per_s", untraced);
        let traced = ledger
            .samples_of("sim.flow.traced_requests_per_s")
            .last()
            .copied()
            .expect("the rep ran before its probes");
        ledger.sample("trace.flow_overhead_ratio", untraced / traced);
        (self.nets.len() as u64, failed)
    }

    fn verify(&mut self, stats: &mut Stats) -> (u64, u64) {
        stats.extend(self.stats.iter().map(|(k, v)| (k.clone(), v.clone())));
        // Per-rep failures were already counted by the rep itself.
        (1, u64::from(self.reps_disagree))
    }
}
