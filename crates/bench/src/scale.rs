//! `scale`: the repo's perf-trajectory harness.
//!
//! **Deterministic metrics** — analytic (MVA) sweep points, seeded
//! discrete-event runs, and single-threaded writer-stall phases that
//! churn the real substrates and read the `rcu.*` counter deltas.
//! These are pure functions of the seed and regenerate
//! **byte-identically**, so they live in `BENCH_scale.json` and a
//! regenerated file must `cmp` equal to the committed one. Host
//! wall-clock is recorded by the repo benchmark (`benchmark/README.md`),
//! not here; the one timing this module takes is the engine-throughput
//! smoke behind `--check-engine`.
//!
//! The JSON is a flat object — one sorted dotted key per line — so
//! reading the engine floor back needs no JSON library, just the line
//! parser below.

use crate::personality::converge;
use pk_kernel::Personality;
use pk_obs::{document, Cell};
use pk_percpu::{CoreId, MAX_CORES};
use pk_sim::{des, CoreSweep};
use pk_sync::rcu;
use pk_sync::CYCLES_PER_SPIN_ITERATION;
use pk_workloads::roster;
use std::collections::BTreeMap;

/// Bumped whenever the metric set changes shape, so a stale baseline
/// differs from a regenerated file even where no value moved.
/// v2: added `topo.*` large-topology rows (16×12 / 192 cores).
/// v3: added `adapt.*` adaptive-personality convergence rows.
/// v4: four-way personality curves (stock/coarse/pk/adaptive) keyed by
/// topology at 96 (16×6), 192 (16×12), and 1024 (64×16) cores.
/// v5: dropped the blocking-writer rows (`stall.*.blocking.*` and each
/// substrate's reduction percentage): every RCU writer retires through
/// `call_rcu`.
pub const SCHEMA_VERSION: u64 = 5;

/// A flat, sorted metric map. `BTreeMap` ordering plus the renderer's
/// fixed float formatting is what makes the emitted JSON byte-identical
/// across runs.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    map: BTreeMap<String, Cell>,
}

impl Metrics {
    /// Empty metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an integer metric.
    pub fn put_u64(&mut self, key: &str, v: u64) {
        self.map.insert(key.to_string(), v.into());
    }

    /// Records a float metric (rendered to six decimals).
    pub fn put_f64(&mut self, key: &str, v: f64) {
        self.map.insert(key.to_string(), v.into());
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a metric as a float, as written (six decimals).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.map.get(key).and_then(|v| v.json().parse().ok())
    }

    /// Renders the flat JSON document: `{`, one `  "key": value,` line
    /// per metric in sorted order, `}`, trailing newline.
    pub fn to_json(&self) -> String {
        document(self.map.iter().map(|(k, v)| (k.as_str(), v.clone())))
    }

    /// Parses a document produced by [`Metrics::to_json`]. Returns the
    /// key → raw-value map; rejects lines it does not understand so a
    /// hand-edited baseline cannot half-parse.
    pub fn parse_json(text: &str) -> Result<BTreeMap<String, String>, String> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            let line = line.strip_suffix(',').unwrap_or(line);
            let (key, value) = line
                .split_once("\": ")
                .ok_or_else(|| format!("unparseable metric line: {line:?}"))?;
            let key = key
                .strip_prefix('"')
                .ok_or_else(|| format!("key missing opening quote: {line:?}"))?;
            if value.parse::<f64>().is_err() {
                return Err(format!("non-numeric value for {key:?}: {value:?}"));
            }
            map.insert(key.to_string(), value.to_string());
        }
        if map.is_empty() {
            return Err("baseline contains no metrics".to_string());
        }
        Ok(map)
    }
}

/// One writer-stall measurement: `rcu.*` counter deltas over a churn
/// phase plus the modeled writer-side stall they imply.
#[derive(Debug, Clone, Copy)]
pub struct StallRow {
    /// Grace periods the writers waited out.
    pub synchronize_calls: u64,
    /// Spin iterations inside those grace periods.
    pub sync_spin_iters: u64,
    /// Objects retired through `call_rcu`.
    pub call_rcu: u64,
    /// Deferred objects reclaimed during the phase.
    pub deferred_freed: u64,
    /// Deferred objects still queued when the phase ended.
    pub deferred_pending_at_end: u64,
    /// Modeled writer stall: every `synchronize` scans all reader
    /// slots (`MAX_CORES` × the per-iteration cycle constant) and then
    /// spins until stragglers pass a quiescent point.
    pub modeled_stall_cycles: u64,
}

/// Runs `f` between two `rcu` counter snapshots and models the writer
/// stall it cost. Starts from a clean slate (`rcu_barrier`) so the
/// pending gauge reads as an absolute for this phase.
pub fn measure_stall(f: impl FnOnce()) -> StallRow {
    rcu::rcu_barrier();
    let before = rcu::stats_snapshot();
    f();
    let after = rcu::stats_snapshot();
    let synchronize_calls = after.synchronize_calls - before.synchronize_calls;
    let sync_spin_iters = after.sync_spin_iters - before.sync_spin_iters;
    StallRow {
        synchronize_calls,
        sync_spin_iters,
        call_rcu: after.call_rcu_calls - before.call_rcu_calls,
        deferred_freed: after.deferred_freed - before.deferred_freed,
        deferred_pending_at_end: after.deferred_pending,
        modeled_stall_cycles: synchronize_calls * MAX_CORES as u64 * CYCLES_PER_SPIN_ITERATION
            + sync_spin_iters * CYCLES_PER_SPIN_ITERATION,
    }
}

impl StallRow {
    fn emit(&self, m: &mut Metrics, prefix: &str) {
        m.put_u64(
            &format!("{prefix}.synchronize_calls"),
            self.synchronize_calls,
        );
        m.put_u64(&format!("{prefix}.sync_spin_iters"), self.sync_spin_iters);
        m.put_u64(&format!("{prefix}.call_rcu"), self.call_rcu);
        m.put_u64(&format!("{prefix}.deferred_freed"), self.deferred_freed);
        m.put_u64(
            &format!("{prefix}.deferred_pending_at_end"),
            self.deferred_pending_at_end,
        );
        m.put_u64(
            &format!("{prefix}.modeled_stall_cycles"),
            self.modeled_stall_cycles,
        );
    }
}

/// Dcache insert/remove churn: the acceptance-criteria path. Every
/// insert and remove republishes a bucket and retires the old vector.
pub fn stall_dcache(ops: usize) -> StallRow {
    use pk_vfs::{Dcache, DentryKey, InodeId, VfsConfig, VfsStats};
    use std::sync::Arc;
    let dc = Dcache::new(64, VfsConfig::pk(8), Arc::new(VfsStats::new()));
    measure_stall(|| {
        for i in 0..ops {
            let key = DentryKey::new(InodeId(1), format!("f{i}"));
            let core = CoreId(i % 8);
            dc.insert(key.clone(), InodeId(i as u64 + 2), core)
                .expect("no faults armed");
            assert!(dc.remove(&key, core));
        }
    })
}

/// Mount/umount churn: each umount retires the table's mount reference
/// (and any per-core cache entries) past a grace period.
pub fn stall_mount(ops: usize) -> StallRow {
    use pk_vfs::{MountTable, VfsConfig, VfsStats};
    use std::sync::Arc;
    let t = MountTable::new(VfsConfig::pk(8), Arc::new(VfsStats::new()));
    measure_stall(|| {
        for _ in 0..ops {
            t.mount("/mnt");
            let m = t.resolve("/mnt/x", CoreId(0)).expect("mounted");
            m.put(CoreId(0));
            t.umount("/mnt").expect("was mounted");
        }
    })
}

/// Socket-table churn: each bind/listen republishes the port map and
/// retires the previous version.
pub fn stall_net(ops: usize) -> StallRow {
    use pk_net::{NetConfig, NetStack};
    let stack = NetStack::new(NetConfig::pk(8));
    measure_stall(|| {
        for i in 0..ops {
            let port = 1024 + i as u16;
            stack.udp_bind(port, CoreId(0)).expect("port free");
            stack.listen(port);
        }
    })
}

/// mmap/munmap churn: each call republishes the region list; munmap
/// retires the unmapped region's metadata past a grace period.
pub fn stall_mm(ops: usize) -> StallRow {
    use pk_mm::{AddressSpace, MmConfig, MmStats, NumaAllocator, PageSize};
    use std::sync::Arc;
    let mut cfg = MmConfig::pk(8);
    cfg.numa_nodes = 2;
    cfg.pages_per_node = 100_000;
    let stats = Arc::new(MmStats::new());
    let alloc = Arc::new(NumaAllocator::new(cfg, Arc::clone(&stats)));
    let asp = AddressSpace::new(cfg, alloc, stats);
    measure_stall(|| {
        for _ in 0..ops {
            let r = asp.mmap(64 << 10, PageSize::Base4K).expect("address space");
            asp.munmap(r, 0).expect("mapped");
        }
    })
}

/// A writer-stall phase: substrate name, churn, and its op count.
type StallPhase = (&'static str, fn(usize) -> StallRow, usize);

/// Every RCU-converted substrate's churn, as `deterministic_metrics`
/// runs it.
const STALL_PHASES: [StallPhase; 4] = [
    ("dcache", stall_dcache, 1024),
    ("mount", stall_mount, 256),
    ("net", stall_net, 512),
    ("mm", stall_mm, 256),
];

/// Computes the full deterministic metric set for `seed`.
///
/// Everything here is a pure function of the seed: MVA solves are
/// plain f64 arithmetic, DES runs are seeded, and the stall phases run
/// single-threaded on freshly built substrates. Nothing else in the
/// process may churn RCU meanwhile — the `rcu.*` counters are
/// process-global and concurrent churn would perturb the deltas.
pub fn deterministic_metrics(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    m.put_u64("meta.schema_version", SCHEMA_VERSION);
    m.put_u64("meta.seed", seed);

    // Analytic sweep points: the paper's per-core throughput axis at
    // 1 and 48 cores, both kernels, all seven workloads.
    for name in roster::NAMES {
        for choice in [Personality::Stock, Personality::Pk] {
            let label = choice.label();
            let model = roster::model(name, choice).expect("roster name resolves");
            let p1 = CoreSweep::point(model.as_ref(), 1);
            let p48 = CoreSweep::point(model.as_ref(), 48);
            let prefix = format!("model.{name}.{label}");
            m.put_f64(
                &format!("{prefix}.c1.per_core_per_sec"),
                p1.per_core_per_sec,
            );
            m.put_f64(
                &format!("{prefix}.c48.per_core_per_sec"),
                p48.per_core_per_sec,
            );
            m.put_f64(
                &format!("{prefix}.c48.scalability"),
                p48.per_core_per_sec / p1.per_core_per_sec,
            );

            // Seeded discrete-event cross-check at 8 cores: measured
            // cycles/op and total cache-line traffic.
            let net = model.network(8);
            let r = des::simulate(&net, 8, 2_000, seed);
            let des_prefix = format!("des.{name}.{label}.c8");
            m.put_f64(&format!("{des_prefix}.cycles_per_op"), r.cycles_per_op);
            m.put_u64(
                &format!("{des_prefix}.line_transfers"),
                r.line_transfers.iter().sum(),
            );
        }
    }

    // Large-topology extrapolation rows (§7): the roster's four-way
    // personality curves (stock / coarse / PK / adaptive) on scaled
    // machines at 96, 192, and 1024 cores. MVA rows cover every
    // workload × fixed personality; the adaptive personality converges
    // the controller per topology on the headline workload (full-roster
    // adaptive rows at 48 cores live under `adapt.*`). One seeded DES
    // cross-check per kernel on Exim pins the wheel engine's
    // large-topology path byte-identically.
    let topologies = [
        ("16x6", 16usize, 6usize, 96usize),
        ("16x12", 16, 12, 192),
        ("64x16", 64, 16, 1024),
    ];
    for (tlabel, sockets, per, cores) in topologies {
        let big =
            pk_sim::MachineSpec::with_topology(sockets, per).expect("sweep topologies are valid");
        for name in roster::NAMES {
            for choice in [Personality::Stock, Personality::Coarse, Personality::Pk] {
                let label = choice.label();
                let model = roster::model_on(name, choice, big).expect("roster name resolves");
                let p = CoreSweep::try_point(model.as_ref(), cores)
                    .expect("full-machine core count fits its own topology");
                m.put_f64(
                    &format!("topo.{tlabel}.{name}.{label}.c{cores}.per_core_per_sec"),
                    p.per_core_per_sec,
                );
            }
        }
        {
            let (adaptive, out) = converge("exim", cores, big, seed).expect("exim resolves");
            let p = CoreSweep::try_point(adaptive.as_ref(), cores)
                .expect("full-machine core count fits its own topology");
            let prefix = format!("topo.{tlabel}.exim.adaptive.c{cores}");
            m.put_f64(&format!("{prefix}.per_core_per_sec"), p.per_core_per_sec);
            m.put_u64(
                &format!("{prefix}.promoted"),
                out.config.enabled_count() as u64,
            );
            m.put_u64(&format!("{prefix}.converged"), u64::from(out.converged));
        }
        for choice in [Personality::Stock, Personality::Pk] {
            let label = choice.label();
            let model = roster::model_on("exim", choice, big).expect("exim resolves");
            let net = model.network(cores);
            let ops = (192_000 / cores as u64).max(100);
            let r = des::simulate(&net, cores, ops, seed);
            let prefix = format!("topo.{tlabel}.exim.{label}.des.c{cores}");
            m.put_f64(&format!("{prefix}.cycles_per_op"), r.cycles_per_op);
            m.put_u64(&format!("{prefix}.events"), r.events_processed);
        }
    }

    // Adaptive-personality convergence rows: for every workload, boot
    // the zero-fix adaptive config, let the controller promote levers
    // from seeded DES observations, and pin the outcome — promoted-fix
    // count, epochs, flap bound, and the converged config's measured
    // cycles/op.
    {
        let machine = pk_sim::MachineSpec::paper();
        for name in roster::NAMES {
            let (adaptive, out) = converge(name, 48, machine, seed).expect("roster name resolves");
            let prefix = format!("adapt.{name}.c48");
            m.put_u64(
                &format!("{prefix}.promoted"),
                out.config.enabled_count() as u64,
            );
            m.put_u64(&format!("{prefix}.epochs"), u64::from(out.epochs));
            m.put_u64(&format!("{prefix}.converged"), u64::from(out.converged));
            m.put_u64(&format!("{prefix}.decisions"), out.decisions.len() as u64);
            m.put_u64(
                &format!("{prefix}.max_direction_changes"),
                u64::from(out.max_direction_changes()),
            );
            let r = des::simulate(&adaptive.network(48), 48, 2_000, seed);
            m.put_f64(&format!("{prefix}.des.cycles_per_op"), r.cycles_per_op);
        }
    }

    // Writer-stall phases: churn on every RCU-converted substrate.
    for (name, run, ops) in STALL_PHASES {
        run(ops).emit(&mut m, &format!("stall.{name}.deferred"));
    }
    // Leave the global queues clean for whoever runs next.
    rcu::rcu_barrier();
    m
}

/// Times the calendar-queue DES engine over the full 48-core roster
/// (both kernels) and returns events/sec: the rate the CI throughput
/// smoke compares against its floor. The only host timing this module
/// takes, and never persisted into `BENCH_scale.json` (the committed
/// engine baseline is a hand-set floor, not a recorded measurement).
pub fn roster_events_per_sec(ops_per_core: u64, seed: u64) -> f64 {
    let mut events = 0u64;
    let start = std::time::Instant::now();
    for name in roster::NAMES {
        for choice in [Personality::Stock, Personality::Pk] {
            let model = roster::model(name, choice).expect("roster name resolves");
            let net = model.network(48);
            events += des::simulate(&net, 48, ops_per_core, seed).events_processed;
        }
    }
    events as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_and_sorts() {
        let mut m = Metrics::new();
        m.put_u64("z.last", 7);
        m.put_f64("a.first", 1.5);
        let text = m.to_json();
        assert!(text.starts_with("{\n  \"a.first\": 1.500000,\n"));
        assert!(text.ends_with("  \"z.last\": 7\n}\n"));
        let parsed = Metrics::parse_json(&text).unwrap();
        assert_eq!(parsed["a.first"], "1.500000");
        assert_eq!(parsed["z.last"], "7");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Metrics::parse_json("{\n  \"k\": not-a-number\n}\n").is_err());
        assert!(Metrics::parse_json("").is_err());
    }

    #[test]
    fn every_substrate_retires_through_call_rcu() {
        let _serial = crate::rcu_serial();
        // Retires per churn iteration, in `STALL_PHASES` order.
        for ((name, run, _), per_op) in STALL_PHASES.into_iter().zip([2, 1, 2, 2]) {
            let row = run(64);
            assert_eq!(row.synchronize_calls, 0, "{name}: a writer waited");
            assert_eq!(row.call_rcu, 64 * per_op, "{name}: one call_rcu per retire");
            // Nothing may leak: retired objects are freed or still queued.
            assert_eq!(
                row.deferred_freed + row.deferred_pending_at_end,
                row.call_rcu,
                "{name}"
            );
        }
        rcu::rcu_barrier();
    }
}
