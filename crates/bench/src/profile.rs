//! Cycle-attribution profiling of the workload models (`report profile`).
//!
//! Runs the discrete-event simulator with a `pk-trace` tracer attached,
//! folds the drained span stream into the paper's "top functions by %
//! of cycles" tables (§4), and re-derives the headline diagnosis:
//! Exim's stock collapse is the vfsmount-table spin lock (§5.2), and
//! the attribution moves off that lock entirely under PK. The derived
//! inversion gates CI — if the traced simulation stops reproducing it,
//! `report profile` exits non-zero.

use crate::{json, Resolved};
use pk_trace::{Event, Profile, Tracer};

/// Simulated operations per customer in a profiling run: long enough
/// for the attribution shares to stabilize, small enough that the
/// per-track rings (sized by [`ring_capacity`]) stay in tens of
/// megabytes at 48 cores.
pub const OPS_PER_CORE: u64 = 400;

/// One class's slice of a run's cycles, ranked by exclusive (self)
/// time like a sampling profiler.
#[derive(Debug, Clone)]
pub struct ClassShare {
    /// Resolved span-class name (station, `<station> (wait)`, `des.op`).
    pub name: String,
    /// Spans of this class that closed.
    pub count: u64,
    /// Σ (end − begin) cycles.
    pub inclusive: u64,
    /// Self cycles (inclusive minus children).
    pub exclusive: u64,
    /// `exclusive / total_cycles`.
    pub share: f64,
}

/// The folded attribution of one traced DES run.
#[derive(Debug, Clone)]
pub struct WorkloadAttribution {
    /// Roster workload name.
    pub workload: String,
    /// The [`pk_kernel::Personality::label`] the run was resolved under.
    pub config: &'static str,
    /// Simulated core count.
    pub cores: usize,
    /// Denominator: Σ inclusive cycles of the root `des.op` spans.
    pub total_cycles: u64,
    /// Events lost to ring overflow (0 in a correctly sized run).
    pub dropped_events: u64,
    /// Every class, ranked by exclusive cycles descending.
    pub classes: Vec<ClassShare>,
    /// Rendered paper-style table of the top classes.
    pub table: String,
}

impl WorkloadAttribution {
    /// Fraction of total cycles spent exclusively in classes whose name
    /// contains `pattern` (holding *and* waiting, since wait spans share
    /// the station's name).
    pub fn share_of(&self, pattern: &str) -> f64 {
        // u128: a collapsed 1024-core gmake run sums past u64::MAX.
        let hit: u128 = self
            .classes
            .iter()
            .filter(|c| c.name.contains(pattern))
            .map(|c| u128::from(c.exclusive))
            .sum();
        hit as f64 / self.total_cycles.max(1) as f64
    }

    /// The top class by exclusive cycles, excluding the synthetic
    /// `des.op` root (which only holds per-op residue).
    pub fn top_class(&self) -> &str {
        self.classes
            .iter()
            .map(|c| c.name.as_str())
            .find(|n| *n != "des.op")
            .unwrap_or("")
    }
}

/// Ring slots needed per track: every operation visits each station at
/// most once (span begin/end, plus a wait begin/end when it queues) and
/// opens/closes one root span, and the simulator adds a 20% warmup.
pub fn ring_capacity(ops_per_core: u64, stations: usize) -> usize {
    let total_ops = ops_per_core + (ops_per_core / 5).max(1) + 1;
    (total_ops as usize) * (4 * stations + 2)
}

/// Runs one traced simulation of `resolved`'s model and folds it.
/// Returns the attribution plus the raw drained events (for the Chrome
/// trace export).
pub fn trace(
    resolved: &Resolved,
    workload: &str,
    ops_per_core: u64,
    seed: u64,
) -> (WorkloadAttribution, Vec<Event>) {
    let cores = resolved.cores;
    let net = resolved.model.network(cores);
    let tracer = Tracer::new(cores, ring_capacity(ops_per_core, net.stations().len()));
    pk_sim::des::simulate_traced(
        &net,
        cores,
        ops_per_core,
        seed,
        &pk_fault::FaultPlane::disabled(),
        Some(&tracer),
    );
    let dropped_events = tracer.dropped();
    let events = tracer.drain();
    let profile = Profile::build(&events);
    let total = profile.total_cycles.max(1);
    let classes = profile
        .totals()
        .iter()
        .map(|t| ClassShare {
            name: t.name.clone(),
            count: t.count,
            inclusive: t.inclusive,
            exclusive: t.exclusive,
            share: t.exclusive as f64 / total as f64,
        })
        .collect();
    (
        WorkloadAttribution {
            workload: workload.to_string(),
            config: resolved.personality.label(),
            cores,
            total_cycles: profile.total_cycles,
            dropped_events,
            classes,
            table: profile.table(8),
        },
        events,
    )
}

/// The paper's Exim headline, derived rather than asserted: at 48
/// cores the stock kernel's cycles concentrate in the vfsmount-table
/// lock (holding + spinning), and under PK that attribution collapses.
#[derive(Debug, Clone)]
pub struct EximInversion {
    /// Stock share of exclusive cycles in `*vfsmount*` classes.
    pub stock_share: f64,
    /// Same share under PK.
    pub pk_share: f64,
    /// Stock's top non-root class (must be the vfsmount lock).
    pub stock_top: String,
    /// Whether the inversion was observed (the CI gate).
    pub observed: bool,
}

/// Stock share must dominate ([`STOCK_DOMINANCE`]) and the PK share
/// must collapse below [`PK_CEILING`].
pub const STOCK_DOMINANCE: f64 = 0.40;
/// See [`STOCK_DOMINANCE`].
pub const PK_CEILING: f64 = 0.05;

/// Derives the inversion from the two Exim attributions.
pub fn exim_inversion(stock: &WorkloadAttribution, pk: &WorkloadAttribution) -> EximInversion {
    let stock_share = stock.share_of("vfsmount");
    let pk_share = pk.share_of("vfsmount");
    let stock_top = stock.top_class().to_string();
    let observed =
        stock_top.contains("vfsmount") && stock_share >= STOCK_DOMINANCE && pk_share <= PK_CEILING;
    EximInversion {
        stock_share,
        pk_share,
        stock_top,
        observed,
    }
}

/// Per-workload generation-2 collapse structure: the station-name
/// pattern the §7 extrapolation blames past 48 cores. The same
/// [`STOCK_DOMINANCE`] / [`PK_CEILING`] thresholds gate it: on a big
/// topology the named structure must own the stock attribution and the
/// PK fix set (RCU walk, SNZI refs, per-socket shards) must erase it.
pub const GEN2_STRUCTURES: &[(&str, &str)] = &[
    ("exim", "path-walk"),
    ("apache", "dentry ref saturation"),
    ("memcached", "flow-director"),
    ("postgres", "path-walk"),
    ("gmake", "page freelist"),
    ("pedsort", "page freelist"),
    ("metis", "page freelist"),
];

/// The gen-2 station pattern for `workload`, if it has one.
pub fn gen2_structure(workload: &str) -> Option<&'static str> {
    GEN2_STRUCTURES
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, p)| *p)
}

/// One workload's generation-2 inversion on a big topology: stock
/// share of the named structure vs the share under PK's new fixes.
#[derive(Debug, Clone)]
pub struct Gen2Inversion {
    /// Roster workload name.
    pub workload: String,
    /// Station-name pattern from [`GEN2_STRUCTURES`].
    pub structure: &'static str,
    /// Share of stock exclusive cycles in the structure (hold + wait).
    pub stock_share: f64,
    /// Same share under PK.
    pub pk_share: f64,
    /// `stock_share >= STOCK_DOMINANCE && pk_share <= PK_CEILING`.
    pub observed: bool,
}

/// Derives the gen-2 inversion from a workload's stock and PK
/// attributions. `None` when the workload has no gen-2 structure.
pub fn gen2_inversion(
    stock: &WorkloadAttribution,
    pk: &WorkloadAttribution,
) -> Option<Gen2Inversion> {
    let structure = gen2_structure(&stock.workload)?;
    let stock_share = stock.share_of(structure);
    let pk_share = pk.share_of(structure);
    Some(Gen2Inversion {
        workload: stock.workload.clone(),
        structure,
        stock_share,
        pk_share,
        observed: stock_share >= STOCK_DOMINANCE && pk_share <= PK_CEILING,
    })
}

/// Renders the deterministic JSON artifact: fixed key order, fixed
/// 6-decimal float formatting, runs in roster × {stock, coarse, pk,
/// adaptive} order — byte-identical for a fixed seed. `inversion` is
/// `None` when Exim was filtered out of the run; `gen2` carries the
/// big-topology inversions (empty on the 48-core paper machine).
pub fn report_json(
    seed: u64,
    cores: usize,
    runs: &[WorkloadAttribution],
    inversion: Option<&EximInversion>,
    gen2: &[Gen2Inversion],
) -> String {
    let runs = runs.iter().map(|r| {
        let top = r.classes.iter().take(8).map(|c| {
            format!(
                "{{\"class\": \"{}\", \"share\": {:.6}, \"exclusive\": {}, \"inclusive\": {}, \"count\": {}}}",
                json::escape(&c.name),
                c.share,
                c.exclusive,
                c.inclusive,
                c.count
            )
        });
        format!(
            "{{\"workload\": \"{}\", \"config\": \"{}\", \"total_cycles\": {}, \"dropped_events\": {}, \"top\": [\n{}    ]}}",
            json::escape(&r.workload),
            r.config,
            r.total_cycles,
            r.dropped_events,
            json::lines("      ", top)
        )
    });
    let inversion = match inversion {
        Some(inv) => format!(
            "{{\"stock_vfsmount_share\": {:.6}, \"pk_vfsmount_share\": {:.6}, \"stock_top\": \"{}\", \"observed\": {}}}",
            inv.stock_share,
            inv.pk_share,
            json::escape(&inv.stock_top),
            inv.observed
        ),
        None => "null".to_string(),
    };
    let gen2 = gen2.iter().map(|g| {
        format!(
            "{{\"workload\": \"{}\", \"structure\": \"{}\", \"stock_share\": {:.6}, \"pk_share\": {:.6}, \"observed\": {}}}",
            json::escape(&g.workload),
            json::escape(g.structure),
            g.stock_share,
            g.pk_share,
            g.observed
        )
    });
    format!(
        "{{\n  \"seed\": {seed},\n  \"cores\": {cores},\n  \"workloads\": [\n{}  ],\n  \
         \"exim_inversion\": {inversion},\n  \"gen2_inversions\": [\n{}  ]\n}}\n",
        json::lines("    ", runs),
        json::lines("    ", gen2)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_kernel::Personality;
    use pk_sim::MachineSpec;
    use pk_workloads::roster;

    fn run_traced(
        workload: &str,
        personality: Personality,
        cores: usize,
        ops_per_core: u64,
        seed: u64,
        machine: MachineSpec,
    ) -> Option<(WorkloadAttribution, Vec<Event>)> {
        let resolved = crate::resolve(personality, workload, cores, machine, seed)?;
        Some(trace(&resolved, workload, ops_per_core, seed))
    }

    #[test]
    fn exim_attribution_inverts_between_kernels() {
        let (stock, _) = run_traced(
            "exim",
            Personality::Stock,
            48,
            200,
            42,
            MachineSpec::paper(),
        )
        .unwrap();
        let (pk, _) =
            run_traced("exim", Personality::Pk, 48, 200, 42, MachineSpec::paper()).unwrap();
        assert_eq!(stock.dropped_events, 0, "ring must hold the whole run");
        assert_eq!(pk.dropped_events, 0);
        let inv = exim_inversion(&stock, &pk);
        assert!(
            inv.observed,
            "stock_top={} stock={} pk={}",
            inv.stock_top, inv.stock_share, inv.pk_share
        );
    }

    #[test]
    fn every_roster_workload_profiles_without_drops() {
        for name in roster::NAMES {
            let (attr, events) =
                run_traced(name, Personality::Stock, 8, 100, 7, MachineSpec::paper()).unwrap();
            assert_eq!(attr.dropped_events, 0, "{name} overflowed its ring");
            assert!(attr.total_cycles > 0, "{name} folded no cycles");
            assert!(!events.is_empty(), "{name} traced no events");
        }
    }

    #[test]
    fn report_json_is_deterministic_and_shaped() {
        let run = || {
            let (stock, _) =
                run_traced("exim", Personality::Stock, 8, 100, 42, MachineSpec::paper()).unwrap();
            let (pk, _) =
                run_traced("exim", Personality::Pk, 8, 100, 42, MachineSpec::paper()).unwrap();
            let inv = exim_inversion(&stock, &pk);
            let gen2: Vec<_> = gen2_inversion(&stock, &pk).into_iter().collect();
            report_json(42, 8, &[stock, pk], Some(&inv), &gen2)
        };
        let a = run();
        assert_eq!(a, run(), "artifact must be byte-identical per seed");
        assert!(a.contains("\"seed\": 42"));
        assert!(a.contains("\"workload\": \"exim\""));
        assert!(a.contains("\"exim_inversion\""));
        assert!(a.contains("\"gen2_inversions\""));
        // Filtered runs emit a null exim block but stay parseable JSON.
        let b = report_json(42, 8, &[], None, &[]);
        assert!(b.contains("\"exim_inversion\": null"));
    }

    #[test]
    fn gen2_structures_invert_past_48_cores() {
        // The §7 extrapolation: at 64×16 the generation-2 structures own
        // the stock attribution and the new fixes erase them. Two
        // workloads (one VFS-side, one net-side) gate the claim; the
        // full-roster pass lives in `report profile`/CI.
        let machine = MachineSpec::with_topology(64, 16).expect("64x16 valid");
        for name in ["exim", "memcached"] {
            let (stock, _) = run_traced(name, Personality::Stock, 1024, 40, 42, machine).unwrap();
            let (pk, _) = run_traced(name, Personality::Pk, 1024, 40, 42, machine).unwrap();
            assert_eq!(stock.dropped_events, 0, "{name} overflowed its ring");
            let inv = gen2_inversion(&stock, &pk).expect("roster workloads have gen2 entries");
            assert!(
                inv.observed,
                "{name}: structure={} stock={:.3} pk={:.3}",
                inv.structure, inv.stock_share, inv.pk_share
            );
        }
    }
}
