//! Cycle-attribution profiling of the workload models (`report profile`).
//!
//! Runs the discrete-event simulator with a `pk-trace` tracer attached,
//! folds the drained span stream into the paper's "top functions by %
//! of cycles" tables (§4), and re-derives the headline diagnosis:
//! Exim's stock collapse is the vfsmount-table spin lock (§5.2), and
//! the attribution moves off that lock entirely under PK. The derived
//! inversion gates CI — if the traced simulation stops reproducing it,
//! `report profile` exits non-zero.

use crate::gate::{Check, Gate};
use crate::Resolved;
use pk_obs::{document, Cell, Table};
use pk_trace::{Event, Tracer};
use pk_why::{ClassTotals, Profile};

/// Simulated operations per customer in a profiling run: long enough
/// for the attribution shares to stabilize, small enough that the
/// per-track rings (sized by [`ring_capacity`]) stay in tens of
/// megabytes at 48 cores.
pub const OPS_PER_CORE: u64 = 400;

/// The folded attribution of one traced DES run.
#[derive(Debug, Clone)]
pub struct WorkloadAttribution {
    /// Roster workload name.
    pub workload: String,
    /// The [`pk_kernel::Personality::label`] the run was resolved under.
    pub config: &'static str,
    /// Simulated core count.
    pub cores: usize,
    /// Events lost to ring overflow (0 in a correctly sized run).
    pub dropped_events: u64,
    /// Every class ranked by exclusive cycles, over the denominator
    /// `total_cycles` (Σ inclusive cycles of the root `des.op` spans).
    pub profile: Profile,
}

impl WorkloadAttribution {
    /// Fraction of total cycles spent exclusively in classes whose name
    /// contains `pattern` (holding *and* waiting, since wait spans share
    /// the station's name).
    pub fn share_of(&self, pattern: &str) -> f64 {
        // u128: a collapsed 1024-core gmake run sums past u64::MAX.
        let hit: u128 = self
            .profile
            .totals()
            .iter()
            .filter(|c| c.name.contains(pattern))
            .map(|c| u128::from(c.exclusive))
            .sum();
        hit as f64 / self.profile.total_cycles.max(1) as f64
    }

    /// The top class by exclusive cycles, excluding the synthetic
    /// `des.op` root (which only holds per-op residue).
    pub fn top_class(&self) -> &str {
        self.profile
            .totals()
            .iter()
            .map(|c| c.name.as_str())
            .find(|n| *n != "des.op")
            .unwrap_or("")
    }
}

/// A profile's class rows out of `total_cycles`: the paper-style
/// top-functions table (`%cycl` of the total, then exclusive, inclusive
/// and count) and each class's JSON object.
pub fn class_table(total_cycles: u64) -> Table<ClassTotals> {
    Table::<ClassTotals>::new()
        .col("", "class", |c| c.name.clone())
        .col("", "share", move |c| {
            c.exclusive as f64 / total_cycles.max(1) as f64
        })
        .col("  {%cycl:>5.1}", "", move |c| {
            if total_cycles == 0 {
                0.0
            } else {
                100.0 * c.exclusive as f64 / total_cycles as f64
            }
        })
        .col("  {exclusive:>9}", "exclusive", |c| c.exclusive)
        .col("  {inclusive:>10}", "inclusive", |c| c.inclusive)
        .col("  {count:>8}", "count", |c| c.count)
        .col("  {class}", "", |c| c.name.clone())
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
    assert_eq!(
        tracer.torn(),
        0,
        "{workload}: the drain found claimed but unpublished slots"
    );
    (
        WorkloadAttribution {
            workload: workload.to_string(),
            config: resolved.personality.label(),
            cores,
            dropped_events,
            profile: Profile::build(&events),
        },
        events,
    )
}

/// Stock share must dominate ([`STOCK_DOMINANCE`]) and the PK share
/// must collapse below [`PK_CEILING`].
pub const STOCK_DOMINANCE: f64 = 0.40;
/// See [`STOCK_DOMINANCE`].
pub const PK_CEILING: f64 = 0.05;

/// A workload's (stock, PK) attributions.
pub type Pair<'a> = (&'a WorkloadAttribution, &'a WorkloadAttribution);

/// The paper's Exim headline as a gate, derived rather than asserted
/// and named after its JSON block: at 48 cores stock's top class is the
/// vfsmount-table lock (holding + spinning) with at least
/// [`STOCK_DOMINANCE`] of the cycles, and under PK that share collapses
/// to at most [`PK_CEILING`].
pub fn exim_gate((stock, pk): Pair) -> Vec<Check> {
    let top = stock.top_class();
    let (s, p) = (stock.share_of("vfsmount"), pk.share_of("vfsmount"));
    let observed = top.contains("vfsmount") && s >= STOCK_DOMINANCE && p <= PK_CEILING;
    Vec::new().check("exim_inversion", observed, || {
        let (s, p) = (100.0 * s, 100.0 * p);
        format!("stock top class {top}, vfsmount {s:.1}% of stock and {p:.1}% of PK cycles")
    })
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

/// The run's gate, selected by core count: at the paper's scale the
/// Exim headline ([`exim_gate`]; none when Exim was filtered out), past
/// 48 cores the gen-2 inversions, observed on at least two workloads
/// (every one, when fewer ran).
pub fn assess(cores: usize, exim: Option<Pair>, gen2: &[Gen2Inversion]) -> Vec<Check> {
    if cores <= 48 {
        return exim.map(exim_gate).unwrap_or_default();
    }
    let (observed, ran) = (gen2.iter().filter(|g| g.observed).count(), gen2.len());
    let required = ran.min(2);
    let held = required > 0 && observed >= required;
    Vec::new().check("gen2_inversions", held, || {
        format!("{observed}/{ran} observed (need >= {required})")
    })
}

/// The gen-2 inversion columns: a text line (stock's share clamped to
/// 100%) and a JSON object per workload.
pub fn gen2_table() -> Table<Gen2Inversion> {
    Table::<Gen2Inversion>::new()
        .col("  {:<10}", "workload", |g| g.workload.clone())
        .col(" {:<28}", "structure", |g| g.structure)
        .col("", "stock_share", |g| g.stock_share)
        .col(" stock {:>5.1}%", "", |g| 100.0 * g.stock_share.min(1.0))
        .col(" -> pk {:>4.1}%", "pk_share", |g| Cell::Share(g.pk_share))
        .col("", "observed", |g| g.observed)
        .col("  [{}]", "", |g| {
            if g.observed {
                "observed"
            } else {
                "NOT observed"
            }
        })
}

/// Renders the deterministic JSON artifact: runs in roster × {stock,
/// coarse, pk, adaptive} order — byte-identical for a fixed seed.
/// `exim` is `None` when Exim was filtered out of the run; `gen2`
/// carries the big-topology inversions (empty on the 48-core paper
/// machine).
pub fn report_json(
    seed: u64,
    cores: usize,
    runs: &[WorkloadAttribution],
    exim: Option<Pair>,
    gen2: &[Gen2Inversion],
) -> String {
    let runs_table = Table::<WorkloadAttribution>::new()
        .col("", "workload", |r| r.workload.clone())
        .col("", "config", |r| r.config)
        .col("", "total_cycles", |r| r.profile.total_cycles)
        .col("", "dropped_events", |r| r.dropped_events)
        .col("", "top", |r| {
            class_table(r.profile.total_cycles).block(r.profile.top_exclusive(8), 2)
        });
    let inversion_table = Table::<Pair>::new()
        .col("", "stock_vfsmount_share", |(s, _)| s.share_of("vfsmount"))
        .col("", "pk_vfsmount_share", |(_, p)| p.share_of("vfsmount"))
        .col("", "stock_top", |(s, _)| s.top_class().to_string())
        .col("", "observed", |&pair| exim_gate(pair)[0].held());
    let null = Cell::Json("null".to_string());
    document([
        ("seed", seed.into()),
        ("cores", cores.into()),
        ("workloads", runs_table.block(runs, 1)),
        (
            "exim_inversion",
            exim.map_or(null, |pair| inversion_table.object(&pair)),
        ),
        ("gen2_inversions", gen2_table().block(gen2, 1)),
    ])
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
        let checks = assess(48, Some((&stock, &pk)), &[]);
        let names: Vec<&str> = checks.iter().map(|c| c.name).collect();
        assert_eq!(names, ["exim_inversion"]);
        assert!(checks[0].held(), "{}", checks[0].violation());
    }

    #[test]
    fn every_roster_workload_profiles_without_drops() {
        for name in roster::NAMES {
            let (attr, events) =
                run_traced(name, Personality::Stock, 8, 100, 7, MachineSpec::paper()).unwrap();
            assert_eq!(attr.dropped_events, 0, "{name} overflowed its ring");
            assert!(attr.profile.total_cycles > 0, "{name} folded no cycles");
            assert!(!events.is_empty(), "{name} traced no events");
        }
    }

    #[test]
    fn filtered_runs_render_a_null_exim_block() {
        // Runs without Exim emit a null exim block but stay parseable JSON.
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
        let mut gen2 = Vec::new();
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
            gen2.push(inv);
        }
        let checks = assess(1024, None, &gen2);
        let names: Vec<&str> = checks.iter().map(|c| c.name).collect();
        assert_eq!(names, ["gen2_inversions"]);
        assert!(checks[0].held(), "{}", checks[0].violation());
    }
}
