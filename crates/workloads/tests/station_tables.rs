//! The model station tables against the fix registry, and DESIGN §3's
//! station index rendered from them.
//!
//! A classed row names only its class; `network_from` zeroes it through
//! `pk_kernel::fix_for_class`. These tests check that binding from both
//! sides (every class a stock station carries resolves to a lever, and
//! under PK no station whose lever is enabled survives), and that the
//! index in DESIGN.md is the tables as they are.

use pk_kernel::{fix_for_class, Fix, FixId, KernelConfig, Personality, FIXES, GEN2_FIXES};
use pk_obs::Table;
use pk_sim::{MachineSpec, StationKind};
use pk_workloads::stations::{Class, Demand, Row};
use pk_workloads::{apache, exim, gmake, memcached, metis, pedsort, postgres, roster};

/// Classes a stock station may carry with no registered lever. None
/// today: every kernel structure a model names has its fix.
const NO_LEVER: &[&str] = &[];

/// Rows that carry a class but that no config lowers, by workload:
/// pedsort has no kernel config, so its Threads freelist row stays under
/// every fix set (the roster runs Procs RR under PK, which has no such
/// row).
const UNLOWERED: &[(&str, &str)] = &[("pedsort", "mm.page_freelist")];

/// One table row, type-erased for the index.
struct Entry {
    table: &'static str,
    label: &'static str,
    kind: StationKind,
    is_system: bool,
    class: Class,
    demand: String,
}

impl Entry {
    /// The fix that zeroes this row, if any.
    fn fix(&self) -> Option<FixId> {
        match self.class {
            Class::Lowered(c) => fix_for_class(c),
            _ => None,
        }
    }
}

/// A constant as written: ten decimals, trailing zeros trimmed.
fn num(x: f64) -> String {
    let s = format!("{x:.10}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn entries<M>(table: &'static str, rows: &'static [Row<M>]) -> Vec<Entry> {
    let entry = |Row(label, kind, is_system, class, demand): &'static Row<M>| Entry {
        table,
        label,
        kind: *kind,
        is_system: *is_system,
        class: *class,
        demand: match demand {
            Demand::Frac(f) => format!("t·{}", num(*f)),
            Demand::PastOne(f) => format!("t·{} past 1 core", num(*f)),
            Demand::Gen2(c) => format!("t·{}·(n−1)", num(*c)),
            Demand::Shaped(name, _) => format!("fn {name}"),
        },
    };
    rows.iter().map(entry).collect()
}

/// Every model table, in roster order.
fn index() -> Vec<Entry> {
    [
        entries("exim", exim::SPEC.table),
        entries("memcached", memcached::SPEC.table),
        entries("apache", apache::SPEC.table),
        entries("postgres", postgres::TABLE),
        entries("gmake", gmake::SPEC.table),
        entries("pedsort threads", pedsort::THREADS),
        entries("pedsort procs", pedsort::PROCS),
        entries("metis 4KB", metis::SMALL_PAGES),
        entries("metis 2MB", metis::SUPER_PAGES),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn station_index() -> String {
    let table = Table::<Entry>::new()
        .col("{table:<15}", "", |e| e.table)
        .col("  {station:<28}", "", |e| e.label)
        .col("  {kind:<9}", "", |e| match e.kind {
            StationKind::Delay => "delay".to_string(),
            StationKind::Queue => "queue".to_string(),
            StationKind::NonScalable { collapse } => format!("spin {collapse}"),
        })
        .col("  {time:<6}", "", |e| {
            if e.is_system {
                "system"
            } else {
                "user"
            }
        })
        .col("  {class:<28}", "", |e| match e.class {
            Class::Unclassed => "-".to_string(),
            Class::Lowered(c) => c.to_string(),
            Class::Unlowered(c) => format!("{c} (unlowered)"),
        })
        .col("  {fix:<23}", "", |e| {
            e.fix().map_or("-".into(), |f| format!("{f:?}"))
        })
        .col("  {demand}", "", |e| e.demand.clone());
    table.text(&index())
}

/// Per registered fix: its class, the applications its registry row
/// names (Figure 1's for the first sixteen), and the tables it lowers.
fn fix_index() -> String {
    let index = index();
    let rows: Vec<(Fix, String)> = FIXES
        .iter()
        .chain(&GEN2_FIXES)
        .map(|fix| {
            let mut tables: Vec<&str> = index
                .iter()
                .filter(|e| e.fix() == Some(fix.id))
                .map(|e| e.table)
                .collect();
            tables.dedup();
            let lowered = if tables.is_empty() {
                "-".to_string()
            } else {
                tables.join(", ")
            };
            (*fix, lowered)
        })
        .collect();
    let table = Table::<(Fix, String)>::new()
        .col("{fix:<23}", "", |(f, _)| format!("{:?}", f.id))
        .col("  {class:<22}", "", |(f, _)| f.class)
        .col("  {apps:<29}", "", |(f, _)| {
            let apps: Vec<String> = f.apps.iter().map(ToString::to_string).collect();
            apps.join(", ")
        })
        .col("  {lowered in}", "", |(_, t)| t.clone());
    table.text(&rows)
}

/// The roster's models at 48 cores on the paper machine and at 1024 on
/// 64×16, under `config`.
fn networks(config: &KernelConfig) -> Vec<(&'static str, usize, pk_sim::Network)> {
    let big = MachineSpec::with_topology(64, 16).expect("64x16 is a valid topology");
    let mut out = Vec::new();
    for name in roster::NAMES {
        for (cores, machine) in [(48, MachineSpec::paper()), (1024, big)] {
            let m = roster::model_with_config(name, config, machine).expect("a roster name");
            out.push((name, cores, m.network(cores)));
        }
    }
    out
}

#[test]
fn every_stock_class_resolves_to_a_lever() {
    for (name, cores, net) in networks(&Personality::Stock.config(48)) {
        for st in net.stations() {
            let Some(class) = st.class else { continue };
            assert!(
                fix_for_class(class).is_some() || NO_LEVER.contains(&class),
                "{name}@{cores}: station {:?} carries class {class:?}, which no fix relieves",
                st.name
            );
        }
    }
}

#[test]
fn no_station_survives_its_enabled_fix() {
    // PK, and each fix alone on a stock kernel.
    let ids = FIXES.iter().chain(&GEN2_FIXES).map(|f| f.id);
    let configs = std::iter::once(KernelConfig::pk(48))
        .chain(ids.map(|f| KernelConfig::stock(48).with_fix(f, true)));
    for config in configs {
        for (name, cores, net) in networks(&config) {
            for st in net.stations() {
                let Some(class) = st.class else { continue };
                let fix = fix_for_class(class);
                assert!(
                    !fix.is_some_and(|f| config.has(f)) || UNLOWERED.contains(&(name, class)),
                    "{name}@{cores}: station {:?} survives its enabled fix {fix:?}",
                    st.name
                );
            }
        }
    }
}

#[test]
fn every_lowered_class_has_a_fix_and_every_unlowered_row_is_named() {
    for e in index() {
        match e.class {
            Class::Lowered(c) => {
                assert!(
                    fix_for_class(c).is_some(),
                    "{}/{}: no fix for {c:?}",
                    e.table,
                    e.label
                )
            }
            Class::Unlowered(c) => {
                let workload = e.table.split(' ').next().expect("a table name");
                assert!(
                    UNLOWERED.contains(&(workload, c)),
                    "{}/{}: unnamed",
                    e.table,
                    e.label
                )
            }
            Class::Unclassed => {}
        }
    }
}

/// DESIGN.md's text between `<!-- {name} -->` and `<!-- /{name} -->`,
/// without the code fence.
fn design_block(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md at the repository root");
    let (start, end) = (
        format!("<!-- {name} -->\n```text\n"),
        format!("```\n<!-- /{name} -->"),
    );
    let from = design
        .find(&start)
        .unwrap_or_else(|| panic!("DESIGN.md has no {start:?}"));
    let body = &design[from + start.len()..];
    body[..body.find(&end).expect("the block is closed")].to_string()
}

#[test]
fn design_station_index_is_rendered_from_the_tables() {
    for (name, rendered) in [
        ("station-index", station_index()),
        ("fix-index", fix_index()),
    ] {
        let kept = design_block(name);
        if kept != rendered {
            let line = kept.lines().zip(rendered.lines()).position(|(a, b)| a != b);
            panic!(
                "DESIGN.md's {name} block differs from the tables (first differing line: \
                 {line:?}); replace the block's body with:\n{rendered}"
            );
        }
    }
}
