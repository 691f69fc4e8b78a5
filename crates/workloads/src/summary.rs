//! Cross-application summaries: Figure 3 and Figure 12.

use crate::roster;
use pk_kernel::Personality;
use pk_sim::{CoreSweep, MachineSpec};

/// One Figure-3 bar pair: per-core throughput at 48 cores relative to
/// one core, before and after the modifications.
#[derive(Debug, Clone)]
pub struct Figure3Bar {
    /// Application name.
    pub app: &'static str,
    /// Stock ratio (the "before" bar).
    pub stock: f64,
    /// PK ratio (the "after" bar).
    pub pk: f64,
}

/// Computes every Figure-3 bar on the paper machine.
pub fn figure3(max_cores: usize) -> Vec<Figure3Bar> {
    figure3_on(max_cores, MachineSpec::paper())
}

/// [`figure3`] on an arbitrary machine topology — the §7 "past 48
/// cores" axis. "Before" and "after" are the roster's stock and PK
/// models, so the application side follows [`roster::pairing`]:
/// pedsort's before is the threaded version and its after the
/// round-robin process version (both on stock — the fix was in the
/// application); Metis pairs 4 KB stock against 2 MB PK; PostgreSQL
/// stock against PK with the modified lock manager.
pub fn figure3_on(max_cores: usize, machine: MachineSpec) -> Vec<Figure3Bar> {
    roster::NAMES
        .iter()
        .zip(APPS)
        .map(|(name, (app, ..))| {
            let ratio = |personality| {
                let m = roster::model_on(name, personality, machine).expect("roster name resolves");
                CoreSweep::figure3_ratio(m.as_ref(), max_cores)
            };
            Figure3Bar {
                app,
                stock: ratio(Personality::Stock),
                pk: ratio(Personality::Pk),
            }
        })
        .collect()
}

/// Whether a residual bottleneck is hardware or application structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckKind {
    /// Shared hardware (NIC, DRAM, caches).
    Hardware,
    /// Application-internal structure.
    Application,
}

/// One Figure-12 row: the bottleneck that remains at 48 cores on the
/// best configuration.
#[derive(Debug, Clone)]
pub struct Figure12Row {
    /// Application name.
    pub app: &'static str,
    /// HW or App.
    pub kind: BottleneckKind,
    /// Description (the Figure-12 wording).
    pub description: &'static str,
    /// What the model reports as the 48-core limiter (diagnostic).
    pub observed: String,
}

/// The roster's applications as the figures spell them, each with
/// Figure 12's published attribution, in [`roster::NAMES`] order.
const APPS: [(&str, BottleneckKind, &str); 7] = [
    (
        "Exim",
        BottleneckKind::Application,
        "App: Contention on spool directories",
    ),
    (
        "memcached",
        BottleneckKind::Hardware,
        "HW: Transmit queues on NIC",
    ),
    (
        "Apache",
        BottleneckKind::Hardware,
        "HW: Receive queues on NIC",
    ),
    (
        "PostgreSQL",
        BottleneckKind::Application,
        "App: Application-level spin lock",
    ),
    (
        "gmake",
        BottleneckKind::Application,
        "App: Serial stages and stragglers",
    ),
    ("pedsort", BottleneckKind::Hardware, "HW: Cache capacity"),
    ("Metis", BottleneckKind::Hardware, "HW: DRAM throughput"),
];

/// Derives Figure 12 from the PK models' own 48-core diagnostics.
pub fn figure12() -> Vec<Figure12Row> {
    (roster::NAMES.iter().zip(APPS))
        .map(|(name, (app, kind, description))| {
            let m = roster::model(name, Personality::Pk).expect("roster name resolves");
            let p = CoreSweep::point(m.as_ref(), 48);
            Figure12Row {
                app,
                kind,
                description,
                observed: if p.hw_capped {
                    format!("hardware cap binds ({} uncapped)", p.bottleneck)
                } else {
                    p.bottleneck.to_string()
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_pk_beats_stock_everywhere_but_gmake() {
        let bars = figure3(48);
        assert_eq!(bars.len(), 7);
        for b in &bars {
            assert!(b.pk > 0.0 && b.stock > 0.0);
            assert!(b.pk <= 1.05, "{}: nothing scales past perfect", b.app);
            if b.app == "gmake" {
                // gmake already scaled well; stock ≈ PK.
                assert!((b.pk - b.stock).abs() / b.stock < 0.02, "{b:?}");
            } else {
                assert!(b.pk > b.stock, "{}: PK must improve", b.app);
            }
        }
        // Exim, gmake, and pedsort are the strong scalers (bars ≈0.73–0.8
        // in Figure 3); the network- and memory-bound apps trail.
        let pk_of = |app: &str| bars.iter().find(|b| b.app == app).unwrap().pk;
        for app in ["Exim", "gmake", "pedsort"] {
            assert!(pk_of(app) > 0.65, "{app}: {}", pk_of(app));
        }
        for app in ["memcached", "Apache", "PostgreSQL", "Metis"] {
            assert!(pk_of(app) < pk_of("gmake"), "{app} should trail gmake");
        }
    }

    #[test]
    fn figure12_matches_paper_attribution() {
        let rows = figure12();
        assert_eq!(rows.len(), 7);
        let hw = rows
            .iter()
            .filter(|r| r.kind == BottleneckKind::Hardware)
            .count();
        assert_eq!(hw, 4, "memcached, Apache, pedsort, Metis are HW-bound");
        // The NIC-bound apps are actually capped in the model.
        for app in ["memcached", "Apache", "Metis"] {
            let row = rows.iter().find(|r| r.app == app).unwrap();
            assert!(
                row.observed.contains("hardware cap"),
                "{app}: {}",
                row.observed
            );
        }
        // None of the PK rows blames a kernel lock.
        for r in &rows {
            assert!(
                !r.observed.contains("vfsmount") && !r.observed.contains("lseek"),
                "{}: kernel bottleneck survived PK: {}",
                r.app,
                r.observed
            );
        }
    }
}
