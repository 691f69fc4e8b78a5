//! Bottleneck attribution: the paper's Figure-1 "bottleneck" column
//! re-derived from measurement.

use crate::table::{Cell, Table};
use std::fmt;

/// One contended resource and its share of an operation's cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Resource label (station or lock name).
    pub name: String,
    /// Mean cycles per operation spent at this resource (service +
    /// waiting).
    pub cycles_per_op: f64,
    /// The waiting portion — what contention costs, over and above the
    /// work itself.
    pub wait_cycles_per_op: f64,
    /// This resource's share of total cycles per operation, in `[0, 1]`
    /// (filled in by [`ContentionReport::new`]).
    pub share: f64,
    /// Mean queue length observed at the resource.
    pub queue_len: f64,
    /// Cache-line transfers per operation charged to the resource.
    pub line_transfers: f64,
    /// Whether the cycles count as system (kernel) time.
    pub is_system: bool,
}

/// The top-N contended resources for one workload × kernel config ×
/// core count, ranked by share of total cycles.
///
/// This is the reproduction of the diagnostic the paper ran on the
/// real 48-core machine (§3): instead of reading the bottleneck off a
/// hardcoded table, the report derives it from per-station rows of a
/// model solve or a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Workload name (e.g. `Exim`).
    pub workload: String,
    /// Kernel configuration label (e.g. `stock`, `PK`).
    pub config: String,
    /// Active cores.
    pub cores: usize,
    /// Mean end-to-end cycles per operation (sum over resources).
    pub total_cycles_per_op: f64,
    /// Resources sorted by descending cycles share.
    pub resources: Vec<Resource>,
}

impl ContentionReport {
    /// Ranks `resources` by cycles per operation and fills in each
    /// one's share of their total.
    pub fn new(
        workload: impl Into<String>,
        config: impl Into<String>,
        cores: usize,
        mut resources: Vec<Resource>,
    ) -> Self {
        let total: f64 = resources.iter().map(|r| r.cycles_per_op).sum();
        if total > 0.0 {
            for r in &mut resources {
                r.share = r.cycles_per_op / total;
            }
        }
        resources.sort_by(|a, b| b.cycles_per_op.total_cmp(&a.cycles_per_op));
        Self {
            workload: workload.into(),
            config: config.into(),
            cores,
            total_cycles_per_op: total,
            resources,
        }
    }

    /// The single most expensive resource, if any.
    pub fn top(&self) -> Option<&Resource> {
        self.resources.first()
    }

    /// The `n` most expensive resources.
    pub fn top_n(&self, n: usize) -> &[Resource] {
        &self.resources[..n.min(self.resources.len())]
    }

    /// Cycles share spent in system (kernel) resources, in `[0, 1]`.
    pub fn system_share(&self) -> f64 {
        self.resources
            .iter()
            .filter(|r| r.is_system)
            .map(|r| r.share)
            .sum()
    }

    /// Renders the top-`n` table.
    pub fn render(&self, n: usize) -> String {
        let ranked: Vec<(usize, &Resource)> = (1..).zip(self.top_n(n)).collect();
        let table = Table::<(usize, &Resource)>::new()
            .col("{rank:>4}", "", |(rank, _)| *rank)
            .col("  {resource:<32}", "", |(_, r)| r.name.clone())
            .col(" {share:>5.1}%", "", |(_, r)| Cell::Share(r.share))
            .col("  {cycles/op:>12.1}", "", |(_, r)| r.cycles_per_op)
            .col("  {wait/op:>10.1}", "", |(_, r)| r.wait_cycles_per_op)
            .col("  {queue:>7.2}", "", |(_, r)| r.queue_len);
        format!(
            "contention report — {} on {}, {} cores\n\
             total {:.0} cycles/op, {:.1}% in the kernel\n{}",
            self.workload,
            self.config,
            self.cores,
            self.total_cycles_per_op,
            self.system_share() * 100.0,
            table.text(&ranked)
        )
    }
}

impl fmt::Display for ContentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resource(name: &str, cycles: f64, wait: f64, system: bool) -> Resource {
        Resource {
            name: name.to_string(),
            cycles_per_op: cycles,
            wait_cycles_per_op: wait,
            share: 0.0,
            queue_len: 1.0,
            line_transfers: 0.0,
            is_system: system,
        }
    }

    fn report(cores: usize) -> ContentionReport {
        let rows = vec![
            resource("user", 4000.0, 0.0, false),
            resource("hot lock", 5000.0, 4500.0, true),
            resource("cold lock", 1000.0, 100.0, true),
        ];
        ContentionReport::new("toy", "stock", cores, rows)
    }

    #[test]
    fn ranks_by_cycles_and_normalizes_shares() {
        let r = report(48);
        assert_eq!(r.top().unwrap().name, "hot lock");
        let total_share: f64 = r.resources.iter().map(|x| x.share).sum();
        assert!((total_share - 1.0).abs() < 1e-12);
        assert!((r.total_cycles_per_op - 10_000.0).abs() < 1e-9);
        assert!((r.system_share() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn top_n_clamps() {
        let r = report(1);
        assert_eq!(r.top_n(99).len(), 3);
        assert_eq!(r.top_n(1)[0].name, "hot lock");
    }

    #[test]
    fn render_names_the_bottleneck_first() {
        let text = report(48).render(2);
        let hot = text.find("hot lock").unwrap();
        let user = text.find("user").unwrap();
        assert!(hot < user, "bottleneck renders first:\n{text}");
        assert!(!text.contains("cold lock"), "n=2 truncates:\n{text}");
    }

    #[test]
    fn empty_report_is_harmless() {
        let r = ContentionReport::new("toy", "stock", 4, Vec::new());
        assert!(r.top().is_none());
        assert_eq!(r.total_cycles_per_op, 0.0);
        let _ = r.render(5);
    }
}
