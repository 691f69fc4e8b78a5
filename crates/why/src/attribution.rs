//! Where the tail's cycles went: quantile decomposition by lock class.
//!
//! The attribution answers the question the latency tables raise: the
//! p999 is N cycles — *which lock* is it standing behind? The tail set
//! is every request at or above the **exact** order statistic
//! (computed from the per-request costs, not from histogram buckets,
//! so the threshold carries no bucketing error), and the decomposition
//! sums the accounting-identity terms over that set.
//!
//! Two shares are reported per class, because the gates need both:
//!
//! * `share_of_waits` — this class's fraction of the lock-class wait
//!   pool (admission excluded). The §5.2.1 stock gate ("≥ 90% of p999
//!   wait cycles sit behind the mount-table lock") reads this one.
//! * `bp_of_latency` — basis points of total tail latency, queue and
//!   service included. The PK gate ("no class exceeds 500 bp") reads
//!   this one: a kernel that waits on nothing should show every class
//!   near zero *of the latency*, not merely balanced among themselves.

use crate::fold::RequestCost;
use std::collections::BTreeMap;

/// One lock class's share of the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassShare {
    /// Resolved class name (`pk-lockdep` vocabulary).
    pub class: String,
    /// Cycles the tail set waited on this class.
    pub wait: u64,
    /// Fraction of the lock-class wait pool (0..=1; admission
    /// excluded). Zero pool reports zero.
    pub share_of_waits: f64,
    /// Basis points of the tail set's total latency (0..=10_000).
    pub bp_of_latency: u64,
}

/// A tail quantile decomposed over the accounting identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The quantile requested (e.g. 0.999).
    pub quantile: f64,
    /// Exact order statistic of per-request latency at that quantile.
    pub threshold_cycles: u64,
    /// Requests in the tail set (latency ≥ threshold).
    pub requests: usize,
    /// Σ latency over the tail set — denominator of `bp_of_latency`.
    pub total_latency: u64,
    /// Σ admission-queue wait over the tail set.
    pub queue: u64,
    /// Σ service over the tail set.
    pub service: u64,
    /// Σ slack over the tail set.
    pub slack: u64,
    /// Σ lock-class waits — denominator of `share_of_waits`.
    pub wait_total: u64,
    /// Per-class shares, widest wait first (ties by name).
    pub by_class: Vec<ClassShare>,
}

impl Attribution {
    /// The share entry for `class`, if any request waited on it.
    pub fn class(&self, class: &str) -> Option<&ClassShare> {
        self.by_class.iter().find(|c| c.class == class)
    }
}

/// Decomposes the `q`-quantile tail of `costs`. Returns `None` when
/// `costs` is empty. `q` is clamped to `0..=1`; the rank rule is
/// `ceil(q·n)`, matching `pk-obs`'s histogram quantile, so the exact
/// threshold here and the bucketed quantile there select the same
/// request.
pub fn attribute(costs: &[RequestCost], q: f64) -> Option<Attribution> {
    if costs.is_empty() {
        return None;
    }
    let mut lat: Vec<u64> = costs.iter().map(|c| c.latency).collect();
    lat.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * lat.len() as f64).ceil() as usize).max(1);
    let threshold = lat[rank - 1];

    let mut a = Attribution {
        quantile: q,
        threshold_cycles: threshold,
        requests: 0,
        total_latency: 0,
        queue: 0,
        service: 0,
        slack: 0,
        wait_total: 0,
        by_class: Vec::new(),
    };
    let mut pool: BTreeMap<&str, u64> = BTreeMap::new();
    for c in costs.iter().filter(|c| c.latency >= threshold) {
        a.requests += 1;
        a.total_latency += c.latency;
        a.queue += c.queue;
        a.service += c.service;
        a.slack += c.slack;
        for (class, w) in &c.waits {
            *pool.entry(&**class).or_default() += w;
        }
    }
    a.wait_total = pool.values().sum();
    a.by_class = pool
        .into_iter()
        .map(|(class, wait)| ClassShare {
            class: class.to_string(),
            wait,
            share_of_waits: if a.wait_total == 0 {
                0.0
            } else {
                wait as f64 / a.wait_total as f64
            },
            bp_of_latency: (wait * 10_000).checked_div(a.total_latency).unwrap_or(0),
        })
        .collect();
    a.by_class
        .sort_by(|x, y| y.wait.cmp(&x.wait).then_with(|| x.class.cmp(&y.class)));
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cost(ctx: u64, queue: u64, service: u64, waits: &[(&str, u64)]) -> RequestCost {
        let waits: BTreeMap<Arc<str>, u64> = waits.iter().map(|&(k, v)| (k.into(), v)).collect();
        let wait_sum: u64 = waits.values().sum();
        RequestCost {
            ctx,
            latency: queue + service + wait_sum,
            queue,
            service,
            slack: 0,
            waits,
        }
    }

    #[test]
    fn tail_set_respects_the_exact_order_statistic() {
        // 10 requests, one slow outlier: p90 rank selects the 9th.
        let costs: Vec<RequestCost> = (0..10).map(|i| cost(i, 0, 100 + i, &[("a", 10)])).collect();
        let a = attribute(&costs, 0.9).unwrap();
        assert_eq!(a.threshold_cycles, 118);
        assert_eq!(a.requests, 2, "latencies 118 and 119 are in the tail");
    }

    #[test]
    fn shares_split_the_pool_and_bp_split_the_latency() {
        let costs = vec![cost(1, 100, 100, &[("hot", 720), ("cold", 80)])];
        let a = attribute(&costs, 0.999).unwrap();
        assert_eq!(a.total_latency, 1_000);
        assert_eq!(a.wait_total, 800);
        let hot = a.class("hot").unwrap();
        assert!((hot.share_of_waits - 0.9).abs() < 1e-12);
        assert_eq!(hot.bp_of_latency, 7_200);
        // Queue cycles are in the latency denominator but not the pool.
        assert_eq!(a.queue, 100);
        assert!(a.class("serve.admission_queue").is_none());
        // Ordering: widest first.
        assert_eq!(a.by_class[0].class, "hot");
    }

    #[test]
    fn empty_and_waitless_inputs_are_total() {
        assert!(attribute(&[], 0.999).is_none());
        let a = attribute(&[cost(1, 0, 50, &[])], 0.999).unwrap();
        assert_eq!(a.wait_total, 0);
        assert!(a.by_class.is_empty());
    }
}
