//! Property tests for the latency histogram: the quantile contract the
//! serving layer's SLO accounting is built on.
//!
//! Four laws, for arbitrary sample sets:
//!
//! 1. **Exact at bucket edges** — the reported quantile is always the
//!    upper edge of the bucket holding the rank-selected sample, so
//!    samples that sit exactly on bucket edges are reported verbatim.
//! 2. **Bracketing** — for any samples, the quantile is the upper edge
//!    of the rank-selected sample's bucket.
//! 3. **Monotone in rank** — a higher quantile can never report a
//!    smaller value.
//! 4. **Tail fidelity** — a sparse tail's p999 overshoots the truth by
//!    at most `1/SUBDIV`.

use pk_obs::{buckets, HistogramSnapshot};
use proptest::prelude::*;

/// Records `samples` into an empty histogram.
fn hist_from(samples: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot {
        buckets: vec![0; buckets::BUCKETS],
        count: 0,
        sum: 0,
    };
    for &v in samples {
        h.record(v);
    }
    h
}

/// The rank the quantile implementation selects: the `ceil(q·n)`-th
/// smallest sample (1-based), at least the 1st.
fn rank_of(q: f64, n: usize) -> usize {
    let target = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    target.max(1)
}

proptest! {
    /// The quantile is exactly the upper edge of the bucket holding
    /// the rank-selected sample — no drift between the record and
    /// report paths. In particular, samples recorded *on* bucket edges
    /// are reported back verbatim.
    #[test]
    fn quantile_is_exact_at_bucket_edges(
        idx in proptest::collection::vec(0..buckets::BUCKETS, 1..200),
        q in 0.0f64..1.05,
    ) {
        let samples: Vec<u64> = idx.iter().map(|&i| buckets::bucket_upper_edge(i)).collect();
        let snap = hist_from(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let expect = sorted[rank_of(q, sorted.len()) - 1];
        prop_assert_eq!(
            snap.quantile(q), expect,
            "edge samples must round-trip exactly"
        );
    }

    /// For arbitrary samples the quantile reports the upper edge of
    /// the rank-selected sample's bucket: an upper bound on the true
    /// order statistic, tight to its bucket.
    #[test]
    fn quantile_brackets_the_rank_sample(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q in 0.0f64..1.05,
    ) {
        let snap = hist_from(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let v = sorted[rank_of(q, sorted.len()) - 1];
        let got = snap.quantile(q);
        prop_assert_eq!(got, buckets::bucket_upper_edge(buckets::bucket_of(v)));
        prop_assert!(got >= v, "quantile {got} undercuts the rank sample {v}");
    }

    /// q1 <= q2 implies quantile(q1) <= quantile(q2): tail percentiles
    /// can never be reported below the median.
    #[test]
    fn quantile_is_monotone_in_rank(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q1 in 0.0f64..1.05,
        q2 in 0.0f64..1.05,
    ) {
        let snap = hist_from(&samples);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(
            snap.quantile(lo) <= snap.quantile(hi),
            "quantile({lo}) > quantile({hi})"
        );
    }

    /// Tail fidelity (DESIGN.md §15): on a sparse tail — a body of
    /// small samples plus a handful of large outliers, the shape a
    /// p999 sees — the reported p999 overshoots the true order
    /// statistic by at most `1/SUBDIV` relative error. This is the
    /// bound the tail-attribution tables depend on; pure log2 buckets
    /// fail it (their error approaches 100%).
    #[test]
    fn p999_error_is_bounded_on_sparse_tails(
        body in proptest::collection::vec(1u64..4096, 50..400),
        outliers in proptest::collection::vec(4096u64..(1 << 40), 1..8),
        scale in 1u64..1_000_000,
    ) {
        let mut samples: Vec<u64> = body.clone();
        samples.extend(outliers.iter().map(|&o| o.saturating_mul(scale.min(1 << 20))));
        let snap = hist_from(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let truth = sorted[rank_of(0.999, sorted.len()) - 1];
        let got = snap.quantile(0.999);
        prop_assert!(got >= truth);
        if truth >= 4096 {
            let rel = (got - truth) as f64 / truth as f64;
            prop_assert!(
                rel <= 1.0 / buckets::SUBDIV as f64,
                "p999 rel error {rel} exceeds 1/{} (truth {truth}, got {got})",
                buckets::SUBDIV
            );
        }
    }
}
