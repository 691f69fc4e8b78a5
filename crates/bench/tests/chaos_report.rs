//! Acceptance tests for the chaos soak harness (ISSUE 2):
//! - a fixed seed replays the identical fault trace, byte for byte;
//! - every MOSBENCH driver workload completes under 1% ENOMEM + 1%
//!   NIC-drop with bounded retries, zero panics, and *reported* (not
//!   hidden) throughput degradation.

use pk_bench::chaos::{self, FaultMix};
use pk_fault::backoff;
use pk_kernel::Personality;

const SEED: u64 = 0xC4A0_5EED;
const WORKLOADS: [&str; 3] = ["exim", "memcached", "apache"];
const CORES: usize = 4;

#[test]
fn fixed_seed_replays_the_identical_fault_trace() {
    let first = chaos::soak(SEED, &WORKLOADS, CORES);
    let second = chaos::soak(SEED, &WORKLOADS, CORES);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.config, b.config);
        // The ordered trace — point names and arrival indices — must
        // match exactly, not merely as a multiset.
        assert_eq!(
            a.trace, b.trace,
            "{}/{}: trace diverged across replays",
            a.workload, a.config
        );
        assert_eq!(a.counts, b.counts);
    }
    // A different seed must not replay the same decisions everywhere
    // (sanity that the trace actually derives from the seed).
    let other = chaos::soak(SEED ^ 0xFFFF, &WORKLOADS, CORES);
    assert!(
        first.iter().zip(&other).any(|(a, b)| a.trace != b.trace),
        "different seeds produced identical traces for every workload"
    );
}

#[test]
fn every_workload_survives_the_acceptance_mix() {
    let reports = chaos::soak(SEED, &WORKLOADS, CORES);
    // Every workload × both kernel configs ran.
    assert_eq!(reports.len(), WORKLOADS.len() * 2);
    for r in &reports {
        let failed: Vec<_> = r.failures(false).collect();
        assert!(
            failed.is_empty(),
            "{}/{} panicked or violated invariants: {failed:?}",
            r.workload,
            r.config
        );
        let (baseline, faulted) = (r.num("baseline"), r.num("faulted"));
        let retries = r.num("retries");
        assert!(
            baseline > 0.0 && faulted > 0.0,
            "{}/{} starved: baseline {baseline} faulted {faulted}",
            r.workload,
            r.config
        );
        // Retries are bounded by the policy: no request can retry more
        // than max_attempts - 1 times, so the total is bounded by the
        // checked arrival count times the budget.
        let budget = f64::from(backoff::MAX_ATTEMPTS);
        assert!(
            retries <= r.num("checked").max(1.0) * budget,
            "{}/{} retried without bound: {retries} retries",
            r.workload,
            r.config
        );
        // Degradation is reported, not hidden: the faulted run may not
        // claim more throughput than the fault-free baseline.
        assert!(
            faulted <= baseline,
            "{}/{} hid its degradation: faulted {faulted} > baseline {baseline}",
            r.workload,
            r.config
        );
        assert!(r.num("degr%").is_finite());
    }
    // The mix actually bit somewhere: across the soak at least one
    // fault was injected and at least one retry was charged.
    assert!(reports.iter().any(|r| r.num("injected") > 0.0));
    assert!(reports
        .iter()
        .any(|r| r.num("retries") > 0.0 || r.num("faulted") < r.num("baseline")));
}

#[test]
fn heavy_mix_still_cannot_panic_the_drivers() {
    let mix = FaultMix::heavy();
    for choice in [Personality::Stock, Personality::Pk] {
        for name in WORKLOADS {
            let r = chaos::run_workload(name, choice, CORES, SEED, &mix)
                .expect("driver exists for every named workload");
            let failed: Vec<_> = r.failures(true).collect();
            assert!(
                failed.is_empty(),
                "{name}/{choice:?} panicked, violated invariants or never fired: {failed:?}"
            );
        }
    }
}
