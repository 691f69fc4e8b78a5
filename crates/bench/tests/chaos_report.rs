//! Acceptance tests for the chaos soak harness (ISSUE 2):
//! - a fixed seed replays the identical fault trace, byte for byte;
//! - every MOSBENCH driver workload completes under 1% ENOMEM + 1%
//!   NIC-drop with bounded retries, zero panics, and *reported* (not
//!   hidden) throughput degradation.

use pk_bench::chaos::{self, FaultMix};
use pk_fault::RetryPolicy;
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
        assert_eq!(a.faulted_ops, b.faulted_ops);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.backoff_cycles, b.backoff_cycles);
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
        assert!(
            !r.panicked,
            "{}/{} panicked under faults",
            r.workload, r.config
        );
        assert!(
            r.violations.is_empty(),
            "{}/{} violated invariants: {:?}",
            r.workload,
            r.config,
            r.violations
        );
        assert!(
            r.baseline_ops > 0 && r.faulted_ops > 0,
            "{}/{} starved: baseline {} faulted {}",
            r.workload,
            r.config,
            r.baseline_ops,
            r.faulted_ops
        );
        // Retries are bounded by the policy: no request can retry more
        // than max_attempts - 1 times, so the total is bounded by the
        // checked arrival count times the budget.
        let budget = u64::from(RetryPolicy::DEFAULT.max_attempts);
        assert!(
            r.retries <= r.faults_checked.max(1) * budget,
            "{}/{} retried without bound: {} retries",
            r.workload,
            r.config,
            r.retries
        );
        // Degradation is reported, not hidden: the faulted run may not
        // claim more throughput than the fault-free baseline.
        assert!(
            r.faulted_ops <= r.baseline_ops,
            "{}/{} hid its degradation: faulted {} > baseline {}",
            r.workload,
            r.config,
            r.faulted_ops,
            r.baseline_ops
        );
        assert!(r.degradation_pct().is_finite());
    }
    // The mix actually bit somewhere: across the soak at least one
    // fault was injected and at least one retry was charged.
    assert!(reports.iter().any(|r| r.faults_injected > 0));
    assert!(reports
        .iter()
        .any(|r| r.retries > 0 || r.faulted_ops < r.baseline_ops));
}

#[test]
fn heavy_mix_still_cannot_panic_the_drivers() {
    let mix = FaultMix::heavy();
    for choice in [Personality::Stock, Personality::Pk] {
        for name in WORKLOADS {
            let r = chaos::run_workload(name, choice, CORES, SEED, &mix)
                .expect("driver exists for every named workload");
            assert!(
                !r.panicked,
                "{name}/{:?} panicked under the heavy mix",
                choice
            );
            assert!(
                r.violations.is_empty(),
                "{name}/{choice:?} violated invariants: {:?}",
                r.violations
            );
            assert!(
                r.faults_injected > 0,
                "{name}/{choice:?}: heavy mix never fired"
            );
        }
    }
}
