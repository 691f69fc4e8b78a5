//! Acceptance tests for the contention report: the observability layer
//! must re-derive the paper's Figure-4 diagnosis from measurement, not
//! from a hardcoded table.

use pk_bench::{contention_report, contention_report_des, Resolved};
use pk_kernel::Personality;
use pk_sim::MachineSpec;
use pk_workloads::roster;

fn resolve(workload: &str, personality: Personality, cores: usize) -> Option<Resolved> {
    pk_bench::resolve(personality, workload, cores, MachineSpec::paper(), 42)
}

/// The paper's diagnosis (§5.2.1): on the stock kernel at 48 cores,
/// Exim collapses on the vfsmount-table spin lock.
#[test]
fn exim_stock_48_names_the_vfsmount_lock() {
    let report = contention_report(&resolve("exim", Personality::Stock, 48).unwrap());
    let top = report.top().expect("non-empty report");
    assert_eq!(top.name, "vfsmount-table lock");
    assert!(
        top.share > 0.3,
        "the collapsed lock dominates the cycle budget: {:.3}",
        top.share
    );
    assert!(
        top.wait_cycles_per_op > top.cycles_per_op * 0.5,
        "most of its cycles are waiting, not work"
    );
    assert!(top.is_system, "the lock is kernel time");
}

/// The discrete-event cross-check reaches the same diagnosis from
/// simulated measurement (queue waits, not analytic residence).
#[test]
fn des_measurement_agrees_on_the_bottleneck() {
    let report =
        contention_report_des(&resolve("exim", Personality::Stock, 48).unwrap(), 1_000, 42);
    assert_eq!(report.top().unwrap().name, "vfsmount-table lock");
    // The measured line-transfer count for the collapsed lock is large:
    // every handoff moves the line and every waiter polls it.
    let lock = report
        .resources
        .iter()
        .find(|r| r.name == "vfsmount-table lock")
        .unwrap();
    assert!(
        lock.line_transfers > 1.0,
        "contended lock bounces its cache line: {}",
        lock.line_transfers
    );
}

/// After the PK fixes the mount lock disappears from the top of the
/// table (per-core mount caches, Figure 4's fixed curve).
#[test]
fn pk_removes_the_mount_lock_from_the_top() {
    let report = contention_report(&resolve("exim", Personality::Pk, 48).unwrap());
    assert_ne!(report.top().unwrap().name, "vfsmount-table lock");
}

/// Every roster workload produces a well-formed report at every paper
/// core count extreme.
#[test]
fn all_workloads_report_cleanly() {
    for workload in roster::NAMES {
        for personality in [Personality::Stock, Personality::Pk] {
            for cores in [1, 48] {
                let resolved = resolve(workload, personality, cores)
                    .unwrap_or_else(|| panic!("{workload} missing"));
                let r = contention_report(&resolved);
                assert!(!r.resources.is_empty(), "{workload} has stations");
                let share_sum: f64 = r.resources.iter().map(|x| x.share).sum();
                assert!(
                    (share_sum - 1.0).abs() < 1e-9,
                    "{workload}/{}: shares sum to 1, got {share_sum}",
                    personality.label()
                );
            }
        }
    }
}

#[test]
fn unknown_workload_is_none() {
    assert!(resolve("nethack", Personality::Stock, 48).is_none());
}
