//! The bodies of the `pk-bench` subcommands: argument-free sections
//! (figures, ablations, checks) and the flag-taking reports, each of
//! which exports its grammar as `SPEC` and its body as `run`.

pub mod ablate;
pub mod adaptive;
pub mod chaos;
pub mod check;
pub mod contention;
pub mod figures;
pub mod latency;
pub mod lockdep;
pub mod profile;
pub mod scale;
pub mod sweep;
pub mod tail;

use pk_adapt::Decision;
use pk_bench::adaptive::decision_table;
use pk_bench::gate::Check;
use std::path::Path;

/// Prints a section header: the figure or report title and its caption.
pub fn header(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}\n");
}

/// Ends a gated report: `Err` — exit 1, printed on stderr — with one
/// `violation: <name>: <values>` line per check that fails the run
/// (under `strict`, strict-only checks too), else `Ok`.
pub fn finish(checks: &[Check], strict: bool) -> Result<(), String> {
    let failed = checks.iter().filter(|c| c.fails(strict));
    let violations: Vec<String> = failed.map(Check::violation).collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

/// Prints a controller's decision log, one JSON object per line.
fn print_decisions(decisions: &[Decision]) {
    let table = decision_table();
    for d in decisions {
        println!("{}", table.object(d).json());
    }
}

/// Writes a report artifact, creating its directory first so a path
/// such as `target/reports/tail.json` works on a fresh checkout.
fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::finish;
    use pk_bench::gate::{Check, Gate};
    use pk_bench::{chaos, latency, tail};

    #[test]
    fn a_strict_only_check_fails_only_under_strict() {
        let inert = Check {
            name: chaos::FIRED,
            strict_only: true,
            failure: Some("inert never fired".to_string()),
        };
        let checks = [inert];
        assert_eq!(finish(&checks, false), Ok(()));
        let err = finish(&checks, true).unwrap_err();
        assert_eq!(err, "violation: fault mix fired: inert never fired");
    }

    #[test]
    fn each_failed_check_is_one_violation_line_with_its_values() {
        let checks = Vec::new()
            .eq("call_rcu == freed", 5u64, 4)
            .le("injected <= spills", 1u64, 2)
            .check("no panic", false, String::new);
        let err = finish(&checks, false).unwrap_err();
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(
            lines,
            [
                "violation: call_rcu == freed: 5 != 4",
                "violation: no panic"
            ]
        );
    }

    #[test]
    fn a_ring_overflow_names_the_ring_not_an_overload_claim() {
        let health = latency::RingHealth {
            workload: "exim",
            events: 10,
            dropped_total: 3,
            dropped_by_track: vec![0, 3],
        };
        let err = finish(&latency::ring_check(&[health]), false).unwrap_err();
        assert_eq!(err, "violation: trace ring drops == 0: exim dropped [0, 3]");
    }

    #[test]
    fn a_dirty_lockdep_live_row_prints_its_values() {
        let row = tail::LockdepLiveRow {
            cores: 8,
            connections: 32,
            delivered: 320,
            acquisitions: 0,
            violations: 2,
            ctx_leaks: 1,
        };
        let err = finish(&row.checks(), false).unwrap_err();
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(
            lines,
            [
                "violation: lockdep-live violations == 0: 2 != 0",
                "violation: lockdep-live ctx leaks == 0: 1 != 0"
            ]
        );
    }
}
