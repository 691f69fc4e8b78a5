//! Shared harness code behind the `pk-bench` binary.
//!
//! Every `pk-bench` subcommand regenerates one of the paper's tables or
//! figures, or one of the repo's gated reports. This library holds the
//! report computations, each row type's columns as a [`pk_obs::Table`]
//! (its text table, JSON and OpenMetrics are renders of that one
//! statement), each report's gates as named [`gate::Check`]s, and the
//! small kit they share: the argument parser ([`args`]) and
//! personality resolution ([`personality::resolve`]: the roster's
//! model, or `pk-adapt`'s converged one).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod args;
pub mod chaos;
pub mod gate;
pub mod latency;
pub mod lockdep;
pub mod personality;
pub mod profile;
pub mod scale;
pub mod tail;

pub use personality::{resolve, Resolved};

/// Serializes tests that read deltas of the process-global `rcu.*`
/// counters: concurrent churn from a sibling test would perturb the
/// exact counts they assert on.
#[cfg(test)]
pub(crate) fn rcu_serial() -> std::sync::MutexGuard<'static, ()> {
    static RCU_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    RCU_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

use pk_obs::ContentionReport;

/// Builds the contention report for one resolved workload model from
/// the analytic (MVA) solve: the paper's "which resource eats the
/// cycles" diagnostic, derived from the model's per-station residence
/// rather than a hardcoded bottleneck table.
pub fn contention_report(resolved: &Resolved) -> ContentionReport {
    let cores = resolved.cores;
    let solved = resolved.model.network(cores).solve(cores);
    ContentionReport::new(
        display_name(&resolved.model.name()),
        resolved.config.clone(),
        cores,
        solved.resources(),
    )
}

/// Like [`contention_report`], but from the discrete-event simulator's
/// *measured* per-station waits and cache-line transfer counts — the
/// cross-check that the attribution is not an artifact of the MVA
/// approximation. Deterministic for a fixed `seed`.
pub fn contention_report_des(
    resolved: &Resolved,
    ops_per_core: u64,
    seed: u64,
) -> ContentionReport {
    let cores = resolved.cores;
    let net = resolved.model.network(cores);
    let measured = pk_sim::des::simulate(&net, cores, ops_per_core, seed);
    ContentionReport::new(
        display_name(&resolved.model.name()),
        resolved.config.clone(),
        cores,
        measured.resources(&net),
    )
}

/// Model names embed their config (`Exim/Stock`); the report prints
/// the config separately, so keep only the application part.
fn display_name(model_name: &str) -> String {
    model_name
        .split('/')
        .next()
        .unwrap_or(model_name)
        .to_string()
}
