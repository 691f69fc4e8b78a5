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

use std::path::Path;

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
