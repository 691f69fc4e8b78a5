//! `pk-bench`: every figure, ablation, check and report of the
//! reproduction behind one command line.
//!
//! ```text
//! pk-bench fig <1..12|all>
//! pk-bench ablate <threshold|dlookup|accept|fixes|flowsteer>
//! pk-bench check <machine|sim|udpmicro>
//! pk-bench sweep <app> [--kernel stock|coarse|pk] [--cores N[,N,...]] [--rw]
//! pk-bench scale [--seed N] [--out PATH] [--check-engine PATH]
//! pk-bench report <contention|chaos|latency|tail|profile|adaptive|lockdep> [...]
//! ```
//!
//! `fig all` regenerates every figure, ablation and check in one
//! process (`pk-bench fig all > figures.txt` is the artifact entry
//! point). Exit codes are the same everywhere: 0 on success, 1 when a
//! gate failed, 2 on bad input (with the usage on stderr).

mod cli;

use cli::{ablate, check, figures};
use pk_bench::args::{Args, Spec};
use std::process::ExitCode;

/// The argument-free sections, in `fig all` order.
const SECTIONS: [(&str, fn()); 20] = [
    ("check machine", check::machine),
    ("fig 1", figures::fig1),
    ("fig 2", figures::fig2),
    ("fig 3", figures::fig3),
    ("fig 4", figures::fig4),
    ("fig 5", figures::fig5),
    ("fig 6", figures::fig6),
    ("fig 7", figures::fig7),
    ("fig 8", figures::fig8),
    ("fig 9", figures::fig9),
    ("fig 10", figures::fig10),
    ("fig 11", figures::fig11),
    ("fig 12", figures::fig12),
    ("check sim", check::sim),
    ("ablate threshold", ablate::threshold),
    ("ablate dlookup", ablate::dlookup),
    ("ablate accept", ablate::accept),
    ("ablate fixes", ablate::fixes),
    ("ablate flowsteer", ablate::flowsteer),
    ("check udpmicro", check::udpmicro),
];

/// A flag-taking subcommand; `Err` from the body is a failed gate.
type Report = (Spec, fn(&Args) -> Result<(), String>);

const REPORTS: [Report; 9] = [
    (cli::sweep::SPEC, cli::sweep::run),
    (cli::scale::SPEC, cli::scale::run),
    (cli::contention::SPEC, cli::contention::run),
    (cli::chaos::SPEC, cli::chaos::run),
    (cli::latency::SPEC, cli::latency::run),
    (cli::tail::SPEC, cli::tail::run),
    (cli::profile::SPEC, cli::profile::run),
    (cli::adaptive::SPEC, cli::adaptive::run),
    (cli::lockdep::SPEC, cli::lockdep::run),
];

/// Why a run did not succeed: the exit code — 1 for a failed gate, 2
/// for bad input — and the message for stderr.
type Failure = (u8, String);

/// The tokens after `command` if `argv` starts with its words.
fn after<'a>(argv: &'a [String], command: &str) -> Option<&'a [String]> {
    let words = command.split(' ').count();
    (argv.len() >= words
        && argv[..words]
            .iter()
            .map(String::as_str)
            .eq(command.split(' ')))
    .then(|| &argv[words..])
}

fn usage() -> String {
    let mut out = String::from(
        "usage: pk-bench <command> [args]\n  \
         pk-bench fig <1..12|all>\n  \
         pk-bench ablate <threshold|dlookup|accept|fixes|flowsteer>\n  \
         pk-bench check <machine|sim|udpmicro>",
    );
    for (spec, _) in REPORTS {
        out.push_str(&format!("\n  {}", spec.usage()));
    }
    out
}

fn parse(spec: &Spec, rest: &[String]) -> Result<Args, Failure> {
    let usage = |e| format!("pk-bench {}: {e}\nusage: {}", spec.command, spec.usage());
    spec.parse(rest).map_err(|e| (2, usage(e)))
}

fn dispatch(argv: &[String]) -> Result<(), Failure> {
    let section = |command| Spec::flags(command, &[]);
    if let Some(rest) = after(argv, "fig all") {
        parse(&section("fig all"), rest)?;
        for (_, body) in SECTIONS {
            body();
        }
        println!("\nAll figures and ablations regenerated.");
        return Ok(());
    }
    for (command, body) in SECTIONS {
        if let Some(rest) = after(argv, command) {
            parse(&section(command), rest)?;
            body();
            return Ok(());
        }
    }
    for (spec, body) in REPORTS {
        if let Some(rest) = after(argv, spec.command) {
            return body(&parse(&spec, rest)?).map_err(|gate| (1, gate));
        }
    }
    let typed = argv.iter().take(2).cloned().collect::<Vec<_>>().join(" ");
    Err(match argv {
        [] => (2, usage()),
        _ => (
            2,
            format!("pk-bench: unknown command {typed:?}\n{}", usage()),
        ),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
    }
}
