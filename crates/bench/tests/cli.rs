//! The `pk-bench` command line, driven end to end: every subcommand
//! rejects bad input with exit 2 and a usage message — never a panic —
//! and the cheap argument-free sections run clean.

use std::process::{Command, Output};

/// Every subcommand, as typed.
const SUBCOMMANDS: [&str; 30] = [
    "fig 1",
    "fig 2",
    "fig 3",
    "fig 4",
    "fig 5",
    "fig 6",
    "fig 7",
    "fig 8",
    "fig 9",
    "fig 10",
    "fig 11",
    "fig 12",
    "fig all",
    "ablate threshold",
    "ablate dlookup",
    "ablate accept",
    "ablate fixes",
    "ablate flowsteer",
    "check machine",
    "check sim",
    "check udpmicro",
    "sweep exim",
    "scale",
    "report contention",
    "report chaos",
    "report latency",
    "report tail",
    "report profile",
    "report adaptive",
    "report lockdep",
];

/// Bad tails appended to every subcommand. Where a subcommand does not
/// take the flag at all, the flag itself is the bad input.
const BAD_TAILS: [&str; 5] = [
    "--no-such-flag",
    "--seed",
    "--seed abc",
    "--cores 0",
    "--workloads exim,nethack",
];

fn pk_bench(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pk-bench"))
        .args(line.split_whitespace())
        .output()
        .expect("pk-bench runs")
}

fn assert_usage_error(line: &str) {
    let out = pk_bench(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "`{line}`: {stderr}");
    assert!(stderr.contains("usage:"), "`{line}` prints usage: {stderr}");
    assert!(!stderr.contains("panicked"), "`{line}` panicked: {stderr}");
    assert!(out.stdout.is_empty(), "`{line}` ran before rejecting input");
}

#[test]
fn every_subcommand_rejects_bad_input_with_exit_2() {
    for command in SUBCOMMANDS {
        for tail in BAD_TAILS {
            assert_usage_error(&format!("{command} {tail}"));
        }
    }
}

#[test]
fn bad_selectors_and_values_are_usage_errors() {
    for line in [
        "",
        "fig",
        "fig 13",
        "fig 0",
        "figure 1",
        "ablate everything",
        "check",
        "report",
        "report nothing",
        "sweep",
        "sweep nethack",
        "sweep exim --kernel fast",
        "sweep exim --cores 1,49",
        "report contention nethack",
        "report contention exim fast",
        "report contention exim stock 0",
        "report contention exim stock 49",
        "report contention exim stock 48 extra",
        "report contention --topology 8by6",
        "report contention --topology 2x2",
        "report contention exim pk 1025 --topology 64x16",
        "report contention --top ten",
        "report chaos --workloads bogus --strict",
        "report chaos --cores 49",
        "report lockdep --cores 0",
        "report adaptive --cores 4096",
        "report adaptive --ops many",
        "report profile --cores 1024",
        "report profile --workloads exim,",
        "report tail --json",
        "scale --no-live",
        "scale --no-engine",
        "scale --check",
    ] {
        assert_usage_error(line);
    }
}

#[test]
fn a_bogus_chaos_workload_lists_the_roster() {
    let out = pk_bench("report chaos --workloads bogus --strict");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workloads: expected one of exim, memcached, apache, postgres, gmake, pedsort, metis, got \"bogus\""),
        "{stderr}"
    );
}

#[test]
fn cheap_sections_run_clean() {
    for (line, needle) in [
        ("fig 1", "=== Figure 1 ==="),
        ("check machine", "=== Machine parameters (section 5.1) ==="),
    ] {
        let out = pk_bench(line);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "`{line}`");
        assert!(stdout.contains(needle), "`{line}`: {stdout}");
        assert!(out.stderr.is_empty(), "`{line}` is quiet on stderr");
    }
}

#[test]
fn a_failed_gate_is_exit_1_not_2() {
    // A baseline that cannot be read is a failed check, not bad syntax.
    let out = pk_bench("scale --check-engine /no/such/BENCH_engine.json");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot read engine baseline"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

/// Runs `line` in a fresh scratch directory and returns the directory
/// (for the caller to inspect and remove) with the exit code.
fn run_in_scratch(tag: &str, line: &str) -> (std::path::PathBuf, Option<i32>) {
    let dir = std::env::temp_dir().join(format!("pk-bench-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_pk-bench"))
        .args(line.split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("pk-bench runs");
    (dir, out.status.code())
}

#[test]
fn artifacts_are_written_only_where_told_and_directories_are_created() {
    for (tag, command) in [
        ("adaptive", "report adaptive --cores 4 --ops 100"),
        (
            "profile",
            "report profile --cores 4 --ops 50 --workloads exim",
        ),
    ] {
        let (dir, code) = run_in_scratch(tag, command);
        assert!(matches!(code, Some(0 | 1)), "`{command}` ran: {code:?}");
        let left = std::fs::read_dir(&dir).expect("scratch dir").count();
        assert_eq!(left, 0, "`{command}`: no artifact flag, nothing in cwd");
        let (dir, _) = run_in_scratch(tag, &format!("{command} --json reports/out.json"));
        let text = std::fs::read_to_string(dir.join("reports/out.json"))
            .expect("--json creates its directory");
        assert!(text.starts_with("{\n  \"seed\": 42,\n  \"cores\": 4,\n"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

/// CI writes `scale --out target/reports/...` on a fresh runner.
#[test]
fn scale_out_creates_its_directory() {
    let (dir, code) = run_in_scratch("scale", "scale --seed 42 --out fresh/reports/scale.json");
    assert_eq!(code, Some(0));
    let text = std::fs::read_to_string(dir.join("fresh/reports/scale.json")).expect("written");
    assert!(text.contains("\"meta.schema_version\""), "{text}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// The words `--kernel` and `PERSONALITY` accept are the enum's labels:
/// the usage line lists every personality (sweep: all but `adaptive`,
/// which needs a config converged at one core count).
#[test]
fn personality_words_in_usage_come_from_the_enum() {
    use pk_kernel::Personality;
    let all = Personality::ALL.map(Personality::label).join("|");
    assert_eq!(all, "stock|coarse|pk|adaptive");
    for (line, words) in [
        ("report contention exim fast", format!("[{all}]")),
        (
            "sweep exim --kernel adaptive",
            format!("[--kernel {}]", all.trim_end_matches("|adaptive")),
        ),
    ] {
        let stderr = String::from_utf8_lossy(&pk_bench(line).stderr).into_owned();
        assert!(stderr.contains(&words), "`{line}`: {words} not in {stderr}");
    }
    for p in Personality::ALL {
        let out = pk_bench(&format!("report contention exim {} 2 --no-des", p.label()));
        assert_eq!(out.status.code(), Some(0), "{p:?}");
    }
}

/// Fails, naming the first differing line and how to regenerate, unless
/// `got` is the committed golden byte for byte.
fn assert_matches_golden(what: &str, got: &str, golden: &str, file: &str, regenerate: &str) {
    if got == golden {
        return;
    }
    let line = (got.lines().zip(golden.lines()))
        .position(|(got, want)| got != want)
        .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
    panic!(
        "`{what}` differs from tests/golden/{file} at line {}:\n  \
         got:  {:?}\n  want: {:?}\n\
         if the change is intended, regenerate with\n  \
         cargo run --release -q -p pk-bench -- {regenerate}crates/bench/tests/golden/{file}\n\
         and say which lines moved and why",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        golden.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// `fig all` is a pure function of the source: its stdout is committed,
/// so a refactor that moves a byte fails here instead of relying on a
/// hand-run `cmp` against a parent build.
#[test]
fn fig_all_matches_the_committed_golden() {
    let out = pk_bench("fig all");
    assert_eq!(out.status.code(), Some(0));
    assert_matches_golden(
        "pk-bench fig all",
        &String::from_utf8_lossy(&out.stdout),
        include_str!("golden/fig_all.txt"),
        "fig_all.txt",
        "fig all > ",
    );
}

/// `report tail --seed 42 --json` likewise: the 12-cell,
/// 4-personality grid (exact p50/p99/p999 per cell, the attribution
/// shares, the exemplar hashes) is committed, and recomputed here
/// in-process.
#[test]
fn tail_matches_the_committed_golden() {
    use pk_bench::tail;
    let grid = tail::run_grid(42);
    assert_matches_golden(
        "pk-bench report tail --seed 42 --json",
        &tail::report_json(&grid, &tail::assess(&grid)),
        include_str!("golden/tail.json"),
        "tail.json",
        "report tail --seed 42 --json ",
    );
}
