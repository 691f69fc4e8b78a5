//! The `pk-bench` command line, driven end to end: every subcommand
//! rejects bad input with exit 2 and a usage message — never a panic —
//! the cheap argument-free sections run clean, and the seed-42 reports
//! match their committed goldens and repeat byte for byte.

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

/// A run with no throughput to compare is no evidence for the PK-floor
/// gate: it fails rather than printing `NaN%` and passing.
#[test]
fn adaptive_without_throughput_fails_the_pk_floor() {
    let out = pk_bench("report adaptive --ops 0 --cores 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(
            "violation: adaptive >= PK_FLOOR × PK: exim: adaptive reached only NaN% of PK"
        ),
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
/// (for the caller to inspect and remove) with the run's output.
fn run_in_scratch(tag: &str, line: &str) -> (std::path::PathBuf, Output) {
    let dir = std::env::temp_dir().join(format!("pk-bench-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_pk-bench"))
        .args(line.split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("pk-bench runs");
    (dir, out)
}

#[test]
fn artifacts_are_written_only_where_told_and_directories_are_created() {
    for (tag, command, artifacts) in [
        (
            "adaptive",
            "report adaptive --cores 4 --ops 100",
            "--json reports/out.json",
        ),
        (
            "profile",
            "report profile --cores 4 --ops 50 --workloads exim",
            "--json reports/out.json",
        ),
        ("latency", "report latency", "--json reports/out.json"),
        (
            "tail",
            "report tail",
            "--json reports/out.json --openmetrics reports/out.om",
        ),
    ] {
        let (dir, out) = run_in_scratch(tag, command);
        let code = out.status.code();
        assert!(matches!(code, Some(0 | 1)), "`{command}` ran: {code:?}");
        let left = std::fs::read_dir(&dir).expect("scratch dir").count();
        assert_eq!(left, 0, "`{command}`: no artifact flag, nothing in cwd");
        let (dir, _) = run_in_scratch(tag, &format!("{command} {artifacts}"));
        for path in artifacts.split_whitespace().skip(1).step_by(2) {
            let text = std::fs::read_to_string(dir.join(path))
                .unwrap_or_else(|e| panic!("`{command}` creates {path}'s directory: {e}"));
            if path.ends_with(".json") {
                assert!(
                    text.starts_with("{\n  \"seed\": 42,\n  \"cores\": "),
                    "{text}"
                );
            } else {
                assert!(text.ends_with("# EOF\n"), "{text}");
            }
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

/// `scale --out` into a directory that does not exist yet writes the
/// committed `BENCH_scale.json` byte for byte.
#[test]
fn scale_out_creates_its_directory() {
    let (dir, out) = run_in_scratch("scale", "scale --seed 42 --out fresh/reports/scale.json");
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(dir.join("fresh/reports/scale.json")).expect("written");
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_matches_golden(
        "pk-bench scale --seed 42",
        &text,
        include_str!("../../../BENCH_scale.json"),
        "BENCH_scale.json",
        "scale --seed 42 --out ",
    );
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

/// Where the goldens live, relative to the repository root.
const GOLDEN: &str = "crates/bench/tests/golden/";

/// Fails, naming the first differing line and how to regenerate, unless
/// `got` is the committed golden at `path` (relative to the repository
/// root) byte for byte.
fn assert_matches_golden(what: &str, got: &str, golden: &str, path: &str, regenerate: &str) {
    if got == golden {
        return;
    }
    let line = first_differing_line(got, golden);
    panic!(
        "`{what}` differs from {path} at line {}:\n  \
         got:  {:?}\n  want: {:?}\n\
         if the change is intended, regenerate with\n  \
         cargo run --release -q -p pk-bench -- {regenerate}{path}\n\
         and say which lines moved and why",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        golden.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// The index of the first line where `a` and `b`, which differ, differ.
fn first_differing_line(a: &str, b: &str) -> usize {
    (a.lines().zip(b.lines()))
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()))
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
        &format!("{GOLDEN}fig_all.txt"),
        "fig all > ",
    );
}

/// `report tail --seed 42 --json` and `--openmetrics` likewise: the
/// 12-cell, 4-personality grid (exact p50/p99/p999 per cell, the
/// attribution shares, the exemplar hashes) is committed, and
/// recomputed here in-process, once for both artifacts.
#[test]
fn tail_matches_the_committed_goldens() {
    use pk_bench::tail;
    let grid = tail::run_grid(42);
    let (verdicts, exim) = (tail::verdicts(&grid), tail::exim_p999(&grid));
    let checks = tail::assess(&verdicts, &exim);
    assert_matches_golden(
        "pk-bench report tail --seed 42 --json",
        &tail::report_json(&grid, &verdicts, &exim, &checks),
        include_str!("golden/tail.json"),
        &format!("{GOLDEN}tail.json"),
        "report tail --seed 42 --json ",
    );
    assert_matches_golden(
        "pk-bench report tail --seed 42 --openmetrics",
        &tail::openmetrics(&grid),
        include_str!("golden/tail.om"),
        &format!("{GOLDEN}tail.om"),
        "report tail --seed 42 --openmetrics ",
    );
}

/// Runs `command --json out.json` in a scratch directory, checks that
/// it exits `code` and compares the artifact with `golden/{file}`;
/// returns the run's stdout and stderr.
fn assert_json_matches_golden(
    tag: &str,
    command: &str,
    code: i32,
    golden: &str,
    file: &str,
) -> (String, String) {
    let (dir, out) = run_in_scratch(tag, &format!("{command} --json {file}"));
    let got = std::fs::read_to_string(dir.join(file)).expect("--json writes its file");
    std::fs::remove_dir_all(&dir).expect("clean up");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "`{command}`: {stderr}");
    let what = format!("pk-bench {command} --json");
    let path = format!("{GOLDEN}{file}");
    assert_matches_golden(&what, &got, golden, &path, &format!("{command} --json "));
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// `report latency --seed 42`: the open-loop grid's table, derived
/// claims and ring health on stdout, and its `--json` artifact.
#[test]
fn latency_matches_the_committed_goldens() {
    let command = "report latency --seed 42";
    let golden = include_str!("golden/latency.json");
    let (stdout, _) =
        assert_json_matches_golden("latency-golden", command, 0, golden, "latency.json");
    let what = "pk-bench report latency --seed 42";
    let path = format!("{GOLDEN}latency.txt");
    let regenerate = "report latency --seed 42 --json latency.json > ";
    let golden = include_str!("golden/latency.txt");
    assert_matches_golden(what, &stdout, golden, &path, regenerate);
}

/// `report profile` on Exim at 8 cores and `report adaptive` at 8 cores
/// and 200 ops/core: the nested `top` and `decisions` arrays. At 8
/// cores stock Exim's top class is not yet the vfsmount lock, so the
/// profile's Exim gate fails there (exit 1, one violation line).
#[test]
fn profile_and_adaptive_match_the_committed_goldens() {
    let exim = "violation: exim_inversion: stock top class kernel-local, vfsmount 6.3% of \
                stock and 0.0% of PK cycles";
    for (tag, command, code, violations, golden, file) in [
        (
            "profile-golden",
            "report profile --seed 42 --workloads exim --cores 8",
            1,
            vec![exim],
            include_str!("golden/profile_exim_8.json"),
            "profile_exim_8.json",
        ),
        (
            "adaptive-golden",
            "report adaptive --seed 42 --cores 8 --ops 200",
            0,
            vec![],
            include_str!("golden/adaptive_8.json"),
            "adaptive_8.json",
        ),
    ] {
        let (_, stderr) = assert_json_matches_golden(tag, command, code, golden, file);
        let got: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("violation: "))
            .collect();
        assert_eq!(got, violations, "`{command}`");
    }
}

/// The rest of the seed-42 exit-code matrix: `report lockdep`, the one
/// gated report with neither a golden nor a double run, passes.
#[test]
fn seed_42_lockdep_passes() {
    let line = "report lockdep --seed 42 --cores 4";
    let out = pk_bench(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "`{line}`: {stderr}");
    assert!(!stderr.contains("violation:"), "`{line}`: {stderr}");
}

/// `report chaos` on all three functional drivers: all five soak tables
/// and the violation lines. The soak's fault trace is a pure function of
/// the seed, so a failure replays byte for byte from the same command
/// line, and `--strict` also fails if the fault mix never fires. With
/// `--features lockdep` the report adds a validator line before its
/// verdict; everything up to it must still match.
#[test]
fn chaos_matches_the_committed_golden() {
    let command = "report chaos --seed 42 --workloads exim,memcached,apache --cores 4 --strict";
    let out = pk_bench(command);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/chaos.txt");
    let (got, want) = match stdout.split_once("\nlockdep (under fault mix)") {
        Some((before, _)) => (before, golden.split("\nchaos soak passed").next().unwrap()),
        None => (&*stdout, golden),
    };
    let what = format!("pk-bench {command}");
    let path = format!("{GOLDEN}chaos.txt");
    assert_matches_golden(&what, got, want, &path, &format!("{command} > "));
}

/// Runs `line` twice, each in a scratch directory of its own with the
/// same relative paths, and fails unless both runs exit 0 and agree byte
/// for byte on stdout, which names the files written, and on every file
/// in `files`.
fn assert_byte_stable(tag: &str, line: &str, files: &[&str]) {
    let runs = [1, 2].map(|i| run_in_scratch(&format!("{tag}-{i}"), line));
    let read = |(dir, out): &(std::path::PathBuf, Output)| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`{line}`: {stderr}");
        let mut outputs = vec![("stdout", String::from_utf8_lossy(&out.stdout).into_owned())];
        for file in files {
            let text = std::fs::read_to_string(dir.join(file))
                .unwrap_or_else(|e| panic!("`{line}` writes {file}: {e}"));
            outputs.push((file, text));
        }
        std::fs::remove_dir_all(dir).expect("clean up");
        outputs
    };
    let (first, second) = (read(&runs[0]), read(&runs[1]));
    for ((what, a), (_, b)) in first.iter().zip(&second) {
        if a != b {
            let n = first_differing_line(a, b);
            panic!(
                "`{line}`: {what} differs between two runs at line {}:\n  \
                 first:  {:?}\n  second: {:?}",
                n + 1,
                a.lines().nth(n).unwrap_or("<end of output>"),
                b.lines().nth(n).unwrap_or("<end of output>"),
            );
        }
    }
}

/// `report tail` twice at one seed: a chunk walk or a name cache whose
/// order depends on anything but the stream fails here.
#[test]
fn tail_is_byte_stable_across_runs() {
    assert_byte_stable(
        "tail-rerun",
        "report tail --seed 42 --json tail.json --openmetrics tail.om --perfetto .",
        &[
            "tail.json",
            "tail.om",
            "tail-exim-stock.json",
            "tail-exim-pk.json",
        ],
    );
}

/// `report profile` likewise: every top-classes table on stdout (the
/// functional Exim one included), the attribution JSON and the Perfetto
/// timeline.
#[test]
#[ignore = "two profile runs take ~11 s in a debug build: run with --release -- --include-ignored"]
fn profile_is_byte_stable_across_runs() {
    assert_byte_stable(
        "profile-rerun",
        "report profile --seed 42 --json profile.json --perfetto profile.trace.json",
        &["profile.json", "profile.trace.json"],
    );
}

/// The functional Exim run's `Kernel::obs_snapshot()` on both kernels: a
/// `VfsStats` counter that depends on who won an insertion race or on a
/// per-process hash seed differs here, and on PK the per-thread rows and
/// per-core slots summed at read time must sum alike.
#[test]
fn functional_contention_is_byte_stable_across_runs() {
    for kernel in ["stock", "pk"] {
        assert_byte_stable(
            &format!("contention-{kernel}"),
            &format!("report contention exim {kernel} 8 --functional"),
            &[],
        );
    }
}
