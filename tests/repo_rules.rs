//! The repository's textual rules, one row each: a `grep` over the
//! source tree that must select no line. Every row runs from the
//! repository root, and a hit fails the test naming its `file:line`.
//!
//! The paths of a row expand as a shell would expand them: `{a,b}`
//! names every alternative, and a `*` component every existing match.
//! A path that does not exist is grep's error (exit 2), which fails the
//! row like a hit does: a rule over a moved tree reports, it does not
//! go quietly dead.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One rule: `grep {flags} -e {pattern} -- {paths}` must select nothing.
struct Rule {
    name: &'static str,
    flags: &'static str,
    pattern: &'static str,
    paths: &'static str,
    /// Lines the rule forbids, planted by `every_rule_reports_a_planted_violation`.
    /// Empty means each of the pattern's `|` alternatives, unescaped.
    plants: &'static [&'static str],
}

const RULES: [Rule; 7] = [
    // Every substrate lock is a classed `pk_sync` lock, the one shell
    // lockdep, `LockStats` and the tracer see: no `parking_lot`, no std
    // `Mutex`/`RwLock` in the kernel crates' `src`, their unit tests
    // included. Integration tests under `crates/*/tests` are outside
    // it: there a std `Mutex` shares an mpsc receiver among harness
    // threads (`crates/core/tests/{snzi,counter,percore_ref}_properties.rs`),
    // plumbing that no kernel path runs and lockdep need not see.
    Rule {
        name: "substrate locks go through pk_sync",
        flags: "-rnE",
        pattern: r"parking_lot|std::sync::(Mutex|RwLock)|(^|[^A-Za-z0-9_])(Mutex|RwLock)(<|::)",
        paths: "crates/{core,mm,net,proc,vfs,kernel}/src",
        plants: &[
            "use parking_lot::Mutex;",
            "use std::sync::RwLock;",
            "static TABLE: Mutex<u8> = todo!();",
            "let names = RwLock::new(0);",
        ],
    },
    // One implementation per mechanism: `pk_lockdep::probe` is the one
    // interleaving hook, `pk_fault::fnv64` the one byte hash and
    // `pk_obs::json_escape` the one JSON string escape.
    Rule {
        name: "one probe hook, one FNV-64, one JSON escape",
        flags: "-rnE",
        pattern: r"RACE_PROBE|FILL_PROBE|ROOT_PROBE|SPILL_PROBE|with_race_probe|with_fill_probe|with_root_probe|with_spill_probe|fn fnv1a|escape_json",
        paths: "crates/*/src",
        plants: &[],
    },
    // Names of deleted mechanisms stay deleted, in code and in the docs
    // that describe it. This file holds the list, so it does not count;
    // the historical ledgers (EXPERIMENTS.md, CHANGES.md) are not searched.
    Rule {
        name: "removed names stay removed",
        flags: "-rnE",
        pattern: r"degrade_to_central|restore_per_core|set_ref_banking|split_buckets|refs_start_degraded|Governor|ApproxCounter|DistributedCounter|SnziCounter|PackedPage|SplitPage|PageLayout|fields_share_line|split_page_layout|isolate_false_sharing|pk.sim::bounds|stats_accuracy|json::lines|MetricSet|ProfileNode|check_against_baseline|GmakeDriver|PedsortDriver|check_report|REGRESSION_BUDGET|inflate_user_cycles|StationSample|MetricValue::Station|Sample::station|from_snapshot|pk_obs::Collect|Collect for|RcuObs|LockdepSource|TraceSink|pk_trace::Profile|CpuAccounting|charge_user|charge_system|share_where|udp_ports|port_table|deferred_reclamation|with_deferred_reclamation|stall_reduction_pct|OverloadAssertions|TailAssertions|EximInversion::observed|Scheduler|pick_next|SchedStats|with_overload|accept_backlog_cap|accept_overflows|with_sockets|with_config_and_faults|fn readdir|fn link\(|inc_nlink|/proc/loadavg|/proc/cpuinfo|/proc/meminfo|counts_for|cycles_to_secs|AdaptPolicy|RetryPolicy|ShedPolicy|DropOldest|with_degradation|degrade_watermark|degrade_label|slo_multiple|HistShard|mod metrics|demand_unless|gen2_demand|EximModel|MemcachedModel|ApacheModel|GmakeModel|intern_site|site_name|site_id|trace_counter|EventKind::Counter|NodeKind::Counter|ADMISSION_QUEUE_CLASS|dcache_evictions|epoch_depth|NotYourChild|NotAZombie|ProcessState|reap_core",
        paths: "crates src tests examples DESIGN.md README.md benchmark/src .claude/skills",
        plants: &[],
    },
    // A model is built from its station table (`pk_workloads::stations`)
    // and nothing else: no hand-pushed station in the seven model files.
    Rule {
        name: "model stations come from the station tables",
        flags: "-nE",
        pattern: r"Station::(delay|queue|spinlock)",
        paths: "crates/workloads/src/exim.rs crates/workloads/src/memcached.rs crates/workloads/src/apache.rs crates/workloads/src/postgres.rs crates/workloads/src/gmake.rs crates/workloads/src/pedsort.rs crates/workloads/src/metis.rs",
        plants: &[
            "net.push(Station::delay(\"think\", 1.0));",
            "net.push(Station::queue(\"disk\", 1.0));",
            "net.push(Station::spinlock(\"vfsmount\", 1.0));",
        ],
    },
    // Dentries, vfsmounts and dst entries count on per-core refcounts.
    // `Snzi` and `SnziRefCount` survive in `pk-sloppy` only because the
    // repo benchmark's primitives time them; the SNZI tree must not
    // creep back into a kernel path. (`FixId::Snzi*Refs` name model
    // stations and are not whole-word matches.)
    Rule {
        name: "no SNZI in a kernel path",
        flags: "-rnwE",
        pattern: r"Snzi|SnziRefCount|RefCount::Snzi",
        paths: "crates/vfs/src crates/net/src crates/kernel/src crates/workloads/src",
        plants: &[
            "use pk_sloppy::Snzi;",
            "refs: SnziRefCount,",
            "let r = RefCount::Snzi(tree);",
        ],
    },
    // The open engines draw ahead: their service times and arrival
    // gaps come from `des::Draws`, whose `k`-th draw is `des::service`'s
    // `k`-th. The on-the-spot draw is the reference engine's, the
    // oracle's, alone.
    Rule {
        name: "the open engines draw ahead",
        flags: "-nE",
        pattern: r"des::service\(",
        paths: "crates/sim/src/{open,flow}.rs",
        plants: &["let s = crate::des::service(rng, mean);"],
    },
    // Kernel tables name their hasher: ids this program hands out (pids,
    // inode numbers, open-file ids, page indices) hash with
    // `pk_percpu::IntKeyMap`/`IntKeySet`, directory-entry names with the
    // FNV-64 `NameHasher`. A map with std's default `RandomState` pays a
    // SipHash-1-3 digest per probe and a keyed state per construction.
    // The rule catches a map built with `::new`/`::with_capacity`/`::from`
    // and a type written with no hasher parameter. The named exception
    // is `dentry.rs`'s `DefaultHasher` (and `dcache.rs`'s test that
    // reproduces it): it places dentries in dcache buckets, that
    // placement decides which dentries collide, and the committed
    // goldens pin those collisions (`vfs.stock.dentry_lock_acquisitions_first_rep`).
    Rule {
        name: "kernel tables name their hasher",
        flags: "-rnE",
        pattern: r"Hash(Map|Set)::(new|with_capacity|from)|HashMap<[^<>,]+(<[^<>]*>)?,[^<>,]+(<[^<>]*>)?>|HashSet<[^<>,]+(<[^<>]*>)?>",
        paths: "crates/{proc,vfs,mm,net,kernel}/src",
        plants: &[
            "children: SpinLock<HashMap<String, InodeId>>,",
            "children: SpinLock::new(HashMap::new()),",
            "procs: SpinLock<HashMap<Pid, Arc<Process>>>,",
            "present: HashSet<u64>,",
            "let mut seen = std::collections::HashSet::new();",
        ],
    },
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The paths one shell word names under `root`.
fn expand(root: &Path, word: &str) -> Vec<String> {
    if let Some((head, rest)) = word.split_once('{') {
        let (alternatives, tail) = rest.split_once('}').expect("a closed brace");
        return (alternatives.split(','))
            .flat_map(|alt| expand(root, &format!("{head}{alt}{tail}")))
            .collect();
    }
    if let Some((dir, tail)) = word.split_once("/*/") {
        let mut matches: Vec<String> = (std::fs::read_dir(root.join(dir)).into_iter().flatten())
            .map(|entry| entry.expect("a readable directory").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .filter(|name| !name.starts_with('.'))
            .map(|name| format!("{dir}/{name}/{tail}"))
            .filter(|path| root.join(path).exists())
            .collect();
        matches.sort();
        if !matches.is_empty() {
            return matches;
        }
    }
    vec![word.to_owned()]
}

fn paths(rule: &Rule, root: &Path) -> Vec<String> {
    (rule.paths.split_whitespace())
        .flat_map(|word| expand(root, word))
        .collect()
}

/// This file, relative to the root. It holds every pattern, so its own
/// lines never count as hits.
const THIS_FILE: &str = "tests/repo_rules.rs";

/// Runs `rule` over the tree at `root`: `Ok` when grep selects no line
/// outside [`THIS_FILE`], else the rule's name with every hit, one
/// `file:line:text` a line, or grep's own failure.
fn check(rule: &Rule, root: &Path) -> Result<(), String> {
    let out = Command::new("grep")
        .args([rule.flags, "-e", rule.pattern, "--"])
        .args(paths(rule, root))
        .current_dir(root)
        .output()
        .expect("grep runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let hits: Vec<&str> = (stdout.lines())
        .filter(|hit| !hit.starts_with(&format!("{THIS_FILE}:")))
        .collect();
    match out.status.code() {
        Some(0 | 1) if hits.is_empty() => Ok(()),
        Some(0) => Err(format!("{}:\n{}", rule.name, hits.join("\n"))),
        code => Err(format!(
            "{}: grep failed ({code:?}): {}",
            rule.name,
            String::from_utf8_lossy(&out.stderr).trim_end()
        )),
    }
}

#[test]
fn the_tree_keeps_every_rule() {
    let broken: Vec<String> = (RULES.iter())
        .filter_map(|rule| check(rule, repo()).err())
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n\n"));
}

/// An empty directory unique to this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repo-rules-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Each rule runs over an empty copy of the paths it searches, one of
/// them holding a clean line and then every line the rule forbids; the
/// rule must report each of those lines as `file:line`.
#[test]
fn every_rule_reports_a_planted_violation() {
    for (i, rule) in RULES.iter().enumerate() {
        let root = scratch(&format!("plant-{i}"));
        let paths = paths(rule, repo());
        for path in &paths {
            if repo().join(path).is_dir() {
                std::fs::create_dir_all(root.join(path)).expect("mkdir");
            } else {
                std::fs::create_dir_all(root.join(path).parent().expect("a parent"))
                    .expect("mkdir");
                std::fs::write(root.join(path), "").expect("touch");
            }
        }
        let plants: Vec<String> = if rule.plants.is_empty() {
            (rule.pattern.split('|'))
                .map(|alt| alt.replace('\\', ""))
                .collect()
        } else {
            rule.plants.iter().map(|line| line.to_string()).collect()
        };
        let file = if repo().join(&paths[0]).is_dir() {
            format!("{}/planted.rs", paths[0])
        } else {
            paths[0].clone()
        };
        std::fs::write(
            root.join(&file),
            format!("// clean\n{}\n", plants.join("\n")),
        )
        .expect("plant");
        let report = check(rule, &root).expect_err(rule.name);
        std::fs::remove_dir_all(&root).expect("clean up");
        assert!(!report.contains("grep failed"), "{report}");
        for (n, plant) in plants.iter().enumerate() {
            let at = format!("\n{file}:{}:", n + 2);
            assert!(
                report.contains(&at),
                "{}: {plant:?} not reported at {at:?}:\n{report}",
                rule.name
            );
        }
    }
}

/// A rule whose grep cannot run as written, here because its paths are
/// missing, fails instead of passing with nothing selected.
#[test]
fn a_rule_whose_grep_fails_does_not_pass() {
    let root = scratch("missing");
    for rule in &RULES {
        let err = check(rule, &root).expect_err(rule.name);
        assert!(err.contains("grep failed (Some(2))"), "{err}");
    }
    std::fs::remove_dir_all(&root).expect("clean up");
}
