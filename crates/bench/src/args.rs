//! Table-driven argument parsing shared by every `pk-bench` subcommand.
//!
//! A subcommand declares a [`Spec`] — its positionals and flags, each
//! with a [`Kind`] — and gets back validated [`Args`] or a message for
//! the usage error. Everything that comes from the command line is
//! checked here, before any report runs: an unknown flag, a missing or
//! unparsable value, a core count that does not fit the topology, or a
//! word outside the accepted set (a workload outside `roster::NAMES`)
//! is an `Err`, never a panic deep inside a simulator.

use pk_kernel::Personality;
use pk_sim::MachineSpec;
use std::str::FromStr;

/// What a flag or positional accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// A `u64`.
    Num,
    /// One core count that fits the topology (`--topology` if the
    /// subcommand takes it and it was given, else the paper machine).
    /// Carries the default, which is checked like a given value — a
    /// small `--topology` can make the default itself a usage error.
    Cores(usize),
    /// Comma-separated core counts, each fitting the topology.
    CoreList,
    /// `<sockets>x<cores_per_socket>`.
    Topology,
    /// One of a fixed set of lowercase words.
    OneOf(&'static [&'static str]),
    /// Comma-separated words from a fixed lowercase set.
    ListOf(&'static [&'static str]),
    /// Free text (a path).
    Text,
}

/// The [`Personality::label`]s of `personalities`, as the word list of
/// a [`Kind::OneOf`] — usage text and the accepted words come from the
/// enum, so neither can drift from it.
pub const fn labels<const N: usize>(personalities: [Personality; N]) -> [&'static str; N] {
    let mut words = [""; N];
    let mut i = 0;
    while i < N {
        words[i] = personalities[i].label();
        i += 1;
    }
    words
}

/// Every personality's label: the `PERSONALITY` positional.
pub const PERSONALITIES: [&str; 4] = labels(Personality::ALL);

/// A flag (`("--seed", Kind::Num)`) or positional (`("CORES", Kind::Cores(48))`).
pub type Arg = (&'static str, Kind);

/// One subcommand's command-line grammar.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The subcommand as typed, e.g. `"report chaos"`.
    pub command: &'static str,
    /// Positionals in order; flags may be interleaved with them.
    pub positionals: &'static [Arg],
    /// How many leading positionals must be present.
    pub required: usize,
    /// Accepted flags.
    pub flags: &'static [Arg],
}

/// The validated command line of one subcommand.
#[derive(Debug, Clone)]
pub struct Args {
    /// `(name, checked value)` in command-line order, defaults last.
    values: Vec<(&'static str, String)>,
    machine: MachineSpec,
}

impl Kind {
    fn metavar(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Num | Kind::Cores(_) => "N".into(),
            Kind::CoreList => "N[,N,...]".into(),
            Kind::Topology => "SxC".into(),
            Kind::OneOf(words) => words.join("|"),
            Kind::ListOf(_) => "a,b,c".into(),
            Kind::Text => "PATH".into(),
        }
    }

    /// Checks one element of a value and returns it as the getters
    /// will see it (words lowercased).
    fn check(self, s: &str, machine: &MachineSpec) -> Result<String, String> {
        match self {
            // A topology was parsed when `machine` was resolved.
            Kind::Switch | Kind::Text | Kind::Topology => Ok(s.to_string()),
            Kind::Num => match s.parse::<u64>() {
                Ok(_) => Ok(s.to_string()),
                Err(_) => Err(format!("expected a number, got {s:?}")),
            },
            Kind::Cores(_) | Kind::CoreList => {
                let n = s
                    .parse()
                    .map_err(|_| format!("expected a core count, got {s:?}"))?;
                machine.validate_cores(n).map_err(|e| e.to_string())?;
                Ok(s.to_string())
            }
            Kind::OneOf(words) | Kind::ListOf(words) => {
                let word = s.to_ascii_lowercase();
                if words.contains(&word.as_str()) {
                    Ok(word)
                } else {
                    Err(format!("expected one of {}, got {s:?}", words.join(", ")))
                }
            }
        }
    }
}

impl Spec {
    /// The grammar of a subcommand that takes only flags.
    pub const fn flags(command: &'static str, flags: &'static [Arg]) -> Self {
        Self {
            command,
            positionals: &[],
            required: 0,
            flags,
        }
    }

    /// The one-line usage string, generated from the tables.
    pub fn usage(&self) -> String {
        let mut out = format!("pk-bench {}", self.command);
        for (i, (name, kind)) in self.positionals.iter().enumerate() {
            let shown = match kind {
                Kind::OneOf(_) => kind.metavar(),
                _ => name.to_string(),
            };
            out += &if i < self.required {
                format!(" <{shown}>")
            } else {
                format!(" [{shown}]")
            };
        }
        for (name, kind) in self.flags {
            let value = kind.metavar();
            let sep = if value.is_empty() { "" } else { " " };
            out += &format!(" [{name}{sep}{value}]");
        }
        out
    }

    /// Parses and validates `argv` (the tokens after the subcommand).
    /// A repeated flag keeps its last value.
    pub fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let mut raw: Vec<(Arg, String)> = Vec::new();
        let mut positionals = self.positionals.iter();
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            let (arg, value) = if token.starts_with('-') {
                let arg = self.flags.iter().find(|(name, _)| name == token);
                let arg = arg.ok_or_else(|| format!("unknown flag {token}"))?;
                let value = match arg.1 {
                    Kind::Switch => "",
                    _ => it
                        .next()
                        .ok_or_else(|| format!("{token} requires a value"))?,
                };
                (arg, value)
            } else {
                let arg = positionals.next();
                (
                    arg.ok_or_else(|| format!("unexpected argument {token:?}"))?,
                    token.as_str(),
                )
            };
            raw.push((*arg, value.to_string()));
        }
        let seen = self.positionals.len() - positionals.len();
        if let Some((name, _)) = self.positionals[..self.required].get(seen) {
            return Err(format!("missing <{name}>"));
        }
        for arg in self.positionals.iter().chain(self.flags) {
            let given = raw.iter().any(|(a, _)| a.0 == arg.0);
            if let (Kind::Cores(default), false) = (arg.1, given) {
                raw.push((*arg, default.to_string()));
            }
        }
        // Resolve the topology first: `--cores` may precede it.
        let mut machine = MachineSpec::paper();
        for ((name, _), spec) in raw.iter().filter(|(a, _)| a.1 == Kind::Topology) {
            machine = MachineSpec::parse_topology(spec).map_err(|e| format!("{name}: {e}"))?;
        }
        let values = raw
            .into_iter()
            .map(|((name, kind), value)| {
                let parts: Vec<&str> = match kind {
                    Kind::CoreList | Kind::ListOf(_) => value.split(',').map(str::trim).collect(),
                    _ => vec![&value],
                };
                let checked: Result<Vec<_>, _> =
                    parts.iter().map(|p| kind.check(p, &machine)).collect();
                Ok((name, checked.map_err(|e| format!("{name}: {e}"))?.join(",")))
            })
            .collect::<Result<_, String>>()?;
        Ok(Args { values, machine })
    }
}

impl Args {
    /// The value given for `name`, if any (`""` for a switch).
    pub fn text(&self, name: &str) -> Option<&str> {
        let given = self.values.iter().rev().find(|(n, _)| *n == name);
        given.map(|(_, v)| v.as_str())
    }

    /// Whether flag or positional `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of a numeric (`Num`, `Cores`) argument.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name)?.parse().ok()
    }

    /// The elements of a list (`CoreList`, `ListOf`) argument.
    pub fn list<T: FromStr>(&self, name: &str) -> Option<Vec<T>> {
        let parts = self.text(name)?.split(',');
        Some(parts.filter_map(|s| s.parse().ok()).collect())
    }

    /// The value of `Cores` argument `name` (given or defaulted).
    pub fn cores(&self, name: &str) -> usize {
        self.get(name)
            .expect("Spec::parse fills in every Cores default")
    }

    /// The machine every core count was validated against.
    pub fn machine(&self) -> MachineSpec {
        self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: &[&str] = &["exim", "apache"];
    const SPEC: Spec = Spec {
        command: "report test",
        positionals: &[
            ("WORKLOAD", Kind::OneOf(WORKLOADS)),
            ("KERNEL", Kind::OneOf(&["stock", "pk"])),
            ("CORES", Kind::Cores(48)),
        ],
        required: 0,
        flags: &[
            ("--seed", Kind::Num),
            ("--cores", Kind::CoreList),
            ("--workloads", Kind::ListOf(WORKLOADS)),
            ("--topology", Kind::Topology),
            ("--json", Kind::Text),
            ("--strict", Kind::Switch),
        ],
    };

    fn parse(spec: &Spec, line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        spec.parse(&argv)
    }

    #[test]
    fn accepts_interleaved_positionals_and_flags() {
        let line = "Exim --seed 7 PK --strict 12 --json out.json --workloads exim,Apache";
        let a = parse(&SPEC, line).unwrap();
        assert_eq!(a.text("WORKLOAD"), Some("exim"));
        assert_eq!(a.text("KERNEL"), Some("pk"));
        assert_eq!(a.cores("CORES"), 12);
        assert_eq!(a.get::<u64>("--seed"), Some(7));
        assert_eq!(a.text("--json"), Some("out.json"));
        assert!(a.has("--strict") && !a.has("--cores"));
        assert_eq!(a.list::<String>("--workloads").unwrap(), ["exim", "apache"]);
        assert_eq!(a.machine().cores(), 48);
    }

    #[test]
    fn empty_line_is_all_defaults_and_repeats_keep_the_last() {
        let a = parse(&SPEC, "").unwrap();
        assert!(!a.has("--seed") && !a.has("WORKLOAD"));
        assert_eq!(a.cores("CORES"), 48, "defaults come from the table");
        let a = parse(&SPEC, "--seed 1 --seed 2").unwrap();
        assert_eq!(a.get::<u64>("--seed"), Some(2));
    }

    #[test]
    fn every_bad_input_is_an_error_not_a_panic() {
        for (line, needle) in [
            ("--bogus", "unknown flag --bogus"),
            ("-h", "unknown flag -h"),
            ("--seed", "--seed requires a value"),
            ("--seed abc", "--seed: expected a number"),
            ("--seed -1", "--seed: expected a number"),
            ("--cores 0", "--cores: topology axes and core counts"),
            ("--cores 4,x", "--cores: expected a core count"),
            ("--cores 4096", "oversubscribe the 8x6 topology"),
            ("exim stock 49", "CORES: 49 cores oversubscribe"),
            (
                "--workloads exim,bogus",
                "expected one of exim, apache, got \"bogus\"",
            ),
            ("nethack", "WORKLOAD: expected one of exim, apache"),
            ("exim fast", "KERNEL: expected one of stock, pk"),
            ("--topology 8by6", "--topology: malformed topology"),
            ("--topology 0x6 --topology 8x6", "--topology:"),
            ("--topology 2x2", "CORES: 48 cores oversubscribe the 2x2"),
            ("exim stock 4 extra", "unexpected argument \"extra\""),
        ] {
            let err = parse(&SPEC, line).expect_err(line);
            assert!(err.contains(needle), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn cores_are_checked_against_the_given_topology_in_any_order() {
        for line in [
            "--cores 1024 --topology 64x16",
            "--topology 64x16 --cores 1024",
        ] {
            let a = parse(&SPEC, line).unwrap();
            assert_eq!(a.list::<usize>("--cores").unwrap(), [1024]);
            assert_eq!(a.machine().cores(), 1024);
        }
        assert!(parse(&SPEC, "--cores 1025 --topology 64x16").is_err());
    }

    #[test]
    fn required_positionals_and_usage() {
        let spec = Spec {
            command: "sweep",
            positionals: &[("APP", Kind::OneOf(&["exim", "metis-2m"]))],
            required: 1,
            flags: &[("--cores", Kind::CoreList), ("--rw", Kind::Switch)],
        };
        assert_eq!(parse(&spec, "--rw").unwrap_err(), "missing <APP>");
        assert!(parse(&spec, "metis-2m --cores 1,48").is_ok());
        assert_eq!(
            spec.usage(),
            "pk-bench sweep <exim|metis-2m> [--cores N[,N,...]] [--rw]"
        );
        assert_eq!(
            SPEC.usage(),
            "pk-bench report test [exim|apache] [stock|pk] [CORES] [--seed N] \
             [--cores N[,N,...]] [--workloads a,b,c] [--topology SxC] [--json PATH] [--strict]"
        );
    }
}
