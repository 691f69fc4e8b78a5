//! What every workload shares: statistics, the seeded input generator,
//! the harness-side span recorder, the per-layer ledger, the watchdog
//! and the host facts recorded with every result.

use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(v, n=4)` gives them (the exclusive method),
/// so `compare` computes the spread the same way the driver does.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let n = s.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The `p`-quantile (0..1) of `v` by nearest rank.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Smallest sample. The host's noise only ever adds time (a busy
/// sibling thread, a neighbour's cache traffic), in bursts and in
/// plateaus that outlast a rep, so the best of N estimates the cost on
/// a quiet machine and repeats far better between runs than the median
/// does (README, "Evidence for the bounds").
pub fn best_time(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values.
pub fn geomean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = v
        .into_iter()
        .fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    assert!(n > 0, "geometric mean of no values");
    (sum / f64::from(n)).exp()
}

/// SplitMix64: the harness's own input generator, so the inputs depend
/// on `--seed` and on nothing in the code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` indices into a table of `n` entries.
    pub fn indices(&mut self, len: usize, n: usize) -> Vec<u32> {
        (0..len).map(|_| self.below(n as u64) as u32).collect()
    }
}

/// FNV-1a 64 of `bytes`, for pinning byte strings in the golden files.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One harness-side span around a call (or a batch of `calls` calls)
/// into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u32,
    pub start_ns: u64,
    /// 0 while the span is still open.
    pub end_ns: u64,
    /// Index of the enclosing span, -1 at the top.
    pub parent: i64,
    pub rep: u32,
    pub calls: u64,
}

#[derive(Debug)]
struct Spans {
    spans: Vec<Span>,
    /// Span names are interned, so recording a span allocates nothing.
    names: Vec<String>,
    ids: HashMap<String, u32>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// Times sections and, when enabled, keeps a span for each in memory
/// until the run ends. The lock is held only while a span is pushed or
/// closed, never across the timed call, so the watchdog can always
/// read which span is open.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    inner: Mutex<Spans>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            inner: Mutex::new(Spans {
                spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
                names: Vec::new(),
                ids: HashMap::new(),
                open: Vec::with_capacity(16),
                rep: 0,
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.inner
            .lock()
            .expect("no thread panics while pushing a span")
    }

    /// Reps are numbered so a span can be matched to its rep.
    pub fn set_rep(&self, rep: u32) {
        self.lock().rep = rep;
    }

    /// Runs `f` and returns its result with its wall time in seconds;
    /// when enabled also records a span named `name` covering `calls`
    /// calls. The two clock reads sit directly around `f`, so the
    /// recorder's own work is outside the interval.
    pub fn time<T>(&self, name: &str, calls: u64, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let idx = {
            let mut g = self.lock();
            let parent = g.open.last().map_or(-1, |&i| i as i64);
            let rep = g.rep;
            let idx = g.spans.len();
            let name = g.intern(name);
            g.spans.push(Span {
                name,
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                rep,
                calls,
            });
            g.open.push(idx);
            idx
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut g = self.lock();
        g.spans[idx].start_ns = (start - self.t0).as_nanos() as u64;
        g.spans[idx].end_ns = (end - self.t0).as_nanos() as u64;
        g.open.pop();
        (out, (end - start).as_secs_f64())
    }

    /// Name of the innermost span still open, if the lock is free.
    fn open_span(&self) -> Option<String> {
        let g = self.inner.try_lock().ok()?;
        g.open
            .last()
            .map(|&i| g.names[g.spans[i].name as usize].clone())
    }

    /// Writes the spans as `{"meta": .., "spans": [..]}`, one span per
    /// line. Uses `try_lock` so the watchdog can dump from a hung run.
    pub fn write_json(&self, path: &Path, meta: &str) -> std::io::Result<()> {
        let Ok(g) = self.inner.try_lock() else {
            return Err(std::io::Error::other("span buffer is locked"));
        };
        let mut out = String::with_capacity(g.spans.len() * 96 + 256);
        let _ = writeln!(out, "{{\"meta\": {meta},\n\"spans\": [");
        for (i, s) in g.spans.iter().enumerate() {
            let comma = if i + 1 == g.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"rep\": {}, \"calls\": {}}}{comma}",
                json::escape(&g.names[s.name as usize]),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.rep,
                s.calls
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// How a metric's per-rep samples reduce to one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    /// Times: the best (smallest) sample.
    Min,
    /// Rates: the best (largest) sample.
    Max,
    /// Ratios of two measured quantities.
    Median,
}

/// The per-layer ledger: one sample per rep for each metric, values
/// fixed at the end of a run (quantiles over per-op samples, ratios of
/// totals), and counters, which must read the same on every rep.
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<String, Vec<f64>>,
    fixed: BTreeMap<String, (f64, usize)>,
    counters: BTreeMap<String, u64>,
    /// Counters that read differently on two reps of one run.
    pub counter_mismatches: Vec<String>,
}

/// A reduced metric: value and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduced {
    pub value: f64,
    pub samples: usize,
    /// Counters are compared for equality by `compare`.
    pub counter: bool,
}

impl Ledger {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn fix(&mut self, name: &str, value: f64, samples: usize) {
        self.fixed.insert(name.to_string(), (value, samples));
    }

    pub fn counter(&mut self, name: &str, value: u64) {
        if let Some(prev) = self.counters.insert(name.to_string(), value) {
            if prev != value {
                self.counter_mismatches
                    .push(format!("{name}: {prev} then {value}"));
            }
        }
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every metric by name, sorted; `how` says how a sampled metric
    /// reduces.
    pub fn reduce(&self, how: impl Fn(&str) -> Reduce) -> BTreeMap<String, Reduced> {
        let mut out = BTreeMap::new();
        for (name, v) in &self.samples {
            out.insert(
                name.clone(),
                Reduced {
                    value: match how(name) {
                        Reduce::Min => best_time(v),
                        Reduce::Max => v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        Reduce::Median => median(v),
                    },
                    samples: v.len(),
                    counter: false,
                },
            );
        }
        for (name, &(value, samples)) in &self.fixed {
            out.insert(
                name.clone(),
                Reduced {
                    value,
                    samples,
                    counter: false,
                },
            );
        }
        for (name, &value) in &self.counters {
            out.insert(
                name.clone(),
                Reduced {
                    value: value as f64,
                    samples: 1,
                    counter: true,
                },
            );
        }
        out
    }
}

/// Kills a run that outlives its wall-clock limit: prints the open
/// span, dumps the spans recorded so far, and exits non-zero, so a
/// livelock costs minutes, not the driver's whole budget.
#[derive(Debug)]
pub struct Watchdog {
    done: Arc<(Mutex<bool>, Condvar)>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    pub fn arm(limit: Duration, rec: Arc<Recorder>, dump: PathBuf, meta: String) -> Self {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&done);
        let thread = std::thread::spawn(move || {
            let (lock, cv) = &*flag;
            let guard = lock.lock().expect("watchdog flag is never poisoned");
            let (guard, timeout) = cv
                .wait_timeout_while(guard, limit, |finished| !*finished)
                .expect("watchdog flag is never poisoned");
            if *guard || !timeout.timed_out() {
                return;
            }
            eprintln!(
                "watchdog: run exceeded {:.0} s; open span: {}",
                limit.as_secs_f64(),
                rec.open_span().as_deref().unwrap_or("(none recorded)")
            );
            match rec.write_json(&dump, &meta) {
                Ok(()) => eprintln!("watchdog: spans dumped to {}", dump.display()),
                Err(e) => eprintln!("watchdog: could not dump spans: {e}"),
            }
            std::process::exit(124);
        });
        Self { done, thread }
    }

    /// Stops the watchdog and waits for its thread.
    pub fn disarm(self) {
        let (lock, cv) = &*self.done;
        *lock.lock().expect("watchdog flag is never poisoned") = true;
        cv.notify_all();
        self.thread.join().expect("watchdog thread does not panic");
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host facts as a JSON object: a result means little without them.
/// `threads` is that of the timed end-to-end sections (the `*_t2_*`
/// rows of a traced run use two).
pub fn host_facts(seed: u64, reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"seed\": {seed}, \
         \"reps\": {reps}, \"threads\": 1}}",
        json::escape(&command_line("rustc", &["--version"])),
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_close() {
        let rec = Recorder::new(true);
        rec.time("outer", 1, || {
            rec.time("inner", 3, || std::thread::sleep(Duration::from_millis(5)));
        });
        let g = rec.lock();
        assert!(g.spans[0].end_ns - g.spans[0].start_ns >= g.spans[1].end_ns - g.spans[1].start_ns);
        assert_eq!((g.spans[1].parent, g.spans[1].calls), (0, 3));
        assert!(g.open.is_empty());
    }

    #[test]
    fn ledger_flags_a_counter_that_moves_between_reps() {
        let mut l = Ledger::default();
        l.counter("c", 7);
        l.counter("c", 7);
        assert!(l.counter_mismatches.is_empty());
        l.counter("c", 8);
        assert_eq!(l.counter_mismatches.len(), 1);
        l.sample("t", 3.0);
        l.sample("t", 1.0);
        l.sample("t", 2.0);
        assert_eq!(l.reduce(|_| Reduce::Median)["t"].value, 2.0);
        assert_eq!(l.reduce(|_| Reduce::Min)["t"].value, 1.0);
        assert_eq!(l.reduce(|_| Reduce::Max)["t"].value, 3.0);
    }
}
