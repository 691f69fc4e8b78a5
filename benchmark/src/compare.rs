//! `compare <dirA> <dirB>`: the repeatability check.
//!
//! A result set is a directory of `results.<workload>.seed<N>.json`
//! (untraced runs) and `layers.<workload>.seed<N>.json` (traced runs).
//! For each end-to-end metric and workload this prints both sets'
//! medians and quartiles, B's median over A's, and a verdict against
//! the metric's bound in `BENCHMARK.json`: `worse` when B's median is
//! worse than A's by more than the bound, `unresolved` when either
//! set's own spread exceeds the bound, `same` otherwise. Counter metrics
//! of traced runs with the same workload and seed must be equal. Exits
//! 1 on any `worse` row or counter mismatch.

use crate::harness::quartiles;
use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, metric) → one value per run; and (file name, metric) →
/// counter value.
#[derive(Default)]
struct ResultSet {
    end_to_end: BTreeMap<(String, String), Vec<f64>>,
    counters: BTreeMap<(String, String), f64>,
}

fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json") && (n.starts_with("results.") || n.starts_with("layers.")))
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let metrics = doc.get("metrics").map(Json::as_obj).unwrap_or_default();
        for (metric, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                return Err(format!("{}: {metric} has no value", path.display()));
            };
            if name.starts_with("results.") {
                set.end_to_end
                    .entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(value);
            } else if m.get("counter") == Some(&Json::Bool(true)) {
                set.counters.insert((name.clone(), metric.clone()), value);
            }
        }
    }
    if set.end_to_end.is_empty() {
        return Err(format!("{}: no results.*.json files", dir.display()));
    }
    Ok(set)
}

/// Verdict for one row: B against A under `bound`.
fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (&'static str, f64) {
    let (a1, a2, a3) = quartiles(a);
    let (b1, b2, b3) = quartiles(b);
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let worsening = if higher_is_better {
        (a2 - b2) / a2
    } else {
        (b2 - a2) / a2
    };
    let v = if spread > bound {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else {
        "same"
    };
    (v, spread)
}

pub fn compare(dir_a: &Path, dir_b: &Path) -> i32 {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let spec = json::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let mut bad = 0;
    println!(
        "{:<14} {:<18} {:>13} {:>13} {:>13} {:>13} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B/A",
        "spread",
        "bound"
    );
    for workload in crate::WORKLOADS {
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("metric field");
            let name = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).expect("metric bound");
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                continue;
            };
            let (v, spread) = verdict(va, vb, field("better") == "higher", bound);
            let (a1, a2, a3) = quartiles(va);
            let (b1, b2, b3) = quartiles(vb);
            println!(
                "{workload:<14} {name:<18} {a2:>13.4} {:>13} {b2:>13.4} {:>13} {:>7.3} {spread:>7.3} {bound:>6.2}  {v}",
                format!("{:.3}", a3 - a1),
                format!("{:.3}", b3 - b1),
                b2 / a2,
            );
            bad += i32::from(v == "worse");
        }
    }
    let mut compared = 0;
    for (key, va) in &a.counters {
        if let Some(vb) = b.counters.get(key) {
            compared += 1;
            if va != vb {
                println!("counter {} in {}: {va} vs {vb}  MISMATCH", key.1, key.0);
                bad += 1;
            }
        }
    }
    println!("{compared} counters compared across traced runs of the same workload and seed");
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [90.0, 91.0, 89.0, 90.0, 90.5];
        let noisy = [100.0, 140.0, 60.0, 100.0, 120.0];
        assert_eq!(verdict(&steady, &steady, true, 0.05).0, "same");
        assert_eq!(verdict(&steady, &slower, true, 0.05).0, "worse");
        // Lower is better: the same move is an improvement.
        assert_eq!(verdict(&steady, &slower, false, 0.05).0, "same");
        assert_eq!(verdict(&slower, &steady, false, 0.05).0, "worse");
        assert_eq!(verdict(&steady, &noisy, true, 0.05).0, "unresolved");
    }
}
