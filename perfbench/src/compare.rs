//! `perfbench compare BASE.json... -- CHANGE.json...`: the no-regression
//! rule over sets of result files, with the bounds `BENCHMARK.json` fixes.
//!
//! For each (workload, end-to-end metric) it prints both sides' median and
//! quartiles and one verdict:
//!
//! * `unresolved` — the base's own spread (quartile distance over median)
//!   is wider than the bound, unless every change run beats every base
//!   run;
//! * `worse` — the change's median is worse than the base's by more than
//!   the bound;
//! * `better` — the change wins at least nine tenths of the index-paired
//!   runs and the medians differ by more than the base's quartile
//!   distance;
//! * `within` — none of the above.
//!
//! Files from different host shapes (cores, threading) are refused, as are
//! traced runs. Base and change files with the same seed must agree on
//! every exact simulated counter, or the run is reported as "simulated
//! results changed".

use crate::json::{self, Json};
use crate::stats;
use crate::{declared, EndToEnd};

/// A verdict with the printed row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Within,
}

/// Applies the rule to one metric. `base` and `change` hold one value per
/// result file, in file order (pairs are formed by index).
pub fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(base_median), Some(change_median)) = (stats::median(base), stats::median(change))
    else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let every_run_better = change.iter().all(|c| base.iter().all(|b| better(*c, *b)));
    let Some((q1, q3)) = stats::quartiles(base) else {
        // One base run says nothing about the base's own spread.
        return Verdict::Unresolved;
    };
    let spread = (q3 - q1) / base_median.abs();
    if spread > bound {
        return if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let gain = sign * (change_median - base_median) / base_median.abs();
    if gain < -bound {
        return Verdict::Worse;
    }
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| better(**c, **b))
        .count();
    if gain > 0.0
        && wins as f64 >= 0.9 * pairs as f64
        && (change_median - base_median).abs() > q3 - q1
    {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

struct ResultFile {
    path: String,
    doc: Json,
}

impl ResultFile {
    fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("host").is_none() || doc.get("workloads").is_none() {
            return Err(format!("{path}: not a perfbench result file"));
        }
        Ok(ResultFile {
            path: path.to_owned(),
            doc,
        })
    }

    fn host(&self) -> String {
        let field = |key| self.doc.get("host").and_then(|h| h.get(key));
        let cores = field("cores").and_then(Json::as_f64);
        let threaded = field("threaded").and_then(Json::as_bool);
        format!(
            "cores={} threaded={}",
            cores.map_or_else(|| "?".to_owned(), |c| c.to_string()),
            threaded.map_or_else(|| "?".to_owned(), |t| t.to_string())
        )
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.doc
            .get("workloads")?
            .as_array()
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
    }

    fn metric(&self, workload: &str, metric: &str) -> Option<f64> {
        self.workload(workload)?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }
}

/// Runs the comparison; returns the process exit code (0: no metric worse
/// and no simulated counter changed, 1: otherwise, 2: refused).
pub fn run(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: perfbench compare BASE.json... -- CHANGE.json...");
        return 2;
    };
    let load = |paths: &[String]| -> Result<Vec<ResultFile>, String> {
        paths.iter().map(|p| ResultFile::load(p)).collect()
    };
    let (base, change) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(base), Ok(change)) if !base.is_empty() && !change.is_empty() => (base, change),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("compare: both sides need at least one result file");
            return 2;
        }
    };
    let all: Vec<&ResultFile> = base.iter().chain(&change).collect();
    let host = all[0].host();
    for file in &all {
        if file.host() != host {
            eprintln!(
                "compare: refusing to compare host shapes '{host}' ({}) and '{}' ({})",
                all[0].path,
                file.host(),
                file.path
            );
            return 2;
        }
        if file.doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            eprintln!(
                "compare: {} holds traced (non-comparable) results",
                file.path
            );
            return 2;
        }
    }
    println!(
        "host: {host}; {} base file(s), {} change file(s)",
        base.len(),
        change.len()
    );
    println!(
        "{:<18} {:<12} {:>32} {:>32} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta"
    );
    let mut failing = false;
    for workload in crate::WORKLOADS {
        for EndToEnd {
            name,
            higher_is_better,
            bound,
            ..
        } in declared().end_to_end
        {
            let values = |files: &[ResultFile]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| f.metric(workload, &name))
                    .collect()
            };
            let (b, c) = (values(&base), values(&change));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(&b, &c, higher_is_better, bound);
            failing |= v == Verdict::Worse;
            let summary = |values: &[f64]| {
                let median = stats::median(values).unwrap_or(f64::NAN);
                let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
                format!("{} [{}, {}]", sig(median), sig(q1), sig(q3))
            };
            let delta =
                (stats::median(&c).unwrap_or(0.0) / stats::median(&b).unwrap_or(1.0) - 1.0) * 100.0;
            println!(
                "{workload:<18} {name:<12} {:>32} {:>32} {delta:>+7.2}%  {v:?} (bound {:.0}%)",
                summary(&b),
                summary(&c),
                bound * 100.0
            );
        }
    }
    for b in &base {
        for c in change
            .iter()
            .filter(|c| c.doc.get("seed") == b.doc.get("seed"))
        {
            for workload in crate::WORKLOADS {
                let sim = |f: &ResultFile| f.workload(workload).and_then(|w| w.get("sim")).cloned();
                if let (Some(before), Some(after)) = (sim(b), sim(c)) {
                    if before != after {
                        failing = true;
                        println!(
                            "simulated results changed: {workload} ({} vs {})",
                            b.path, c.path
                        );
                    }
                }
            }
        }
    }
    i32::from(failing)
}

/// `value` with five significant digits.
fn sig(value: f64) -> String {
    let digits = if value == 0.0 || !value.is_finite() {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (4 - digits).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_keep_five_significant_digits() {
        assert_eq!(sig(165890.9154), "165891");
        assert_eq!(sig(9.87481), "9.8748");
        assert_eq!(sig(0.0071158), "0.0071158");
        assert_eq!(sig(0.0), "0.0000");
    }

    #[test]
    fn a_clear_regression_is_worse() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let change = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&base, &change, true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &change, false, 0.05), Verdict::Better);
    }

    #[test]
    fn noise_inside_the_bound_is_within() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let change = [99.0, 100.0, 101.0, 100.2, 99.8];
        assert_eq!(verdict(&base, &change, true, 0.05), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let base = [50.0, 100.0, 150.0, 75.0, 125.0];
        assert_eq!(
            verdict(&base, &[60.0, 70.0, 80.0], true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &[160.0, 170.0, 180.0], true, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn too_few_samples_never_claim_a_gain() {
        assert_eq!(verdict(&[], &[1.0], true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[10.0], &[9.0], true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[10.0], &[20.0], true, 0.1), Verdict::Unresolved);
    }
}
