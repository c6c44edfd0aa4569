//! `compare <baseline> <candidate>`: one row per (workload, metric) with both
//! medians, the ratio with its base, and a verdict against the metric's
//! bound. Each side is a result file, or a directory of result files from
//! repeated runs.

use crate::json::Json;
use crate::report::{find, Better};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// The stamp fields two results must share to be comparable at all.
const MUST_MATCH: [&str; 6] = ["nproc", "scale", "null_rate", "seed", "seconds", "profile"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's figure for a metric: its median over the runs given and the
/// interquartile spread as a share of it. With three or more runs the spread
/// is taken across runs; with fewer, across the rounds inside the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    pub value: f64,
    pub spread: f64,
    pub runs: usize,
}

pub fn judge(better: Better, bound: f64, base: Figure, cand: Figure) -> Verdict {
    if base.value == 0.0 {
        // A metric expected to be 0 (failed_share): any increase regresses.
        return if cand.value > 0.0 { Verdict::Regressed } else { Verdict::Ok };
    }
    let worse_by = match better {
        Better::Lower => cand.value / base.value - 1.0,
        Better::Higher => base.value / cand.value - 1.0,
    };
    if base.spread.max(cand.spread) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

struct Side {
    /// `(workload, metric)` → one `(value, in-run spread)` per run.
    metrics: BTreeMap<(String, String), Vec<(f64, f64)>>,
    /// `workload` → stamp of its first run.
    stamps: BTreeMap<String, Json>,
}

/// Load one result file into `side`. `Ok(false)`: the file is a traced run's,
/// which carries no end-to-end metrics, and was left out.
fn load_file(path: &Path, side: &mut Side) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| file.get(k).ok_or(format!("{}: no `{k}`", path.display()));
    if field("traced")? == &Json::Bool(true) {
        return Ok(false);
    }
    let workload = field("workload")?.as_str().unwrap_or_default().to_string();
    side.stamps.entry(workload.clone()).or_insert(field("env")?.clone());
    for m in field("metrics")?.as_arr().unwrap_or_default() {
        let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
        let spread =
            if num("value") == 0.0 { 0.0 } else { (num("q3") - num("q1")).abs() / num("value") };
        side.metrics.entry((workload.clone(), name)).or_default().push((num("value"), spread));
    }
    Ok(true)
}

fn load(path: &Path) -> Result<Side, String> {
    let mut side = Side { metrics: BTreeMap::new(), stamps: BTreeMap::new() };
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        // A directory may hold traced results beside untraced ones.
        for file in files {
            load_file(&file, &mut side)?;
        }
    } else {
        load_file(path, &mut side)?;
    }
    if side.metrics.is_empty() {
        return Err(format!("{}: no untraced result found", path.display()));
    }
    Ok(side)
}

fn figure(runs: &[(f64, f64)]) -> Figure {
    let values: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let value = median(&values);
    let spread = if runs.len() >= 3 && value != 0.0 {
        let (q1, _, q3) = quartiles(&values);
        (q3 - q1) / value
    } else {
        runs.iter().map(|r| r.1).fold(0.0, f64::max)
    };
    Figure { value, spread, runs: runs.len() }
}

/// Returns the process exit code: 0 when nothing regressed, 1 when something
/// did, 2 when the two sides cannot be compared.
pub fn run(baseline: &Path, candidate: &Path) -> i32 {
    let (base, cand) = match (load(baseline), load(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    for (workload, stamp) in &base.stamps {
        let Some(other) = cand.stamps.get(workload) else { continue };
        for key in MUST_MATCH {
            if stamp.get(key) != other.get(key) {
                eprintln!(
                    "compare: refusing to compare {workload}: `{key}` differs ({} vs {})",
                    stamp.get(key).map_or("missing".into(), Json::render),
                    other.get(key).map_or("missing".into(), Json::render),
                );
                return 2;
            }
        }
    }
    println!(
        "{:<20} {:<22} {:>12} {:>12} {:<6} {:>22} {:>7} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "unit", "ratio (base)", "bound", "spread"
    );
    let mut regressed = 0;
    for ((workload, name), base_runs) in &base.metrics {
        let (Some(cand_runs), Some(def)) =
            (cand.metrics.get(&(workload.clone(), name.clone())), find(name))
        else {
            continue;
        };
        let Some(bound) = def.bound else { continue };
        let (b, c) = (figure(base_runs), figure(cand_runs));
        let verdict = judge(def.better, bound, b, c);
        regressed += (verdict == Verdict::Regressed) as i32;
        let ratio = if b.value == 0.0 {
            format!("{} vs 0", c.value)
        } else {
            format!("{:.3}x of {:.4}", c.value / b.value, b.value)
        };
        println!(
            "{:<20} {:<22} {:>12.4} {:>12.4} {:<6} {:>22} {:>6.0}% {:>7.1}%  {}",
            workload,
            name,
            b.value,
            c.value,
            def.unit,
            ratio,
            bound * 100.0,
            b.spread.max(c.spread) * 100.0,
            verdict.as_str()
        );
    }
    if regressed > 0 {
        println!("{regressed} metric(s) regressed");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig(value: f64, spread: f64) -> Figure {
        Figure { value, spread, runs: 1 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = |b, c| judge(Better::Lower, 0.10, b, c);
        assert_eq!(lower(fig(10.0, 0.02), fig(10.9, 0.02)), Verdict::Ok);
        assert_eq!(lower(fig(10.0, 0.02), fig(11.5, 0.02)), Verdict::Regressed);
        assert_eq!(lower(fig(10.0, 0.02), fig(5.0, 0.02)), Verdict::Ok);
        // Too noisy to tell, on either side: not "ok", not "regressed".
        assert_eq!(lower(fig(10.0, 0.15), fig(11.5, 0.02)), Verdict::Unresolved);
        assert_eq!(lower(fig(10.0, 0.02), fig(10.0, 0.15)), Verdict::Unresolved);
        let higher = |b, c| judge(Better::Higher, 0.10, b, c);
        assert_eq!(higher(fig(100.0, 0.0), fig(95.0, 0.0)), Verdict::Ok);
        assert_eq!(higher(fig(100.0, 0.0), fig(80.0, 0.0)), Verdict::Regressed);
        // failed_share: expected 0, bound 0, any increase regresses.
        let failed = |c| judge(Better::Lower, 0.0, fig(0.0, 0.0), fig(c, 0.0));
        assert_eq!(failed(0.0), Verdict::Ok);
        assert_eq!(failed(0.001), Verdict::Regressed);
    }

    #[test]
    fn repeated_runs_take_their_spread_across_runs() {
        let f = figure(&[(10.0, 0.5), (11.0, 0.5), (12.0, 0.5), (10.5, 0.5), (11.5, 0.5)]);
        assert_eq!((f.value, f.runs), (11.0, 5));
        assert!((f.spread - 1.5 / 11.0).abs() < 1e-12);
        // A single run falls back to the spread across its rounds.
        assert_eq!(figure(&[(10.0, 0.07)]).spread, 0.07);
    }
}
