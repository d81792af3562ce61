//! `compare <a.json> <b.json>`: for every (workload, end-to-end metric),
//! whether run `b` is better than, within the bound of, or regressed
//! from run `a` — or unresolved, when the spread inside either run is
//! wider than the bound. Bounds and directions come from
//! `BENCHMARK.json`; every ratio is printed with its base.

use crate::json::Json;
use crate::stats::quartile_spread;
use crate::Flags;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`. `spread` is the widest quartile spread among
/// the rounds of either run (`None`: the metric has no rounds — a count
/// or a ratio that repeats exactly).
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A metric's value and the quartile spread of its rounds in one run.
fn reading(doc: &Json, workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let run = doc.get("workloads")?.get(workload)?.get("untraced")?;
    let value = run.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
    let rounds: Option<Vec<f64>> = run
        .get("rounds")
        .and_then(|r| r.get(metric))
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(Json::as_f64).collect());
    Some((value, rounds.and_then(|r| quartile_spread(&r))))
}

pub fn run(flags: &Flags) -> Result<bool, String> {
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let spec = load(flags.get("spec").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no workloads")?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;

    println!("a = {a_path}\nb = {b_path}");
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "spread", "bound"
    );
    let mut regressions = 0;
    for w in workloads {
        let w = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Json::as_str);
            let name = field("name").ok_or("unnamed metric")?;
            let lower = field("better") == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let (Some((va, sa)), Some((vb, sb))) = (reading(&a, w, name), reading(&b, w, name))
            else {
                return Err(format!("{w}/{name} is missing from a result file"));
            };
            let spread = match (sa, sb) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(va, vb, lower, bound, spread);
            regressions += usize::from(v == Verdict::Regressed);
            println!(
                "{w:<16} {name:<24} {va:>14.4} {vb:>14.4} {:>8.4} {:>7} {bound:>7.3}  {} ({} is better)",
                vb / va,
                spread.map_or("-".to_string(), |s| format!("{s:.3}")),
                v.as_str(),
                field("better").unwrap_or("?"),
            );
        }
    }
    println!("ratios are b/a: a is the base. {regressions} regressed.");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(100.0, 105.0, true, 0.1, Some(0.02)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(100.0, 115.0, true, 0.1, Some(0.02)),
            Verdict::Regressed
        );
        assert_eq!(verdict(100.0, 80.0, true, 0.1, Some(0.02)), Verdict::Better);
        assert_eq!(
            verdict(100.0, 115.0, true, 0.1, Some(0.2)),
            Verdict::Unresolved
        );
        // Higher is better.
        assert_eq!(verdict(50.0, 40.0, false, 0.07, None), Verdict::Regressed);
        assert_eq!(verdict(50.0, 60.0, false, 0.07, None), Verdict::Better);
        assert_eq!(verdict(1.0, 1.0, false, 0.01, None), Verdict::WithinBound);
    }
}
