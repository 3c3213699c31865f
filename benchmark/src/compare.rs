//! `compare <a.json> <b.json>`: judges result file `b` against base `a`
//! by the bounds `BENCHMARK.json` fixes. One row per workload and
//! metric; every ratio is printed with its base.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{iqr_share, median};

/// How one metric of one workload moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between sets is wider than the bound on either side.
    Unresolved,
    /// A per-layer metric: reported, never judged.
    Info,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Improved => "improved",
            Status::Unchanged => "unchanged",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::Info => "info",
        }
    }
}

pub struct Verdict {
    pub table: String,
    /// Any end-to-end metric regressed or any `failed_share` rose.
    pub regressed: bool,
}

/// Judges medians `base` -> `new` of a metric that may worsen by `bound`
/// (a share of the base). `spread` is the wider quartile spread of the
/// two sides, when each has enough sets to have one.
pub fn judge(
    base: f64,
    new: f64,
    lower_is_better: bool,
    bound: f64,
    spread: Option<f64>,
) -> Status {
    if spread.is_some_and(|s| s > bound) {
        return Status::Unresolved;
    }
    if base == 0.0 {
        return if new == 0.0 {
            Status::Unchanged
        } else {
            Status::Unresolved
        };
    }
    // Change as a share of the base, positive = worse.
    let worse = if lower_is_better {
        new / base - 1.0
    } else {
        1.0 - new / base
    };
    if worse > bound {
        Status::Regressed
    } else if worse < -bound {
        Status::Improved
    } else {
        Status::Unchanged
    }
}

fn values_of(workload: &Json, section: &str, metric: &str) -> Vec<f64> {
    workload
        .get(section)
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Quartile spread of one side, when it has at least three sets.
fn spread_of(values: &[f64]) -> Option<f64> {
    (values.len() >= 3).then(|| iqr_share(values))
}

struct MetricRow<'a> {
    name: &'a str,
    unit: &'a str,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn metric_rows<'a>(spec: &'a Json, section: &str) -> Result<Vec<MetricRow<'a>>, String> {
    spec.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?
        .iter()
        .map(|m| {
            Ok(MetricRow {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?,
                unit: m.get("unit").and_then(Json::as_str).unwrap_or(""),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Compares two parsed result documents under a parsed `BENCHMARK.json`.
pub fn compare(base: &Json, new: &Json, spec: &Json) -> Result<Verdict, String> {
    let e2e = metric_rows(spec, "end_to_end")?;
    let layers = metric_rows(spec, "per_layer")?;
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<15} {:<26} {:>14} {:>14} {:>8} {:>7}  status",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let (Some(wb), Some(wn)) = (
            base.get("workloads").and_then(|x| x.get(name)),
            new.get("workloads").and_then(|x| x.get(name)),
        ) else {
            let _ = writeln!(table, "{name:<15} (missing from one of the files)");
            continue;
        };
        for (section, rows) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            for m in rows {
                let (vb, vn) = (
                    values_of(wb, section, m.name),
                    values_of(wn, section, m.name),
                );
                if vb.is_empty() || vn.is_empty() {
                    continue;
                }
                let (mb, mn) = (median(&vb), median(&vn));
                let status = match m.bound {
                    Some(bound) => {
                        let spread = match (spread_of(&vb), spread_of(&vn)) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            _ => None,
                        };
                        judge(mb, mn, m.lower_is_better, bound, spread)
                    }
                    None => Status::Info,
                };
                if status == Status::Info && mb == 0.0 && mn == 0.0 {
                    // A layer this workload does not exercise.
                    continue;
                }
                regressed |= status == Status::Regressed;
                let ratio = if mb != 0.0 {
                    format!("{:.4}", mn / mb)
                } else {
                    "-".into()
                };
                let bound = m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
                let _ = writeln!(
                    table,
                    "{name:<15} {:<26} {mb:>14.6} {mn:>14.6} {ratio:>8} {bound:>7}  {} [{}]",
                    m.name,
                    status.as_str(),
                    m.unit
                );
            }
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let (fb, fn_) = (share(wb), share(wn));
        let status = if fn_ > fb {
            Status::Regressed
        } else {
            Status::Unchanged
        };
        regressed |= status == Status::Regressed;
        let _ = writeln!(
            table,
            "{name:<15} {:<26} {fb:>14.6} {fn_:>14.6} {:>8} {:>7}  {} [share]",
            "failed_share",
            "-",
            "any",
            status.as_str()
        );
    }
    let _ = writeln!(
        table,
        "{}",
        if regressed {
            "REGRESSED"
        } else {
            "no regression"
        }
    );
    Ok(Verdict { table, regressed })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare_files(base: &str, new: &str, spec: &str) -> Result<Verdict, String> {
    compare(&load(base)?, &load(new)?, &load(spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark_json;

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        assert_eq!(judge(1.0, 1.05, true, 0.10, None), Status::Unchanged);
        assert_eq!(judge(1.0, 1.11, true, 0.10, None), Status::Regressed);
        assert_eq!(judge(1.0, 0.85, true, 0.10, None), Status::Improved);
        assert_eq!(judge(100.0, 85.0, false, 0.10, None), Status::Regressed);
        assert_eq!(judge(100.0, 115.0, false, 0.10, None), Status::Improved);
        assert_eq!(judge(1.0, 1.5, true, 0.10, Some(0.2)), Status::Unresolved);
        assert_eq!(judge(1.0, 1.5, true, 0.10, Some(0.05)), Status::Regressed);
        assert_eq!(judge(0.0, 0.0, true, 0.10, None), Status::Unchanged);
    }

    fn result(pass: &[f64], failed_share: f64) -> Json {
        let values = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let metric = |unit: &str, v: &[f64]| {
            Json::obj(vec![("unit", Json::str(unit)), ("values", values(v))])
        };
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "tenants",
                Json::obj(vec![
                    ("failed_share", Json::Num(failed_share)),
                    (
                        "end_to_end",
                        Json::obj(vec![
                            ("pass_p50_s", metric("s", pass)),
                            ("setup_s", metric("s", &[1.0])),
                        ]),
                    ),
                    (
                        "per_layer",
                        Json::obj(vec![("rule_fires", metric("count", &[4.0]))]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn a_vs_a_has_no_regression_and_a_slower_b_has() {
        let spec = benchmark_json();
        let a = result(&[1.0, 1.01, 0.99], 0.0);
        let same = compare(&a, &a, &spec).unwrap();
        assert!(!same.regressed, "{}", same.table);
        assert!(same.table.contains("unchanged") && same.table.contains("rule_fires"));

        let slower = compare(&a, &result(&[1.3, 1.31, 1.29], 0.0), &spec).unwrap();
        assert!(
            slower.regressed && slower.table.contains("regressed"),
            "{}",
            slower.table
        );

        let noisy = compare(&a, &result(&[1.0, 1.6, 0.7], 0.0), &spec).unwrap();
        assert!(noisy.table.contains("unresolved"), "{}", noisy.table);

        let failing = compare(&a, &result(&[1.0, 1.01, 0.99], 0.01), &spec).unwrap();
        assert!(failing.regressed, "a higher failed_share is a regression");
    }
}
