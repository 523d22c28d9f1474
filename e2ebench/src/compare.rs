//! `e2e --compare A B`: compare two sets of runs, metric by metric, against
//! the bounds and directions in `BENCHMARK.json`.
//!
//! Each file holds the standard output of any number of runs; every
//! `workload metric value unit` line of an end-to-end metric is one sample.

use crate::bench::WORKLOADS;
use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            let text = |k: &str| {
                field(k)?
                    .as_str()
                    .map(str::to_owned)
                    .ok_or(format!("{k} is not a string"))
            };
            let better = text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("better must be lower or higher, not {better}"));
            }
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: better == "lower",
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Samples by (workload, metric) from captured standard output.
pub fn samples(text: &str) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, _unit] = parts[..] else {
            continue;
        };
        if !WORKLOADS.contains(&workload) {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            out.entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(v);
        }
    }
    out
}

/// How one metric moved from A to B.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// A side's quartile spread is wider than the bound, so the medians
    /// cannot show a move of the bound's size either way.
    Unresolved,
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative quartile spread of a sample.
fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Judge B against A. A change counts as improved only when its median is
/// better by more than A's own quartile spread; when either side's spread
/// exceeds the bound the row is unresolved, unless every B sample is
/// better than every A sample.
pub fn verdict(a: &[f64], b: &[f64], metric: &Bound) -> Verdict {
    let better = |x: f64, y: f64| {
        if metric.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else if metric.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a) > metric.bound || spread(b) > metric.bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > metric.bound {
        Verdict::Regressed
    } else if -worse > spread(a) && better(mb, ma) {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// The comparison table: one row per workload and end-to-end metric.
pub fn compare(benchmark: &str, a: &str, b: &str) -> Result<String, String> {
    let bounds = bounds(benchmark)?;
    let (a, b) = (samples(a), samples(b));
    let side = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        format!("{:.6} [{q1:.6}, {q3:.6}] n={}", median(xs), xs.len())
    };
    let mut rows = vec![format!(
        "{:<15} {:<18} {:<48} {:<48} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    )];
    for workload in WORKLOADS {
        for metric in &bounds {
            let key = (workload.to_owned(), metric.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                rows.push(format!(
                    "{workload:<15} {:<18} missing on a side",
                    metric.name
                ));
                continue;
            };
            rows.push(format!(
                "{workload:<15} {:<18} {:<48} {:<48} {:>7.1}%  {}",
                metric.name,
                side(xa),
                side(xb),
                metric.bound * 100.0,
                verdict(xa, xb, metric).label()
            ));
        }
    }
    Ok(rows.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "x".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&a, &a, &lower(0.1)), Verdict::WithinBound);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &slower, &lower(0.1)), Verdict::Regressed);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, &lower(0.1)), Verdict::Improved);
        let noisy = [0.5, 1.5, 1.0, 0.7, 1.4];
        assert_eq!(verdict(&a, &noisy, &lower(0.1)), Verdict::Unresolved);
        let mut higher = lower(0.1);
        higher.lower_is_better = false;
        assert_eq!(verdict(&a, &faster, &higher), Verdict::Regressed);
    }

    #[test]
    fn samples_read_metric_lines_only() {
        let text = "train-epoch setup_s 0.5 s\nnoise\n{\"correct\":true}\n\
                    train-epoch setup_s 0.7 s\nother-workload setup_s 9 s\n";
        let s = samples(text);
        assert_eq!(s.len(), 1);
        assert_eq!(s[&("train-epoch".into(), "setup_s".into())], vec![0.5, 0.7]);
    }

    #[test]
    fn bounds_are_read_and_checked() {
        let doc =
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        let b = bounds(doc).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(
            (b[0].name.as_str(), b[0].lower_is_better, b[0].bound),
            ("x", true, 0.1)
        );
        let bad = r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "up", "bound": 0.1}]}"#;
        assert!(bounds(bad).is_err());
    }
}
