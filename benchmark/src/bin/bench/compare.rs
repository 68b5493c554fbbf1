//! `bench compare A.json B.json [A2.json B2.json ...]`: holds side B to
//! the regression bounds of `BENCHMARK.json`, side A being the parent.
//!
//! The files alternate A, B, A, B, ... — one pair per pairing of the
//! ten-alternating-pairs procedure the README describes. With several pairs
//! a side's value is the median over its files and the spread is the
//! distance between side A's quartiles; with one pair the only spread known
//! is the one between the operations inside the run.

use nice_benchmark::json::{self, Value};
use nice_benchmark::spec::{Metric, Spec};
use nice_benchmark::stats::Summary;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("nice-benchmark-result-v1") {
        return Err(format!("{path}: not a result file of this benchmark"));
    }
    Ok(doc)
}

fn metric<'a>(doc: &'a Value, workload: &str, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)
}

#[derive(Debug, PartialEq)]
enum Status {
    Ok,
    Regressed,
    Unresolved,
}

/// How one side-B value stands against side A under `metric`'s bound.
/// `spread` is side A's own run-to-run spread as a share of its median: a
/// metric that moves more than its bound between runs of one commit cannot
/// show that it did not regress.
fn judge(metric: &Metric, a: f64, b: f64, spread: f64) -> (f64, Status) {
    let bound = metric.bound.unwrap_or(0.0);
    let worse_by = if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let status = if spread > bound {
        Status::Unresolved
    } else if worse_by > bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (worse_by, status)
}

pub fn main(paths: &[String]) -> Result<ExitCode, String> {
    if paths.len() < 2 || !paths.len().is_multiple_of(2) {
        return Err(
            "compare needs result files in pairs: A.json B.json [A2.json B2.json ...]".into(),
        );
    }
    let spec = Spec::load();
    let docs: Vec<Value> = paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let side_a: Vec<&Value> = docs.iter().step_by(2).collect();
    let side_b: Vec<&Value> = docs.iter().skip(1).step_by(2).collect();

    let mut regressed = 0;
    let mut unresolved = 0;
    let mut failed_ops = 0.0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for workload in &spec.workloads {
        for doc in side_a.iter().chain(&side_b) {
            failed_ops += doc
                .get("workloads")
                .and_then(|w| w.get(&workload.name))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
        for m in &spec.end_to_end {
            let values = |side: &[&Value]| -> Vec<f64> {
                side.iter()
                    .filter_map(|doc| metric(doc, &workload.name, &m.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (Some(a), Some(b)) = (Summary::of(&values(&side_a)), Summary::of(&values(&side_b)))
            else {
                continue; // a workload one of the sides did not run
            };
            let spread = if a.n >= 2 {
                a.spread()
            } else {
                side_a
                    .first()
                    .and_then(|doc| metric(doc, &workload.name, &m.name)?.get("samples"))
                    .and_then(Summary::from_json)
                    .map_or(0.0, |s| s.spread())
            };
            let (worse_by, status) = judge(m, a.median, b.median, spread);
            match status {
                Status::Regressed => regressed += 1,
                Status::Unresolved => unresolved += 1,
                Status::Ok => {}
            }
            println!(
                "{:<18} {:<18} {:>14.6} {:>14.6} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
                workload.name,
                m.name,
                a.median,
                b.median,
                100.0 * worse_by,
                100.0 * spread,
                100.0 * m.bound.unwrap_or(0.0),
                match status {
                    Status::Ok => "ok",
                    Status::Regressed => "regressed",
                    Status::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved, {failed_ops} failed operations");
    Ok(if regressed == 0 && failed_ops == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn a_lower_is_better_metric_regresses_when_it_grows_past_its_bound() {
        assert_eq!(judge(&metric(false), 1.0, 1.09, 0.02).1, Status::Ok);
        assert_eq!(judge(&metric(false), 1.0, 1.11, 0.02).1, Status::Regressed);
        assert_eq!(judge(&metric(false), 1.0, 0.5, 0.02).1, Status::Ok);
    }

    #[test]
    fn a_higher_is_better_metric_regresses_when_it_shrinks_past_its_bound() {
        assert_eq!(judge(&metric(true), 100.0, 91.0, 0.02).1, Status::Ok);
        assert_eq!(judge(&metric(true), 100.0, 89.0, 0.02).1, Status::Regressed);
        assert_eq!(judge(&metric(true), 100.0, 150.0, 0.02).1, Status::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_never_ok() {
        assert_eq!(judge(&metric(false), 1.0, 1.0, 0.12).1, Status::Unresolved);
        assert_eq!(judge(&metric(false), 1.0, 1.5, 0.12).1, Status::Unresolved);
    }
}
