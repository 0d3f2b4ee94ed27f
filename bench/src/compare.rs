//! Result files and the regression gate: `compare base.json new.json`
//! applies each end-to-end metric's bound to every workload and prints
//! one verdict per (workload, metric) pair.

use crate::e2e::E2eRun;
use crate::json;
use crate::metrics::{Better, Readings, Spec, END_TO_END};
use crate::stats::{median, spread};
use rq_common::Json;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Same,
    Regressed,
    /// The repetitions of one file disagree among themselves by more
    /// than the bound, so a difference within it cannot be told from
    /// noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload's entry of a result file: every repetition's value of
/// each end-to-end metric, and the per-layer readings.
pub fn workload_json(name: &str, runs: &[E2eRun], layers: &Readings) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|spec| {
            let readings: Vec<_> = runs
                .iter()
                .filter_map(|r| r.metrics.get(spec.name))
                .collect();
            let values: Vec<f64> = readings.iter().map(|m| m.value).collect();
            (!values.is_empty()).then(|| {
                (
                    spec.name.to_string(),
                    Json::object([
                        ("unit", Json::Str(spec.unit.to_string())),
                        ("median", Json::Float(median(&values))),
                        (
                            "values",
                            Json::Array(values.iter().map(|&v| Json::Float(v)).collect()),
                        ),
                        (
                            "samples",
                            Json::Int(readings.iter().map(|m| m.samples).sum::<u64>() as i64),
                        ),
                    ]),
                )
            })
        })
        .collect();
    let last = runs.last().expect("at least one repetition");
    let per_layer = last
        .per_layer()
        .0
        .iter()
        .chain(&layers.0)
        .map(|m| {
            (
                m.name.to_string(),
                Json::object([
                    ("unit", Json::Str(m.unit.to_string())),
                    ("value", Json::Float(m.value)),
                    ("samples", Json::Int(m.samples as i64)),
                ]),
            )
        })
        .collect();
    Json::object([
        ("name", Json::Str(name.to_string())),
        (
            "attempted",
            Json::Int(runs.iter().map(|r| r.attempted).sum::<u64>() as i64),
        ),
        (
            "failed",
            Json::Int(runs.iter().map(|r| r.failed).sum::<u64>() as i64),
        ),
        ("end_to_end", Json::Object(end_to_end)),
        ("per_layer", Json::Object(per_layer)),
    ])
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative: better).
fn worse_by(spec: &Spec, base: f64, new: f64) -> f64 {
    let rise = match spec.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base != 0.0 {
        rise / base.abs()
    } else if rise == 0.0 {
        0.0
    } else {
        rise.signum() * f64::INFINITY
    }
}

/// The verdict on one metric of one workload, from each file's
/// repetitions.
pub fn verdict(spec: &Spec, base: &[f64], new: &[f64]) -> Verdict {
    let change = worse_by(spec, median(base), median(new));
    if spec.bound == 0.0 {
        // `error_rate`: any rise is a regression, however small.
        return match change {
            c if c > 0.0 => Verdict::Regressed,
            c if c < 0.0 => Verdict::Improved,
            _ => Verdict::Same,
        };
    }
    let noise = spread(base).unwrap_or(0.0).max(spread(new).unwrap_or(0.0));
    if noise > spec.bound {
        // Too noisy to read medians — unless the two files do not even
        // overlap, which no amount of noise explains.
        let apart = |sign: f64| {
            base.iter()
                .all(|&b| new.iter().all(|&n| sign * worse_by(spec, b, n) > 0.0))
        };
        return if apart(-1.0) {
            Verdict::Improved
        } else if apart(1.0) && change > spec.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if change > spec.bound {
        Verdict::Regressed
    } else if change < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// `metric → repetition values` of one workload.
type Repetitions = Vec<(String, Vec<f64>)>;

/// `workload → metric → repetition values` of one result file.
fn load(path: &Path) -> Result<Vec<(String, Repetitions)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    let workloads = json
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{} has no `workloads` array", path.display()))?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let metrics = w
                .get("end_to_end")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("workload `{name}` has no `end_to_end` object"))?
                .iter()
                .map(|(metric, entry)| {
                    let values: Vec<f64> = entry
                        .get("values")
                        .and_then(Json::as_array)
                        .unwrap_or_default()
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect();
                    (metric.clone(), values)
                })
                .collect();
            Ok((name.to_string(), metrics))
        })
        .collect()
}

pub fn run(base_path: &Path, new_path: &Path) -> Result<ExitCode, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse%", "spread%", "bound%"
    );
    // What the base file measured and the new one did not: a dropped
    // workload or metric must not compare clean.
    let (mut regressed, mut missing) = (0, 0);
    for (workload, base_metrics) in &base {
        let Some((_, new_metrics)) = new.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<14} missing from {}", new_path.display());
            missing += 1;
            continue;
        };
        for spec in &END_TO_END {
            let values = |metrics: &Repetitions| {
                metrics
                    .iter()
                    .find(|(m, v)| m == spec.name && !v.is_empty())
                    .map(|(_, v)| v.clone())
            };
            let Some(b) = values(base_metrics) else {
                continue; // not defined on this workload
            };
            let Some(n) = values(new_metrics) else {
                println!(
                    "{workload:<14} {:<22} missing from {}",
                    spec.name,
                    new_path.display()
                );
                missing += 1;
                continue;
            };
            let v = verdict(spec, &b, &n);
            regressed += u32::from(v == Verdict::Regressed);
            let noise = spread(&b).unwrap_or(0.0).max(spread(&n).unwrap_or(0.0));
            println!(
                "{workload:<14} {:<22} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>7.1}  {}",
                spec.name,
                median(&b),
                median(&n),
                100.0 * worse_by(spec, median(&b), median(&n)),
                100.0 * noise,
                100.0 * spec.bound,
                v.word()
            );
        }
    }
    if regressed + missing > 0 {
        println!("{regressed} regressed, {missing} missing");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        // A 10 % bound each way round, whatever the real table says.
        let spec = |better| Spec {
            bound: 0.10,
            better,
            ..*end_to_end("throughput_qps").unwrap()
        };
        let (qps, p50) = (&spec(Better::Higher), &spec(Better::Lower));
        let errors = end_to_end("error_rate").unwrap(); // any rise

        // Steady files, medians within the bound.
        assert_eq!(
            verdict(qps, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Same
        );
        assert_eq!(
            verdict(p50, &[1.00, 1.01, 0.99], &[1.05, 1.06, 1.04]),
            Verdict::Same
        );
        // Steady files, medians apart by more than the bound.
        assert_eq!(
            verdict(qps, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(qps, &[100.0, 101.0, 99.0], &[115.0, 116.0, 114.0]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(p50, &[1.00, 1.01, 0.99], &[1.20, 1.21, 1.19]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(p50, &[1.00, 1.01, 0.99], &[0.80, 0.81, 0.79]),
            Verdict::Improved
        );
        // One file's own repetitions spread wider than the bound.
        assert_eq!(
            verdict(qps, &[100.0, 130.0, 70.0], &[90.0, 91.0, 89.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(p50, &[1.0, 1.0, 1.0], &[0.7, 1.1, 1.5]),
            Verdict::Unresolved
        );
        // … unless the files do not overlap at all.
        assert_eq!(
            verdict(qps, &[100.0, 130.0, 70.0], &[140.0, 150.0, 135.0]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(qps, &[100.0, 130.0, 70.0], &[40.0, 50.0, 45.0]),
            Verdict::Regressed
        );
        // A single repetition has no spread to speak of: medians decide.
        assert_eq!(verdict(qps, &[100.0], &[80.0]), Verdict::Regressed);
        assert_eq!(verdict(qps, &[100.0], &[95.0]), Verdict::Same);
        // error_rate: any rise.
        assert_eq!(verdict(errors, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Same);
        assert_eq!(
            verdict(errors, &[0.0, 0.0], &[0.001, 0.001]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(errors, &[0.01, 0.01], &[0.0, 0.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        let dir = std::env::temp_dir().join(format!("rqbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            path
        };
        let file = |name: &str, qps: [f64; 3]| {
            let body = format!(
                r#"{{"workloads":[{{"name":"hot_points","end_to_end":{{
                    "throughput_qps":{{"unit":"1/s","values":[{},{},{}]}},
                    "error_rate":{{"unit":"ratio","values":[0.0,0.0,0.0]}}}}}}]}}"#,
                qps[0], qps[1], qps[2]
            );
            write(name, body)
        };
        let base = file("base.json", [100.0, 101.0, 99.0]);
        let same = file("same.json", [98.0, 99.0, 97.0]);
        let slow = file("slow.json", [70.0, 71.0, 69.0]);
        assert_eq!(run(&base, &same), Ok(ExitCode::SUCCESS));
        assert_eq!(run(&base, &slow), Ok(ExitCode::FAILURE));
        assert!(run(&base, &dir.join("absent.json")).is_err());
        // A file that dropped a workload or a metric does not compare clean
        // (the other way round — new measures more — it does).
        let no_workload = write("no_workload.json", r#"{"workloads":[]}"#.into());
        let no_metric = write(
            "no_metric.json",
            r#"{"workloads":[{"name":"hot_points","end_to_end":{
                "error_rate":{"unit":"ratio","values":[0.0,0.0,0.0]}}}]}"#
                .into(),
        );
        assert_eq!(run(&base, &no_workload), Ok(ExitCode::FAILURE));
        assert_eq!(run(&base, &no_metric), Ok(ExitCode::FAILURE));
        assert_eq!(run(&no_metric, &base), Ok(ExitCode::SUCCESS));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
