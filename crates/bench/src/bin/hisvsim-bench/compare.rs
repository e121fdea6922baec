//! `hisvsim-bench compare a.json b.json`: per workload × end-to-end metric,
//! both medians, the relative difference, the bound and a verdict. Files from
//! different hosts, or whose tails are different percentiles, are refused.
//! The exit code is 0 only when every pairing is `ok`: 1 when an output was
//! wrong or a metric regressed, 2 when the worst verdict is `unresolved`.

use crate::contract::{Better, END_TO_END};
use crate::json::{field, number, number_at};
use crate::stats;
use crate::workloads::Kind;
use serde_json::Value;

/// Verdict on one workload × metric pairing, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// One side's own run-to-run spread exceeds the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
    /// `b` is worse than `a` by more than the bound, or a side has wrong
    /// outputs.
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `b` is worse than `a` (negative when it is better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge one pairing from each side's repeated values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = worsening(ma, mb, better);
    let noisy = [a, b]
        .iter()
        .any(|side| stats::spread(side).is_some_and(|s| s > bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, worse, verdict)
}

fn values_of(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    field(
        results,
        &["workloads", workload, "end_to_end", metric, "values"],
    )?
    .as_array()?
    .iter()
    .map(number)
    .collect()
}

/// Compare two results files; returns the report and the worst verdict.
pub fn compare(a: &Value, b: &Value) -> Result<(String, Verdict), String> {
    let identity = |results: &Value| -> Result<Vec<(String, String)>, String> {
        let Some(Value::Object(host)) = results.get_field("host") else {
            return Err("no host block".to_string());
        };
        Ok(host
            .iter()
            .filter(|(key, _)| {
                !["git_commit", "triad_gbps", "triad_array_mib"].contains(&key.as_str())
            })
            .map(|(key, value)| (key.clone(), value.as_str().unwrap_or("?").to_string()))
            .collect())
    };
    let (host_a, host_b) = (identity(a)?, identity(b)?);
    if host_a != host_b {
        let differing: Vec<String> = host_a
            .iter()
            .zip(&host_b)
            .filter(|(x, y)| x != y)
            .map(|(x, y)| format!("{}: {:?} vs {:?}", x.0, x.1, y.1))
            .collect();
        return Err(format!(
            "the two files were taken on different hosts ({}); refusing to compare",
            differing.join(", ")
        ));
    }

    let mut report = format!(
        "{:<13} {:<13} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut overall = Verdict::Ok;
    for kind in Kind::ALL {
        let count = |results: &Value, key: &str| -> Result<f64, String> {
            number_at(results, &["workloads", kind.name(), key])
                .ok_or(format!("{} has no {key} in a file", kind.name()))
        };
        // A tail taken at another percentile is another metric.
        let (pa, pb) = (count(a, "tail_percentile")?, count(b, "tail_percentile")?);
        if pa != pb {
            return Err(format!(
                "{}: job_ms_tail is p{pa} in one file and p{pb} in the other; refusing to compare",
                kind.name()
            ));
        }
        // A metric of wrong outputs is not a measurement of the program.
        let failed = [count(a, "failed")?, count(b, "failed")?];
        let attempted = [count(a, "attempted")?, count(b, "attempted")?];
        let failed_verdict = if failed == [0.0, 0.0] {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        overall = overall.max(failed_verdict);
        report.push_str(&format!(
            "{:<13} {:<13} {:>12} {:>12} {:>9} {:>6.0}%  {}\n",
            kind.name(),
            "failed_frac",
            format!("{}/{}", failed[0], attempted[0]),
            format!("{}/{}", failed[1], attempted[1]),
            "",
            0.0,
            failed_verdict.name()
        ));
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (
                values_of(a, kind.name(), metric.name),
                values_of(b, kind.name(), metric.name),
            ) else {
                return Err(format!(
                    "{} x {} is missing from a file",
                    kind.name(),
                    metric.name
                ));
            };
            let (ma, mb, worse, verdict) = judge(&va, &vb, metric.better, metric.bound);
            overall = overall.max(verdict);
            report.push_str(&format!(
                "{:<13} {:<13} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}%  {}\n",
                kind.name(),
                metric.name,
                ma,
                mb,
                worse * 100.0,
                metric.bound * 100.0,
                verdict.name()
            ));
        }
    }
    Ok((report, overall))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |v: f64| vec![v, v * 1.001, v * 0.999, v, v * 1.002];
        // Lower is better: 8 % slower is inside a 10 % bound, 12 % is not.
        assert_eq!(
            judge(&steady(100.0), &steady(108.0), Better::Lower, 0.1).3,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady(100.0), &steady(112.0), Better::Lower, 0.1).3,
            Verdict::Regressed
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            judge(&steady(100.0), &steady(88.0), Better::Higher, 0.1).3,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady(100.0), &steady(120.0), Better::Higher, 0.1).3,
            Verdict::Ok
        );
        // A side noisier than the bound cannot resolve anything.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &steady(130.0), Better::Lower, 0.1).3,
            Verdict::Unresolved
        );
        // A single value per side has no spread and is judged on the medians.
        assert_eq!(judge(&[100.0], &[105.0], Better::Lower, 0.1).3, Verdict::Ok);
    }

    fn results(cores: &str, p50: f64, failed: i128, tail_percentile: i128) -> Value {
        let metrics: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|m| {
                let values = Value::Array(vec![Value::Float(p50)]);
                (
                    m.name.to_string(),
                    Value::Object(vec![("values".into(), values)]),
                )
            })
            .collect();
        let workloads = Kind::ALL
            .iter()
            .map(|k| {
                let body = Value::Object(vec![
                    ("tail_percentile".into(), Value::Int(tail_percentile)),
                    ("attempted".into(), Value::Int(100)),
                    ("failed".into(), Value::Int(failed)),
                    ("end_to_end".into(), Value::Object(metrics.clone())),
                ]);
                (k.name().to_string(), body)
            })
            .collect();
        Value::Object(vec![
            (
                "host".into(),
                Value::Object(vec![
                    ("cores".into(), Value::Str(cores.into())),
                    ("git_commit".into(), Value::Str(format!("commit-{p50}"))),
                ]),
            ),
            ("workloads".into(), Value::Object(workloads)),
        ])
    }

    #[test]
    fn compare_refuses_other_hosts_and_flags_regressions() {
        let base = results("2", 100.0, 0, 99);
        assert!(compare(&base, &results("4", 100.0, 0, 99))
            .unwrap_err()
            .contains("different hosts"));
        // Commits may differ; equal numbers are within bounds.
        let same = compare(&base, &results("2", 100.0, 0, 99)).unwrap();
        assert_eq!(same.1, Verdict::Ok);
        // Every metric moved by 30 %: the lower-is-better ones regress.
        let (report, overall) = compare(&base, &results("2", 130.0, 0, 99)).unwrap();
        assert_eq!(overall, Verdict::Regressed);
        assert!(report.contains("regressed") && report.contains("job_ms_p50"));
    }

    #[test]
    fn wrong_outputs_fail_and_other_percentiles_are_refused() {
        let base = results("2", 100.0, 0, 99);
        // Equal timings, but one side verified a wrong output.
        let (report, overall) = compare(&base, &results("2", 100.0, 1, 99)).unwrap();
        assert_eq!(overall, Verdict::Regressed);
        assert!(report.contains("failed_frac") && report.contains("1/100"));
        assert_eq!(
            compare(&results("2", 100.0, 1, 99), &base).unwrap().1,
            Verdict::Regressed
        );
        // p90 against p99 is not one metric.
        assert!(compare(&base, &results("2", 100.0, 0, 90))
            .unwrap_err()
            .contains("p99 in one file and p90"));
    }

    #[test]
    fn the_worst_verdict_is_the_overall_one() {
        assert!(Verdict::Ok < Verdict::Unresolved && Verdict::Unresolved < Verdict::Regressed);
    }
}
