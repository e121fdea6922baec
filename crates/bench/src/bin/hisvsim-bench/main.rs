//! `hisvsim-bench`: one command, five workloads, a number for every layer
//! from kernel to worker pool. See `README.md` beside this file.
//!
//! ```text
//! hisvsim-bench --workload W --seed N --seconds S --trace 0|1
//! hisvsim-bench run [--seed N] [--out results.json]
//! hisvsim-bench compare a.json b.json
//! hisvsim-bench contract
//! ```
//!
//! The first form is one run of one workload — end-to-end with every tracer
//! off (`--trace 0`) or the per-layer traced run (`--trace 1`) — and prints,
//! as its last line, the JSON object the benchmark driver reads. `run`
//! re-executes this binary once per workload, mode and repeat (so peak memory
//! and caches are per workload) and writes the ledger; `compare` judges two
//! ledgers against the bounds; `contract` prints `BENCHMARK.json`.

mod compare;
mod contract;
mod host;
mod json;
mod layers;
mod perlayer;
mod spans;
mod stats;
mod workloads;

use contract::{Metric, END_TO_END, PER_LAYER, REPEATS, RUN_SECONDS};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, Sizes};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hisvsim-bench --workload <{}> --seed N --seconds S --trace 0|1\n\
         \x20      hisvsim-bench run [--seed N] [--out FILE]\n\
         \x20      hisvsim-bench compare A.json B.json\n\
         \x20      hisvsim-bench contract",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs of a command line.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Self> {
        if !args.len().is_multiple_of(2)
            || args.iter().step_by(2).any(|flag| !flag.starts_with("--"))
        {
            return None;
        }
        Some(Self(
            args.chunks(2)
                .map(|pair| (pair[0][2..].to_string(), pair[1].clone()))
                .collect(),
        ))
    }

    /// The value of `--name`: `None` when the flag is absent, an error when
    /// its value does not parse.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((_, value)) = self.0.iter().rev().find(|(flag, _)| flag == name) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(parsed) => Ok(Some(parsed)),
            Err(_) => Err(format!("--{name} {value}: not a valid value")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or(format!("--{name} is required"))
    }

    /// An error naming the first flag that is not one of `known`.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|(flag, _)| !known.contains(&flag.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }
}

/// One finished run of one workload in one mode.
struct RunReport {
    metrics: Vec<(&'static str, f64)>,
    attempted: usize,
    failed: usize,
    /// Everything else worth keeping: sample counts, the tail percentile,
    /// the engine, reference time.
    notes: Vec<(String, Value)>,
}

fn declared(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is emitted but not declared in contract.rs"))
}

impl RunReport {
    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let fields = vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(declared(name).unit.into())),
                    ];
                    (name.to_string(), Value::Object(fields))
                })
                .collect(),
        )
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn driver_line(&self) -> String {
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Int(self.attempted as i128)),
            ("failed".into(), Value::Int(self.failed as i128)),
            ("metrics".into(), self.metrics_value()),
        ]);
        json::compact(&doc)
    }

    fn full_value(&self) -> Value {
        let mut fields = vec![
            ("attempted".to_string(), Value::Int(self.attempted as i128)),
            ("failed".to_string(), Value::Int(self.failed as i128)),
            ("metrics".to_string(), self.metrics_value()),
        ];
        fields.extend(self.notes.iter().cloned());
        Value::Object(fields)
    }

    fn print(&self) {
        for (name, value) in &self.metrics {
            println!("  {name:<36} {value:>16.6} {}", declared(name).unit);
        }
        for (key, value) in &self.notes {
            println!("  ({key} = {})", json::compact(value));
        }
        println!(
            "  failed_frac = {}/{} = {}",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
    }
}

fn end_to_end(kind: Kind, sizes: Sizes, seed: u64, seconds: f64) -> Result<RunReport, String> {
    // Tracing off means off: the program's recorder too.
    layers::obs_set_enabled(false);
    let run = workloads::run_end_to_end(kind, sizes, seed, seconds)?;
    Ok(RunReport {
        metrics: vec![
            ("job_ms_p50", run.latency.p50),
            ("job_ms_tail", run.latency.tail),
            ("jobs_per_s", run.log.jobs_per_s),
            ("setup_s", run.setup_s),
            ("peak_rss_mib", run.peak_rss_mib),
        ],
        attempted: run.log.attempted,
        failed: run.log.failed,
        notes: vec![
            ("samples".into(), Value::Int(run.latency.samples as i128)),
            (
                "tail_percentile".into(),
                Value::Int(run.latency.tail_percentile as i128),
            ),
            ("engine".into(), Value::Str(run.log.engine.into())),
            ("plan_share".into(), Value::Float(run.log.plan_share)),
            (
                "cache_hit_rate".into(),
                Value::Float(run.log.cache_hit_rate),
            ),
            ("reference_s".into(), Value::Float(run.reference_s)),
            (
                // Every sample of the slow workloads; the first few of a burst.
                "first_latencies_ms".into(),
                Value::Array(
                    run.log
                        .latencies_ms
                        .iter()
                        .take(32)
                        .map(|ms| Value::Float(*ms))
                        .collect(),
                ),
            ),
        ],
    })
}

fn traced(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&Path>,
) -> Result<(RunReport, Vec<&'static str>), String> {
    let run = perlayer::run_traced(kind, sizes, seed, seconds)?;
    let mut notes = vec![
        ("spans".to_string(), Value::Int(run.tracer.len() as i128)),
        (
            "span_self_seconds_by_layer".to_string(),
            Value::Object(
                run.tracer
                    .self_seconds_by_layer()
                    .into_iter()
                    .map(|(layer, s)| (layer.to_string(), Value::Float(s)))
                    .collect(),
            ),
        ),
    ];
    if let Some(dir) = trace_dir {
        let write = |file: String, json: &str| -> Result<String, String> {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(&file), json))
                .map_err(|e| format!("writing {file} under {}: {e}", dir.display()))?;
            Ok(dir.join(file).display().to_string())
        };
        let own = write(
            format!("trace-{}.json", kind.name()),
            &run.tracer.chrome_trace_json(),
        )?;
        let program = write(
            format!("trace-{}-program.json", kind.name()),
            &run.program_trace_json,
        )?;
        notes.push(("trace_file".into(), Value::Str(own)));
        notes.push(("program_trace_file".into(), Value::Str(program)));
    }
    let report = RunReport {
        metrics: run.metrics,
        attempted: run.attempted,
        failed: run.failed,
        notes,
    };
    Ok((report, run.missing_binaries))
}

/// Names in `declared` that `report` lacks, and names it has undeclared.
fn drift(report: &RunReport, declared: &[Metric]) -> Vec<String> {
    let emitted: Vec<&str> = report.metrics.iter().map(|(name, _)| *name).collect();
    let mut problems: Vec<String> = declared
        .iter()
        .filter(|m| !emitted.contains(&m.name))
        .map(|m| format!("{} is declared but was not measured", m.name))
        .collect();
    problems.extend(
        emitted
            .iter()
            .filter(|name| !declared.iter().any(|m| m.name == **name))
            .map(|name| format!("{name} was measured but is not declared")),
    );
    problems.extend(
        report
            .metrics
            .iter()
            .filter(|(_, value)| !value.is_finite())
            .map(|(name, value)| format!("{name} = {value} is not a finite number")),
    );
    problems
}

/// One run of one workload, as the benchmark driver invokes it.
fn single(flags: &Flags) -> Result<ExitCode, String> {
    // `--report` is how `run` collects a child's full report; it is not part
    // of the command line a user is offered.
    flags.only(&["workload", "seed", "seconds", "trace", "report"])?;
    let name: String = flags.require("workload")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed: u64 = flags.require("seed")?;
    let seconds: f64 = flags.require("seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be within (0, 60]"));
    }
    let trace: u8 = flags.require("trace")?;
    if trace > 1 {
        return Err(format!("--trace {trace}: must be 0 or 1"));
    }
    println!(
        "{} seed={seed} seconds={seconds} trace={trace}",
        kind.name()
    );
    let (report, declared) = if trace == 0 {
        (end_to_end(kind, Sizes::FULL, seed, seconds)?, END_TO_END)
    } else {
        let dir = PathBuf::from(contract::BENCH_DIR).join("results");
        let (report, missing) = traced(kind, Sizes::FULL, seed, seconds, Some(&dir))?;
        if !missing.is_empty() {
            return Err(format!(
                "{} not found beside this binary; build it first (run.sh does)",
                missing.join(" and ")
            ));
        }
        (report, PER_LAYER)
    };
    let problems = drift(&report, declared);
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    report.print();
    if let Some(path) = flags.get::<String>("report")? {
        std::fs::write(&path, json::compact(&report.full_value()))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report.driver_line());
    Ok(ExitCode::SUCCESS)
}

/// Re-execute this binary for one workload and mode; returns its report.
fn child_report(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: u8,
    scratch: &Path,
) -> Result<Value, String> {
    let report = scratch.join(format!("report-{}-{trace}.json", kind.name()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .arg("--report")
        .arg(&report)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{} --trace {trace} exited with {status}",
            kind.name()
        ));
    }
    let text = std::fs::read_to_string(&report).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&report);
    serde_json::value_from_str(&text).map_err(|e| e.to_string())
}

/// The regime each workload was built for, checked on its traced run.
fn regime_failures(kind: Kind, per_layer: &Value) -> Vec<String> {
    let get = |name: &str| json::number_at(per_layer, &[name, "value"]).unwrap_or(f64::NAN);
    let (hit, misses, plan, bytes) = (
        get("runtime.cache_hit_rate"),
        get("runtime.cache_misses"),
        get("runtime.plan_share"),
        get("net.bytes_sent"),
    );
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("{}: {what}", kind.name()));
        }
    };
    match kind {
        Kind::BurstWarm => {
            require(misses == 0.0, format!("cache_misses {misses} != 0"));
            require(plan <= 0.05, format!("plan_share {plan} > 0.05"));
        }
        Kind::PlanCold => {
            require(hit == 0.0, format!("cache_hit_rate {hit} != 0"));
            require(
                misses > 0.0,
                format!("cache_misses {misses}, expected one per job"),
            );
            require(plan >= 0.4, format!("plan_share {plan} < 0.4"));
        }
        _ => {}
    }
    require(
        (bytes > 0.0) == kind.uses_pool(),
        format!("net.bytes_sent {bytes}, expected > 0 only on the pool workload"),
    );
    failures
}

/// A metric's declaration as the ledger records it.
fn metric_decl_value(m: &Metric, bounded: bool) -> Vec<(String, Value)> {
    let mut fields = m.fields(bounded);
    fields.push(("note".to_string(), Value::Str(m.note.into())));
    fields
}

/// All workloads, both modes, one ledger.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "out"])?;
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let seconds = RUN_SECONDS as f64;
    let results_dir = PathBuf::from(contract::BENCH_DIR).join("results");
    let out: PathBuf = flags
        .get::<String>("out")?
        .map_or_else(|| results_dir.join("latest.json"), PathBuf::from);
    std::fs::create_dir_all(&results_dir).map_err(|e| e.to_string())?;

    let host = host::Host::detect();
    let triad = host::triad(host.triad_array_bytes(), host.cores, 2);
    println!(
        "host: {} x{}, L1d {} KiB, L2 {} KiB, LLC {} KiB, {} MiB RAM, kernels {}, triad {:.2} GB/s",
        host.cpu,
        host.cores,
        host.l1d_kib,
        host.l2_kib,
        host.llc_kib,
        host.ram_mib,
        host.kernel_dispatch,
        triad.gbps
    );

    // The repeats go round the workloads, so each workload's runs are spread
    // over the whole session: a slow spell of the host then widens every
    // workload's spread instead of shifting one workload's median.
    let mut runs: Vec<Vec<Value>> = vec![Vec::new(); Kind::ALL.len()];
    for repeat in 1..=REPEATS {
        for (kind, runs) in Kind::ALL.into_iter().zip(&mut runs) {
            let run = child_report(kind, seed, seconds, 0, &results_dir)?;
            println!(
                "end-to-end {repeat}/{REPEATS} {:<13} job_ms_p50 {:>12.4}",
                kind.name(),
                json::number_at(&run, &["metrics", "job_ms_p50", "value"]).unwrap_or(f64::NAN)
            );
            runs.push(run);
        }
    }

    let mut workloads_value = Vec::new();
    let mut problems = Vec::new();
    for (kind, runs) in Kind::ALL.into_iter().zip(&runs) {
        println!("\n== {} ==\n   {}", kind.name(), kind.why());
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| json::number_at(r, &["metrics", m.name, "value"]))
                .collect();
            let median = stats::median(&values);
            println!(
                "  {:<36} {median:>16.6} {:<6} spread {:.1}% over {} runs (bound {:.0}%)",
                m.name,
                m.unit,
                stats::spread(&values).unwrap_or(f64::NAN) * 100.0,
                values.len(),
                m.bound * 100.0
            );
            let mut fields = metric_decl_value(m, true);
            fields.push(("median".into(), Value::Float(median)));
            fields.push((
                "values".into(),
                Value::Array(values.into_iter().map(Value::Float).collect()),
            ));
            end_to_end.push((m.name.to_string(), Value::Object(fields)));
        }
        let count = |key: &str| -> i128 {
            runs.iter()
                .filter_map(|r| json::number_at(r, &[key]))
                .sum::<f64>() as i128
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        let first = |key: &str| json::number_at(&runs[0], &[key]).unwrap_or(0.0) as i128;
        let (samples, tail_percentile) = (first("samples"), first("tail_percentile"));
        println!(
            "  failed_frac = {failed}/{attempted}, {samples} samples per run, tail = p{tail_percentile}"
        );

        let trace = child_report(kind, seed, seconds, 1, &results_dir)?;
        let per_layer = trace.get_field("metrics").cloned().unwrap_or(Value::Null);
        for m in PER_LAYER {
            let value = json::number_at(&per_layer, &[m.name, "value"]).unwrap_or(f64::NAN);
            println!("  {:<36} {value:>16.6} {}", m.name, m.unit);
        }
        let trace_failed = json::number_at(&trace, &["failed"]).unwrap_or(1.0);
        if failed > 0 || trace_failed > 0.0 {
            problems.push(format!(
                "{}: {failed} end-to-end and {trace_failed} traced outputs were wrong",
                kind.name()
            ));
        }
        problems.extend(regime_failures(kind, &per_layer));

        let without = |value: &Value, dropped: &str| match value {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k != dropped)
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        };
        workloads_value.push((
            kind.name().to_string(),
            Value::Object(vec![
                ("why".into(), Value::Str(kind.why().into())),
                ("samples".into(), Value::Int(samples)),
                ("tail_percentile".into(), Value::Int(tail_percentile)),
                ("attempted".into(), Value::Int(attempted)),
                ("failed".into(), Value::Int(failed)),
                ("end_to_end".into(), Value::Object(end_to_end)),
                ("end_to_end_first_run".into(), without(&runs[0], "metrics")),
                ("per_layer".into(), per_layer),
                ("traced_run".into(), without(&trace, "metrics")),
            ]),
        ));
    }

    let doc = Value::Object(vec![
        ("host".into(), host.to_value(&triad)),
        ("seed".into(), Value::Int(seed.into())),
        ("seconds".into(), Value::Float(seconds)),
        ("repeats".into(), Value::Int(REPEATS as i128)),
        ("workloads".into(), Value::Object(workloads_value)),
        (
            "per_layer_declarations".into(),
            Value::Object(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::Object(metric_decl_value(m, false)),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "regime_failures".into(),
            Value::Array(problems.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    std::fs::write(&out, json::pretty(&doc))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    if problems.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    for problem in &problems {
        eprintln!("FAIL: {problem}");
    }
    Ok(ExitCode::FAILURE)
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Ok(usage());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::value_from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, overall) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(match overall {
        compare::Verdict::Ok => ExitCode::SUCCESS,
        compare::Verdict::Regressed => ExitCode::FAILURE,
        compare::Verdict::Unresolved => ExitCode::from(2),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).map(|flags| run_all(&flags)),
        Some("compare") => Some(compare_files(&args[1..])),
        Some("contract") => {
            print!("{}", contract::benchmark_json());
            Some(Ok(ExitCode::SUCCESS))
        }
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).map(|flags| single(&flags)),
        _ => None,
    };
    match outcome {
        None => usage(),
        Some(Ok(code)) => code,
        Some(Err(message)) => {
            eprintln!("hisvsim-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All five workloads at toy size, both modes, in this process: the
    /// benchmark and its contract must not drift apart.
    #[test]
    fn toy_run_emits_exactly_the_declared_metrics() {
        let seconds = 0.4;
        let pool_ready = layers::net_worker_binary().is_some();
        for kind in Kind::ALL {
            if kind.uses_pool() && !pool_ready {
                eprintln!("skipping {}: hisvsim-net is not built", kind.name());
                continue;
            }
            let report = end_to_end(kind, Sizes::TOY, 11, seconds).unwrap();
            assert_eq!(
                drift(&report, END_TO_END),
                Vec::<String>::new(),
                "{}",
                kind.name()
            );
            assert_eq!(
                (report.failed, report.attempted >= 20),
                (0, true),
                "{}",
                kind.name()
            );
            assert!(
                report.metrics.iter().all(|(_, v)| *v > 0.0),
                "{}",
                kind.name()
            );

            let (report, missing) = traced(kind, Sizes::TOY, 11, seconds, None).unwrap();
            for binary in &missing {
                eprintln!("skipping the rows that need {binary}: it is not built");
            }
            let excused = |problem: &String| {
                PER_LAYER.iter().any(|m| {
                    problem.starts_with(&format!("{} is declared", m.name))
                        && contract::needs_binary(m.name).is_some_and(|b| missing.contains(&b))
                })
            };
            let problems: Vec<String> = drift(&report, PER_LAYER)
                .into_iter()
                .filter(|p| !excused(p))
                .collect();
            assert_eq!(problems, Vec::<String>::new(), "{}", kind.name());
            assert_eq!(report.failed, 0, "{}", kind.name());

            let value = |name: &str| report.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            match kind {
                Kind::BurstWarm => assert_eq!(value("runtime.cache_misses"), 0.0),
                Kind::PlanCold => {
                    assert_eq!(value("runtime.cache_hit_rate"), 0.0);
                    assert!(value("runtime.cache_misses") >= 6.0);
                }
                _ => {}
            }
            assert_eq!(
                value("net.bytes_sent") > 0.0,
                kind.uses_pool(),
                "{}",
                kind.name()
            );
            // The driver's line carries exactly the four keys.
            let line = serde_json::value_from_str(&report.driver_line()).unwrap();
            let Value::Object(fields) = line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let flags = Flags::parse(&args("--seed 7 --seconds 2.5 --seed 9")).unwrap();
        assert_eq!(flags.get::<u64>("seed"), Ok(Some(9)));
        assert_eq!(flags.get::<f64>("seconds"), Ok(Some(2.5)));
        assert_eq!(flags.get::<u64>("trace"), Ok(None));
        assert!(flags.require::<u64>("trace").is_err());
        assert!(Flags::parse(&args("--seed")).is_none());
        assert!(Flags::parse(&args("seed 7")).is_none());
        // A value that does not parse is an error, never the default.
        let flags = Flags::parse(&args("--seed abc --repeats 3")).unwrap();
        assert!(flags.get::<u64>("seed").is_err());
        assert!(run_all(&flags).is_err());
        assert!(flags.only(&["seed"]).unwrap_err().contains("--repeats"));
    }
}
