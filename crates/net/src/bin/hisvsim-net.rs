//! The `hisvsim-net` binary: worker mode (spawned by the launcher) and a
//! self-contained multi-process smoke check.
//!
//! ```text
//! hisvsim-net worker <control_addr> <rank>        # spawned by WorkerPool
//! hisvsim-net smoke [qubits] [workers] [--trace <path>]
//! ```
//!
//! `smoke` runs QFT-n's plan once on a localhost process cluster and
//! demands the assembled amplitudes be **bit-identical** to the in-process
//! channel-world run of the same shipped plan. With `--trace <path>` the
//! launcher records its own spans, collects every worker's span buffer over
//! the control channel, and writes one merged Chrome trace JSON (open in
//! `chrome://tracing` or Perfetto).
//!
//! Failure diagnostics go through the structured logger
//! ([`hisvsim_obs::log`]): JSON lines on stderr, filtered by
//! `HISVSIM_LOG` (launcher/worker lifecycle events surface at
//! `HISVSIM_LOG=debug`, the per-rank figures among them in the pool's
//! `rank gathered` lines). Success output stays on stdout.

use hisvsim_circuit::generators;
use hisvsim_core::CancelToken;
use hisvsim_dag::CircuitDag;
use hisvsim_net::{execute_local_reference, ShippedJob, WorkerPool};
use hisvsim_obs::log;
use hisvsim_partition::Strategy;
use std::process::ExitCode;

const LOG_TARGET: &str = "hisvsim-net";

const USAGE: &str = "usage: hisvsim-net worker <control_addr> <rank>\n       \
                     hisvsim-net smoke [qubits] [workers: a power of two] [--trace <path>]";

/// Print the usage line and fail.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("worker") => {
            let (Some(control_addr), Some(rank)) = (args.get(2), args.get(3)) else {
                return usage();
            };
            let rank: usize = match rank.parse() {
                Ok(rank) => rank,
                Err(_) => {
                    log::error(
                        LOG_TARGET,
                        "rank must be an integer",
                        &[("rank", rank.as_str())],
                    );
                    return ExitCode::FAILURE;
                }
            };
            match hisvsim_net::run_worker(control_addr, rank) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    log::error(
                        LOG_TARGET,
                        "worker failed",
                        &[("rank", &rank.to_string()), ("error", &e.to_string())],
                    );
                    ExitCode::FAILURE
                }
            }
        }
        Some("smoke") => {
            let mut positional = Vec::new();
            let mut trace_path: Option<String> = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                if arg == "--trace" {
                    match rest.next() {
                        Some(path) => trace_path = Some(path.clone()),
                        None => {
                            eprintln!("--trace needs a file path");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    positional.push(arg.clone());
                }
            }
            let arg = |index: usize, default: usize| {
                positional.get(index).map_or(Ok(default), |s| s.parse())
            };
            match (arg(0, 20), arg(1, 4)) {
                // Each worker's slice must hold a two-qubit gate.
                (Ok(qubits), Ok(workers))
                    if positional.len() <= 2
                        && workers.is_power_of_two()
                        && qubits >= workers.trailing_zeros() as usize + 2 =>
                {
                    smoke(qubits, workers, trace_path.as_deref())
                }
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

/// Launch `workers` processes on localhost, run QFT-`qubits`'s plan once,
/// and verify bit-identical amplitudes against the in-process reference run
/// of the identical shipped plan; with `trace_path`, also write a merged
/// launcher+workers Chrome trace and validate its contents.
fn smoke(qubits: usize, workers: usize, trace_path: Option<&str>) -> ExitCode {
    let tracing = trace_path.is_some();
    if tracing {
        hisvsim_obs::set_enabled(true);
    }
    let pool =
        WorkerPool::with_worker_binary(workers, std::env::current_exe().expect("current exe"));
    let circuit = generators::qft(qubits);
    let dag = CircuitDag::from_circuit(&circuit);
    let local_qubits = qubits - workers.trailing_zeros() as usize;

    // The plan must fit a worker's local slice; workers re-fuse the shipped
    // partition and must reproduce the in-process run bit for bit.
    let partition = {
        let _plan =
            hisvsim_obs::span("job", "plan").detail(format!("qft-{qubits} into {workers} parts"));
        Strategy::DagP
            .partition(&dag, local_qubits)
            .expect("partitioning QFT cannot fail at the local-qubit limit")
    };
    let job = ShippedJob {
        circuit,
        dispatch: Default::default(),
        plan: partition,
        trace: tracing,
    };
    let (state, report) = match pool.execute(&job, &CancelToken::new()) {
        Ok(result) => result,
        Err(e) => {
            log::error(
                LOG_TARGET,
                "smoke process run failed",
                &[("error", &e.to_string())],
            );
            return ExitCode::FAILURE;
        }
    };
    // The trace is the process run's: the in-process reference, which runs
    // its ranks and its permutation on this process too, stays out of it.
    hisvsim_obs::set_enabled(false);
    let (reference, _) = execute_local_reference(&job, workers);
    if state != reference {
        log::error(
            LOG_TARGET,
            "smoke process run diverged from the in-process run",
            &[(
                "max_abs_diff",
                &format!("{:.3e}", state.max_abs_diff(&reference)),
            )],
        );
        return ExitCode::FAILURE;
    }
    println!(
        "smoke: qft-{qubits} on {workers} worker processes: bit-identical to the \
         in-process run ({} parts, {} exchanges, {:.1} MiB moved, wall {:.2}s)",
        report.num_parts,
        report.num_exchanges,
        report.comm.bytes_sent as f64 / (1024.0 * 1024.0),
        report.total_time_s,
    );
    if let Some(path) = trace_path {
        let spans = hisvsim_obs::drain();
        if let Err(msg) = validate_cluster_spans(&spans, workers) {
            log::error(
                LOG_TARGET,
                "smoke trace validation failed",
                &[("detail", &msg)],
            );
            return ExitCode::FAILURE;
        }
        let json = hisvsim_obs::chrome_trace_json(&spans);
        if let Err(e) = std::fs::write(path, &json) {
            log::error(
                LOG_TARGET,
                "smoke cannot write trace",
                &[("path", path), ("error", &e.to_string())],
            );
            return ExitCode::FAILURE;
        }
        println!(
            "smoke: wrote merged trace ({} spans, launcher + {workers} worker ranks) to {path}",
            spans.len()
        );
    }
    println!("smoke: OK");
    ExitCode::SUCCESS
}

/// Check the merged span set covers the whole cluster: launcher spans on
/// pid 0, at least one span from every worker rank (pid = rank + 1), and
/// the plan/fuse/sweep/collective phases all present.
fn validate_cluster_spans(spans: &[hisvsim_obs::SpanRecord], workers: usize) -> Result<(), String> {
    let has = |pred: &dyn Fn(&hisvsim_obs::SpanRecord) -> bool, what: &str| {
        if spans.iter().any(pred) {
            Ok(())
        } else {
            Err(format!("no {what} span in the merged trace"))
        }
    };
    has(&|s| s.cat == "cluster" && s.pid == 0, "launcher (cluster)")?;
    for rank in 0..workers {
        let pid = rank as u32 + 1;
        has(&|s| s.pid == pid, &format!("rank-{rank} (pid {pid})"))?;
    }
    has(&|s| s.name == "plan", "plan phase")?;
    has(&|s| s.name == "fuse", "fuse phase")?;
    has(&|s| s.name.starts_with("sweep:"), "kernel sweep")?;
    has(&|s| s.cat == "comm", "collective (comm)")?;
    Ok(())
}
