//! `cluster_mode` — the multi-process cluster end to end.
//!
//! Three demonstrations:
//!
//! 1. **Process-backed execution.** A QFT job runs twice through the
//!    runtime scheduler — once on the in-process channel world, once on a
//!    4-worker localhost process cluster (`Backend::Process` via
//!    `hisvsim-net`'s `WorkerPool`) — and the amplitudes are compared
//!    **bit for bit**.
//! 2. **Remote plan shipping.** The process run reuses the exact partition
//!    the plan cache holds: partitions travel over the control channel in
//!    their `PersistedPlan` wire shape, workers re-fuse locally.
//! 3. **Service hardening.** The same launcher behind a `SimService` with a
//!    per-job deadline, plus the operator's `metrics_text()` scrape.
//!
//! Run with `cargo run --release --example cluster_mode` (after building
//! the worker binary: `cargo build --release -p hisvsim-net`).
//! `HISVSIM_CLUSTER_QUBITS` overrides the circuit width (default 16),
//! `HISVSIM_CLUSTER_WORKERS` the worker count (default 4).

use hisvsim_circuit::generators;
use hisvsim_net::WorkerPool;
use hisvsim_runtime::{Backend, EngineKind, EngineSelector, Scheduler, SchedulerConfig, SimJob};
use hisvsim_service::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let qubits = env_usize("HISVSIM_CLUSTER_QUBITS", 16);
    let workers = env_usize("HISVSIM_CLUSTER_WORKERS", 4);
    let launcher = match WorkerPool::new(workers) {
        Ok(launcher) => Arc::new(launcher),
        Err(e) => {
            eprintln!("cluster_mode: {e}");
            eprintln!("hint: cargo build --release -p hisvsim-net");
            std::process::exit(1);
        }
    };
    println!("== cluster mode: qft-{qubits} on {workers} worker processes ==");
    process_vs_local(&launcher, qubits);
    service_with_deadline_and_metrics(&launcher, qubits);
}

/// Parts 1 + 2: the same job through both backends, bit-identical results,
/// the plan shipped from the shared cache.
fn process_vs_local(launcher: &Arc<WorkerPool>, qubits: usize) {
    let scheduler = Scheduler::new(
        SchedulerConfig::default()
            .with_selector(EngineSelector::scaled(4, 8))
            .with_process_backend(Arc::clone(launcher) as _),
    );
    for engine in [EngineKind::Hier, EngineKind::Dist] {
        let circuit = generators::qft(qubits);
        let report = scheduler.run_batch(vec![
            SimJob::new(circuit.clone()).with_engine(engine),
            SimJob::new(circuit)
                .with_engine(engine)
                .with_backend(Backend::Process),
        ]);
        let local = &report.results[0];
        let process = &report.results[1];
        // The process job shipped the *same cached partition* the local job
        // planned (one cache miss for the pair at most).
        println!(
            "{engine}: local {:.3}s | {} worker processes {:.3}s \
             ({} parts, {:.1} MiB over TCP, plan cache hit: {})",
            local.wall_time_s,
            process.report.num_ranks,
            process.wall_time_s,
            process.report.num_parts,
            process.comm_stats().bytes_sent as f64 / (1024.0 * 1024.0),
            process.plan_cache_hit,
        );
        let (a, b) = (
            local.state.as_ref().expect("states retained"),
            process.state.as_ref().expect("states retained"),
        );
        match a.approx_eq(b, 0.0) {
            true => println!("{engine}: process run is BIT-IDENTICAL to the local run"),
            false => {
                eprintln!(
                    "{engine}: runs diverged (max |diff| = {:.3e})",
                    a.max_abs_diff(b)
                );
                std::process::exit(1);
            }
        }
    }
}

/// Part 3: the launcher behind the job service — deadlines and metrics.
fn service_with_deadline_and_metrics(launcher: &Arc<WorkerPool>, qubits: usize) {
    let service = SimService::start(
        ServiceConfig::new().with_scheduler(
            SchedulerConfig::default()
                .with_selector(EngineSelector::scaled(4, 8))
                .with_process_backend(Arc::clone(launcher) as _),
        ),
    );
    // A comfortable deadline: the job completes normally.
    let ok = service.submit(
        SimJob::new(generators::qft(qubits))
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process)
            .with_deadline(Duration::from_secs(600)),
    );
    ok.wait().expect("well within the deadline");
    // An impossible deadline on a deliberately heavy job: the service
    // cancels it cooperatively and reports DeadlineExceeded on the stream.
    let doomed = service.submit(
        SimJob::new(generators::qft(qubits.max(18)))
            .with_engine(EngineKind::Hier)
            .with_limit(4)
            .with_deadline(Duration::from_millis(5)),
    );
    match doomed.wait() {
        Err(JobFailure::Failed(message)) => println!("deadline demo: {message}"),
        Err(other) => println!("deadline demo: unexpected failure {other}"),
        Ok(result) => println!(
            "deadline demo: job beat its deadline in {:.3}s (machine too fast)",
            result.wall_time_s
        ),
    }
    println!("-- metrics_text() --");
    for line in service
        .metrics_text()
        .lines()
        .filter(|l| !l.starts_with('#'))
    {
        println!("{line}");
    }
    service.shutdown().expect("clean drain");
}
