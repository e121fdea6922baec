//! A process-backed job moves only what changes rank: no worker exchanges
//! after its last part (the ranks hand back their slices in the layout they
//! end in), and the launcher puts the qubits in order with one permutation,
//! the inverse of the ranks' final layout. A circuit's SWAPs leave none:
//! the runner ships the circuit without them, every other gate on the
//! qubits its operands end up on.
//! Alone in its test binary because the span recorder is process-global.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_integration_tests::swap_cases;
use hisvsim_net::WorkerPool;
use hisvsim_obs::SpanRecord;
use hisvsim_runtime::{
    Backend, EngineKind, JobControl, JobResult, JobRunner, SchedulerConfig, Semaphore, SimJob,
};
use hisvsim_statevec::run_circuit;
use std::path::PathBuf;
use std::sync::Arc;

const WORKERS: usize = 2;

/// Run `circuit` forced dist on `runner`, on `backend`.
fn run(runner: &JobRunner, circuit: &Circuit, backend: Backend) -> JobResult {
    let job = SimJob::new(circuit.clone())
        .with_engine(EngineKind::Dist)
        .with_backend(backend);
    let result = runner
        .execute_job(0, job, &Semaphore::new(1), &JobControl::new())
        .expect("the job runs");
    assert_eq!(result.decision.ranks, WORKERS);
    result
}

/// `(exchanges, bytes, messages)` of a job's report.
fn counts(result: &JobResult) -> (usize, u64, u64) {
    let report = &result.report;
    let comm = &report.comm;
    (report.num_exchanges, comm.bytes_sent, comm.messages_sent)
}

/// Every span of `spans` on process lane `pid` named `cat`/`name`.
fn on_lane<'a>(spans: &'a [SpanRecord], pid: u32, cat: &str, name: &str) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|span| span.pid == pid && span.cat == cat && span.name == name)
        .collect()
}

#[test]
fn workers_exchange_nothing_after_their_last_part_and_the_launcher_permutes_once() {
    let pool =
        WorkerPool::with_worker_binary(WORKERS, PathBuf::from(env!("CARGO_BIN_EXE_hisvsim-net")));
    let processes = JobRunner::new(SchedulerConfig::default().with_process_backend(Arc::new(pool)));
    let threads = JobRunner::new(SchedulerConfig::default());
    // The QFT's, QPE's and `swapped17`'s SWAPs are dropped at intake; the
    // launcher's permutation is the layout alone, with SWAPs or without.
    let mut circuits = vec![
        generators::qft(12),
        generators::random_circuit(12, 120, 5),
        generators::qft(21),
    ];
    // Every SWAP case but the one of SWAPs alone, which runs no part.
    circuits.extend(
        swap_cases(17)
            .into_iter()
            .filter(|circuit| circuit.without_swaps().num_gates() > 0),
    );
    for circuit in &circuits {
        hisvsim_obs::set_enabled(true);
        let _ = hisvsim_obs::drain();
        let process = run(&processes, circuit, Backend::Process);
        hisvsim_obs::set_enabled(false);
        let spans = hisvsim_obs::drain();

        for rank in 0..WORKERS as u32 {
            let pid = rank + 1;
            let parts = on_lane(&spans, pid, "kernel", "part");
            let last_part = parts.iter().map(|span| span.ts_us).max();
            let last_part = last_part.expect("every worker runs parts");
            let exchanges = on_lane(&spans, pid, "comm", "redistribute");
            assert!(
                !exchanges.is_empty(),
                "{}: rank {rank} switches parts",
                circuit.name
            );
            assert!(
                exchanges.iter().all(|span| span.ts_us < last_part),
                "{}: rank {rank} exchanged after its last part",
                circuit.name
            );
        }
        let permutes = on_lane(&spans, 0, "kernel", "permute");
        assert_eq!(
            permutes.len(),
            1,
            "{}: the launcher permutes once",
            circuit.name
        );

        // The same exchanges, bytes and bits as the thread world.
        let thread_world = run(&threads, circuit, Backend::Local);
        assert_eq!(counts(&process), counts(&thread_world), "{}", circuit.name);
        let state = process.state.expect("the runner keeps the state");
        assert_eq!(
            Some(&state),
            thread_world.state.as_ref(),
            "{}",
            circuit.name
        );
        let reference = run_circuit(circuit);
        assert!(
            state.approx_eq(&reference, 1e-10),
            "{}: max diff {}",
            circuit.name,
            state.max_abs_diff(&reference)
        );
        if circuit.num_qubits() == 21 {
            assert_eq!(counts(&thread_world), (2, 32 << 20, 4), "{}", circuit.name);
        }
    }
}
