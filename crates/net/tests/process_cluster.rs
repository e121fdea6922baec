//! Multi-process cluster tests: real worker processes of the
//! `hisvsim-net` binary on localhost, compared bit-for-bit against the
//! in-process channel world and the flat reference simulator.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{CancelToken, RunReport};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_integration_tests::swap_cases;
use hisvsim_net::{execute_local_reference, NetError, ShippedJob, WorkerPool};
use hisvsim_partition::Strategy;
use hisvsim_runtime::{
    Backend, CacheStats, EngineKind, EngineSelector, JobControl, JobError, JobRunner, Scheduler,
    SchedulerConfig, Semaphore, SimJob,
};
use hisvsim_service::{JobEvent, ServiceConfig, SimService};
use hisvsim_statevec::{run_circuit, StateVector};
use std::path::PathBuf;
use std::sync::Arc;

fn launcher(workers: usize) -> WorkerPool {
    WorkerPool::with_worker_binary(workers, PathBuf::from(env!("CARGO_BIN_EXE_hisvsim-net")))
}

fn single_level_job(qubits: usize, workers: usize) -> ShippedJob {
    single_level_job_of(generators::qft(qubits), workers)
}

fn single_level_job_of(circuit: Circuit, workers: usize) -> ShippedJob {
    let dag = CircuitDag::from_circuit(&circuit);
    let local = circuit.num_qubits() - workers.trailing_zeros() as usize;
    let partition = Strategy::DagP.partition(&dag, local).unwrap();
    ShippedJob {
        circuit,
        dispatch: Default::default(),
        plan: partition,
        trace: false,
    }
}

/// Run `job` on a fresh `workers`-process pool under an inert token.
fn run_on_processes(job: &ShippedJob, workers: usize) -> (StateVector, RunReport) {
    launcher(workers).execute(job, &CancelToken::new()).unwrap()
}

/// The same job on the in-process channel world.
fn reference(job: &ShippedJob, workers: usize) -> StateVector {
    execute_local_reference(job, workers).0
}

#[test]
fn four_process_dist_run_is_bit_identical_to_in_process() {
    let workers = 4;
    let job = single_level_job(12, workers);
    let (state, report) = run_on_processes(&job, workers);
    assert_eq!(
        state,
        reference(&job, workers),
        "process run must be bit-identical"
    );
    assert!(state.approx_eq(&run_circuit(&job.circuit), 1e-9));
    assert_eq!(report.num_ranks, workers);
    assert!(report.comm.bytes_sent > 0, "4 ranks must exchange state");
    assert!(
        report.comm.wall_time_s > 0.0,
        "collectives charge wall time"
    );
}

/// A hier job's single-level plan ships like a dist one: on a world of
/// several processes it runs one step per part.
#[test]
fn four_process_hier_plan_is_bit_identical_to_in_process() {
    let workers = 4;
    let job = single_level_job(11, workers);
    let (state, _) = run_on_processes(&job, workers);
    assert_eq!(state, reference(&job, workers));
    assert!(state.approx_eq(&run_circuit(&job.circuit), 1e-9));
}

#[test]
fn shipped_dag_strategy_runs_bit_identical_across_transports() {
    // A worker re-fuses the shipped partition; DAG grouping is
    // deterministic, so the TCP-process run and the in-process channel-world
    // run of the same job must agree bit for bit — here on a deep random
    // circuit, where the grouping reorders gates far across program order.
    let workers = 4;
    let job = single_level_job_of(generators::random_circuit(11, 200, 0xD1FF), workers);
    let (state, _) = run_on_processes(&job, workers);
    assert_eq!(
        state,
        reference(&job, workers),
        "process run must be bit-identical to the local world"
    );
    assert!(state.approx_eq(&run_circuit(&job.circuit), 1e-9));
}

#[test]
fn scheduler_routes_process_backend_jobs_through_the_launcher() {
    let backend: Arc<WorkerPool> = Arc::new(launcher(4));
    let scheduler = Scheduler::new(
        SchedulerConfig::default()
            .with_selector(EngineSelector::scaled(4, 8))
            .with_process_backend(backend),
    );
    let circuit = generators::qft(11);
    let expected = run_circuit(&circuit);
    let jobs = vec![
        SimJob::new(circuit.clone())
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process),
        SimJob::new(circuit.clone()).with_engine(EngineKind::Dist), // local twin
    ];
    let report = scheduler.run_batch(jobs);
    let process = &report.results[0];
    let local = &report.results[1];
    assert!(process.state.as_ref().unwrap().approx_eq(&expected, 1e-9));
    assert!(local.state.as_ref().unwrap().approx_eq(&expected, 1e-9));
    assert_eq!(process.report.num_ranks, 4);
    assert_eq!(process.report.strategy, "process");
    assert!(process.comm_stats().bytes_sent > 0);
}

/// A process job ships the circuit without its SWAPs, every other gate on
/// the qubits its operands end up on: the result is the submitted circuit's
/// (|0…0⟩ for the circuit of SWAPs alone), and progress reads the submitted
/// gate count from the first event to the last, as on the thread world.
#[test]
fn a_relabeled_process_job_returns_the_submitted_state_and_gate_count() {
    let service = SimService::start(
        ServiceConfig::new().with_scheduler(
            SchedulerConfig::default()
                .with_selector(EngineSelector::scaled(4, 8))
                .with_process_backend(Arc::new(launcher(2))),
        ),
    );
    for circuit in swap_cases(12) {
        let total = circuit.num_gates() as u64;
        let expected = run_circuit(&circuit);
        let name = circuit.name.clone();
        let handle = service.submit(SimJob::new(circuit).with_backend(Backend::Process));
        let result = handle.wait().expect("the process job completes");
        assert!(result.state.unwrap().approx_eq(&expected, 1e-10), "{name}");
        let progress: Vec<(u64, u64)> = handle
            .progress()
            .iter()
            .filter_map(|event| match event {
                JobEvent::Executing {
                    gates_done,
                    gates_total,
                } => Some((gates_done, gates_total)),
                _ => None,
            })
            .collect();
        assert_eq!(progress, vec![(0, total), (total, total)], "{name}");
        let status = service.job_status(handle.id()).expect("a retained status");
        assert_eq!((status.gates_done, status.gates_total), (total, total));
    }
    service.shutdown().unwrap();
}

#[test]
fn requesting_process_backend_without_registration_fails_cleanly() {
    let service = SimService::start(
        ServiceConfig::new()
            .with_scheduler(SchedulerConfig::default().with_selector(EngineSelector::scaled(4, 8))),
    );
    let handle = service.submit(
        SimJob::new(generators::qft(8))
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process),
    );
    let err = handle.wait().unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("no process backend"),
        "unexpected failure message: {message}"
    );
    service.shutdown().unwrap();
}

#[test]
fn too_small_circuit_is_rejected_before_any_worker_launches() {
    let service = SimService::start(
        ServiceConfig::new().with_scheduler(
            SchedulerConfig::default()
                .with_selector(EngineSelector::scaled(4, 8))
                .with_process_backend(Arc::new(launcher(4))),
        ),
    );
    // 2 qubits cannot give 4 ranks a local slice wide enough for a
    // 2-qubit gate: the pool must reject this cleanly, not let worker
    // processes die on an assert.
    let handle = service.submit(
        SimJob::new(generators::qft(2))
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process),
    );
    let message = handle.wait().unwrap_err().to_string();
    assert!(message.contains("too small"), "got: {message}");
    service.shutdown().unwrap();
}

#[test]
fn a_forced_comparator_job_is_refused_before_planning_on_either_backend() {
    // The runtime serves a single-level plan on a world of one rank or of
    // several; the paper's two comparators run through their core entry
    // points. A job forcing either is refused with the one typed error
    // before planning (the plan cache sees no lookup), before a residency
    // slot and before the pool spawns a world, whichever backend it asks
    // for.
    let pool = Arc::new(launcher(2));
    let runner = JobRunner::new(
        SchedulerConfig::default()
            .with_selector(EngineSelector::scaled(4, 8))
            .with_process_backend(Arc::clone(&pool) as _),
    );
    let residency = Semaphore::new(1);
    for engine in [EngineKind::Baseline, EngineKind::Multilevel] {
        for backend in [Backend::Local, Backend::Process] {
            let job = SimJob::new(generators::by_name("ising", 9))
                .with_engine(engine)
                .with_backend(backend);
            let err = runner
                .execute_job(0, job, &residency, &JobControl::new())
                .unwrap_err();
            assert!(
                matches!(err, JobError::EngineNotServed { engine: refused, .. } if refused == engine),
                "{engine} on {backend:?}: got {err}"
            );
            assert_eq!(runner.cache().stats(), CacheStats::default());
            assert_eq!(residency.available(), 1);
        }
    }
    assert_eq!(pool.metrics().worlds_spawned, 0);
    assert_eq!(pool.metrics().jobs_run, 0);
}

#[test]
#[cfg(unix)]
fn crashed_worker_fails_the_launch_instead_of_hanging() {
    // A "worker binary" that exits immediately: the launcher must surface
    // a Worker error promptly (liveness polling), not block in accept.
    let bad = WorkerPool::with_worker_binary(2, PathBuf::from("/bin/false"));
    let job = single_level_job(8, 2);
    let start = std::time::Instant::now();
    let err = bad.execute(&job, &CancelToken::new()).unwrap_err();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "launch failure took too long"
    );
    let message = err.to_string();
    assert!(
        message.contains("worker") || message.contains("i/o"),
        "got: {message}"
    );
}

#[test]
fn restarted_launcher_service_reuses_shipped_plans_with_zero_replans() {
    let dir = std::env::temp_dir().join(format!("hisvsim-net-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("plans.json");
    let circuit = generators::qft(11);
    let expected = run_circuit(&circuit);
    let config = || {
        ServiceConfig::new()
            .with_scheduler(
                SchedulerConfig::default()
                    .with_selector(EngineSelector::scaled(4, 8))
                    .with_process_backend(Arc::new(launcher(4))),
            )
            .with_persistence(&snapshot)
    };
    let job = || {
        SimJob::new(circuit.clone())
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process)
    };

    // First launcher service: plans from scratch, ships, persists.
    let first = SimService::start(config());
    let state1 = first.submit(job()).wait().unwrap().state.unwrap();
    assert_eq!(first.cache_stats().misses, 1);
    first.shutdown().unwrap();

    // Restarted launcher service: the shipped partition is reloaded from
    // the snapshot — zero replans on the repeat workload.
    let second = SimService::start(config());
    let state2 = second.submit(job()).wait().unwrap().state.unwrap();
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 0, "repeat workload must not replan");
    assert_eq!(stats.warm_hits, 1, "plan must come from the snapshot");
    second.shutdown().unwrap();

    // Same partition shipped both times ⇒ bit-identical assembled states.
    assert_eq!(state1, state2);
    assert!(state1.approx_eq(&expected, 1e-9));
    std::fs::remove_file(&snapshot).ok();
}

#[test]
fn a_shipped_plan_that_does_not_validate_fails_the_job_on_the_workers() {
    // H(0), CX(0,1), H(1) with the outer gates in one part and the CX in
    // another: each part needs the other first. Fused as it came, the plan
    // would run in some order and hand back a wrong state; the workers check
    // it as the runtime checks a persisted snapshot and refuse it.
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).h(1);
    let cyclic = ShippedJob {
        circuit,
        dispatch: Default::default(),
        plan: Partition::from_gate_assignment(vec![0, 1, 0]),
        trace: false,
    };
    let pool = launcher(2);
    let err = pool.execute(&cyclic, &CancelToken::new()).unwrap_err();
    let message = err.to_string();
    assert!(
        matches!(err, NetError::Worker(_)) && message.contains("does not validate"),
        "got: {message}"
    );
    // A part wider than a worker's slice is refused the same way.
    let mut too_wide = single_level_job(8, 1);
    too_wide.plan = Partition::single_part(too_wide.circuit.num_gates());
    let err = pool.execute(&too_wide, &CancelToken::new()).unwrap_err();
    assert!(err.to_string().contains("at 7 local qubits"), "got: {err}");
    // The world is respawned for the next job.
    let job = single_level_job(8, 2);
    let (state, _) = pool.execute(&job, &CancelToken::new()).unwrap();
    assert_eq!(state, reference(&job, 2));
    assert_eq!(pool.metrics().jobs_failed, 2);
}
