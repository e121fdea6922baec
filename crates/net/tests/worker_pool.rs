//! Persistent worker-pool regression suite: world reuse across a batch
//! (zero respawns, bit-identical to the fresh-launch reference), mid-sweep
//! cooperative cancellation with bounded latency, resident-worker hygiene
//! (warm plan cache, per-job trace state), and crash recovery (a killed
//! rank fails its job but leaves the pool usable).

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::CancelToken;
use hisvsim_dag::CircuitDag;
use hisvsim_net::{execute_local_reference, NetError, ShippedJob, WorkerPool};
use hisvsim_partition::Strategy;
use hisvsim_runtime::{Backend, EngineKind, EngineSelector, SchedulerConfig, SimJob};
use hisvsim_service::{ServiceConfig, SimService, DEADLINE_EXCEEDED};
use hisvsim_statevec::{run_circuit, StateVector};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pool(workers: usize) -> WorkerPool {
    WorkerPool::with_worker_binary(workers, PathBuf::from(env!("CARGO_BIN_EXE_hisvsim-net")))
}

/// `circuit`'s dagP plan at working-set `limit`.
fn plan_job(circuit: Circuit, limit: usize) -> ShippedJob {
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP.partition(&dag, limit).unwrap();
    ShippedJob {
        circuit,
        dispatch: Default::default(),
        plan: partition,
        trace: false,
    }
}

/// `name(qubits)`'s plan at the widest limit a worker's slice holds.
fn dist_job(name: &str, qubits: usize, workers: usize) -> ShippedJob {
    plan_job(
        generators::by_name(name, qubits),
        qubits - workers.trailing_zeros() as usize,
    )
}

/// A plan whose parts are a small fraction of its run each: `qft(20)` at
/// limit 8 is 25 dagP parts, so one cancel-vote interval is ~1/25 of it,
/// and the run (~0.2 s on 2 debug-build workers) dwarfs the fixed cancel
/// latencies (the pool's 5 ms poll, the service's timer).
fn heavy_job() -> ShippedJob {
    plan_job(generators::qft(20), 8)
}

/// Run `job` on the pool under an inert token.
fn run(pool: &WorkerPool, job: &ShippedJob) -> Result<StateVector, NetError> {
    pool.execute(job, None, &CancelToken::new())
        .map(|(state, _)| state)
}

/// The same job on the in-process channel world.
fn reference(job: &ShippedJob, workers: usize) -> StateVector {
    execute_local_reference(job, workers).0
}

/// The headline reuse guarantee: a batch of jobs runs on ONE worker world
/// (zero respawns after warm-up), every result bit-identical to the
/// fresh-launch in-process reference, across engines and circuits — so
/// residency (kept mesh, warm plan cache, pooled buffers) changes *when*
/// work happens, never what it produces.
#[test]
fn eight_job_batch_reuses_one_world_and_stays_bit_identical() {
    let workers = 4;
    let pool = pool(workers);
    let jobs = [
        dist_job("qft", 12, workers),
        dist_job("qft", 11, workers),
        dist_job("qft", 12, workers), // repeat fingerprint
        dist_job("ising", 10, workers),
        dist_job("qft", 10, workers),
        dist_job("qft", 11, workers), // repeat fingerprint
        dist_job("qaoa", 10, workers),
        dist_job("qft", 12, workers), // repeat fingerprint
    ];
    for (index, job) in jobs.iter().enumerate() {
        let (state, report) = pool.execute(job, None, &CancelToken::new()).unwrap();
        assert_eq!(
            state,
            reference(job, workers),
            "job {index} on the resident world must be bit-identical to a fresh launch"
        );
        assert!(state.approx_eq(&run_circuit(&job.circuit), 1e-9));
        assert_eq!(report.num_ranks, workers);
    }
    let metrics = pool.metrics();
    assert_eq!(
        metrics.worlds_spawned, 1,
        "a warm batch must never respawn the worker world"
    );
    assert_eq!(metrics.jobs_run, jobs.len() as u64);
    assert_eq!(metrics.jobs_reused_world, jobs.len() as u64 - 1);
    assert_eq!(metrics.jobs_failed, 0);
    assert_eq!(metrics.jobs_cancelled, 0);
}

/// The headline bugfix: a [`CancelToken`] fired while the remote ranks are
/// mid-sweep stops them at their next cancel-vote checkpoint — well before
/// the job would have finished, not at the job boundary — and leaves the
/// world warm for the next job.
#[test]
fn cancel_mid_sweep_is_bounded_and_keeps_the_world_warm() {
    let workers = 2;
    let pool = pool(workers);
    // Heavy enough to make mid-sweep timing meaningful on both debug and
    // release builds; the rank body votes before every part, and between
    // passes on a slice above one tile, so the cancel latency bound is one
    // pass — a small fraction of the run.
    let heavy = heavy_job();

    // Warm the world up and measure the uncancelled wall.
    let uncancelled_start = Instant::now();
    run(&pool, &heavy).unwrap();
    let uncancelled = uncancelled_start.elapsed();

    // Same job again, cancelling from another thread mid-sweep.
    let cancel = CancelToken::new();
    let delay = uncancelled / 5;
    let firer = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            cancel.cancel();
        })
    };
    let cancelled_start = Instant::now();
    let err = pool.execute(&heavy, None, &cancel).unwrap_err();
    let elapsed = cancelled_start.elapsed();
    firer.join().unwrap();
    assert!(matches!(err, NetError::Cancelled), "got: {err}");
    assert!(
        elapsed >= delay,
        "the job was rejected before the cancel even fired ({elapsed:?} < {delay:?})"
    );
    assert!(
        elapsed < uncancelled.mul_f64(0.8),
        "cancel was not honoured mid-sweep: cancelled run took {elapsed:?} \
         of an uncancelled {uncancelled:?}"
    );

    let metrics = pool.metrics();
    assert_eq!(metrics.jobs_cancelled, 1);
    assert_eq!(
        metrics.worlds_spawned, 1,
        "a vote-agreed cancel must keep the world warm"
    );

    // The world is genuinely usable afterwards: the next job reuses it and
    // still matches the reference bit for bit.
    let small = dist_job("qft", 11, workers);
    assert_eq!(run(&pool, &small).unwrap(), reference(&small, workers));
    assert_eq!(pool.metrics().worlds_spawned, 1);
}

/// An inert token must cost nothing observable: a job under a token nobody
/// fires cancels nothing and completes normally — guarding against the
/// canceller thread misfiring.
#[test]
fn uncancelled_jobs_never_observe_the_cancel_machinery() {
    let workers = 2;
    let pool = pool(workers);
    let job = dist_job("qft", 10, workers);
    for _ in 0..3 {
        run(&pool, &job).unwrap();
    }
    let metrics = pool.metrics();
    assert_eq!(metrics.jobs_cancelled, 0);
    assert_eq!(metrics.jobs_failed, 0);
}

/// Resident-worker hygiene: every job re-fuses its shipped partition on
/// every rank (one `plan/fuse` span per rank ships back each time) and a
/// repeat stays bit-identical, and a worker's span recorder resets between
/// jobs — an untraced job after a traced one ships nothing.
#[test]
fn every_job_fuses_afresh_on_each_rank_and_trace_state_resets_between_jobs() {
    let workers = 2;
    let pool = pool(workers);
    let mut job = dist_job("qft", 12, workers);
    job.trace = true;
    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();

    let worker_fuses = |spans: &[hisvsim_obs::SpanRecord]| {
        spans
            .iter()
            .filter(|s| s.pid >= 1 && s.cat == "plan" && s.name == "fuse")
            .count()
    };
    let first = run(&pool, &job).unwrap();
    assert_eq!(
        worker_fuses(&hisvsim_obs::drain()),
        workers,
        "every worker must fuse the shipped partition once"
    );
    let second = run(&pool, &job).unwrap();
    assert_eq!(
        worker_fuses(&hisvsim_obs::drain()),
        workers,
        "a repeated job must be fused afresh on every rank"
    );
    assert_eq!(first, second, "re-fusing must not change the result");

    // Satellite 1 regression: after a traced job, an untraced job on the
    // same resident worker must ship no spans at all (recorder disabled
    // and ring drained between jobs).
    job.trace = false;
    run(&pool, &job).unwrap();
    let spans = hisvsim_obs::drain();
    assert!(
        spans.iter().all(|s| s.pid == 0),
        "an untraced job shipped worker spans: {:?}",
        spans
            .iter()
            .filter(|s| s.pid >= 1)
            .map(|s| (&s.cat, &s.name))
            .collect::<Vec<_>>()
    );
    hisvsim_obs::set_enabled(false);
    let _ = hisvsim_obs::drain();
}

/// Crash recovery: killing a rank mid-job fails that job promptly (peer
/// loss is an error, not a hang), drops the world, and the next job
/// respawns a fresh world and succeeds.
#[test]
#[cfg(unix)]
fn killed_worker_mid_job_fails_the_job_but_the_pool_recovers() {
    let workers = 2;
    let pool = Arc::new(pool(workers));
    let heavy = heavy_job();

    // Warm up (and measure, to place the kill mid-job on any machine).
    let warmup_start = Instant::now();
    run(&pool, &heavy).unwrap();
    let heavy_wall = warmup_start.elapsed();
    let pids = pool.worker_pids();
    assert_eq!(pids.len(), workers);

    let runner = {
        let pool = Arc::clone(&pool);
        let heavy = heavy.clone();
        std::thread::spawn(move || run(&pool, &heavy).map(|_| ()))
    };
    std::thread::sleep(heavy_wall / 4);
    let killed = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .unwrap();
    assert!(killed.success());

    let err = runner
        .join()
        .unwrap()
        .expect_err("a job must fail when one of its ranks dies");
    assert!(
        !matches!(err, NetError::Cancelled),
        "a killed rank is a failure, not a cancellation"
    );
    assert_eq!(pool.metrics().jobs_failed, 1);

    // The pool recovers: the next job respawns a fresh world (at a fresh
    // epoch) and produces the right answer.
    let small = dist_job("qft", 11, workers);
    assert_eq!(run(&pool, &small).unwrap(), reference(&small, workers));
    assert_eq!(pool.metrics().worlds_spawned, 2);
}

/// A worker that dies while the pool is idle fails the next job on the one
/// failure path — the dead world is dropped and counted — so the job after
/// it respawns the world instead of shipping into a broken pipe forever.
#[test]
#[cfg(unix)]
fn a_worker_killed_between_jobs_fails_one_job_and_the_next_respawns_the_world() {
    let workers = 2;
    let pool = pool(workers);
    let job = dist_job("qft", 11, workers);
    run(&pool, &job).unwrap();
    let pids = pool.worker_pids();
    let killed = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    // Let the kernel close the dead rank's sockets before the next ship.
    std::thread::sleep(Duration::from_millis(200));

    let err = run(&pool, &job).expect_err("a job on a world with a dead rank must fail");
    assert!(
        !matches!(err, NetError::Cancelled),
        "a dead rank is a failure, not a cancellation"
    );
    assert_eq!(pool.metrics().jobs_failed, 1);

    assert_eq!(run(&pool, &job).unwrap(), reference(&job, workers));
    let metrics = pool.metrics();
    assert_eq!(
        metrics.worlds_spawned, 2,
        "the dead world must be respawned"
    );
    assert_eq!(metrics.jobs_failed, 1);
}

/// The full wiring: `SimJob::with_deadline` on a process-backed job kills
/// the remote ranks mid-sweep through the service's deadline timer → the
/// job's `CancelToken` → the pool's `Cancel{epoch}` frame → the ranks'
/// cancel vote — and the service (and its pooled backend) stay usable.
#[test]
fn deadline_cancels_a_process_job_mid_sweep_through_the_service() {
    let workers = 2;
    let backend = Arc::new(pool(workers));
    let service = SimService::start(
        ServiceConfig::new().with_scheduler(
            SchedulerConfig::default()
                .with_selector(EngineSelector::scaled(4, 8))
                .with_process_backend(Arc::clone(&backend) as _),
        ),
    );

    // The heavy plan of `cancel_mid_sweep_is_bounded...`: 25 parts with a
    // vote before each.
    let heavy = || {
        SimJob::new(generators::qft(20))
            .with_engine(EngineKind::Dist)
            .with_limit(8)
            .with_backend(Backend::Process)
    };
    // Calibrate the uncancelled wall on a second, warm run: the first one
    // also pays for spawning the world and faulting in the rank slices, and
    // 0.8x of that would be met by a warm run that was never cancelled.
    service.submit(heavy()).wait().unwrap();
    let uncancelled_start = Instant::now();
    service.submit(heavy()).wait().unwrap();
    let uncancelled = uncancelled_start.elapsed();

    // The same job under a deadline a fraction of its wall: the remote
    // ranks must stop mid-sweep, well before the uncancelled wall.
    let deadline = uncancelled / 5;
    let doomed_start = Instant::now();
    let message = service
        .submit(heavy().with_deadline(deadline))
        .wait()
        .expect_err("the deadline must kill the job")
        .to_string();
    let elapsed = doomed_start.elapsed();
    assert!(
        message.contains(DEADLINE_EXCEEDED),
        "unexpected failure: {message}"
    );
    assert!(
        elapsed < uncancelled.mul_f64(0.8),
        "remote ranks were not cancelled mid-sweep: deadlined run took \
         {elapsed:?} of an uncancelled {uncancelled:?}"
    );

    // Deadline expiry left the world warm and the service usable.
    let ok = service
        .submit(
            SimJob::new(generators::qft(11))
                .with_engine(EngineKind::Dist)
                .with_backend(Backend::Process),
        )
        .wait()
        .unwrap();
    assert!(ok
        .state
        .unwrap()
        .approx_eq(&run_circuit(&generators::qft(11)), 1e-9));
    let metrics_text = service.metrics_text();
    assert!(
        metrics_text.contains("hisvsim_pool_worlds_spawned_total 1\n"),
        "pool metrics missing or world respawned:\n{}",
        metrics_text
            .lines()
            .filter(|l| l.contains("hisvsim_pool"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(metrics_text.contains("hisvsim_pool_jobs_cancelled_total 1\n"));
    service.shutdown().unwrap();

    // Service shutdown tears the resident world down (workers exit).
    assert!(backend.worker_pids().is_empty());
}
