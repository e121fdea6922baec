//! Integration tests of the `hisvsim-service` job service: cancellation
//! (queued, in-flight, after completion), resident-slot release, concurrent
//! submit/poll, warm-start persistence, and the clean-drain smoke the CI
//! workflow runs under a timeout.

use hisvsim_circuit::generators;
use hisvsim_runtime::{EngineKind, EngineSelector, PlanCache, Scheduler, SchedulerConfig, SimJob};
use hisvsim_service::prelude::*;
use std::time::{Duration, Instant};

fn scaled_config(workers: usize) -> SchedulerConfig {
    SchedulerConfig::default()
        .with_workers(workers)
        .with_selector(EngineSelector::scaled(4, 8))
}

fn service(workers: usize) -> SimService {
    SimService::start(ServiceConfig::new().with_scheduler(scaled_config(workers)))
}

/// A job big enough that cancellation and the 150–200 ms deadlines below
/// land mid-execution in every profile tier-1 runs under: a wide random
/// circuit forced onto the hierarchical engine with a tight limit, so the
/// run spans many parts (each a cancellation checkpoint). The kernels are
/// optimised in the debug profile too, so tier-1 runs it at close to release
/// speed: 1.1 s (57 parts) on a two-vCPU guest, under both kernel dispatches.
/// A QFT of the same width no longer serves: from |0…0⟩ a tiled pass leaves
/// out the groups still zero, and `qft(22)` at this limit took 0.18–0.25 s,
/// close enough to the deadlines that one ran to the end first. No test lets
/// it run to the end.
fn long_job() -> SimJob {
    SimJob::new(generators::random_circuit(22, 528, 1))
        .with_engine(EngineKind::Hier)
        .with_limit(5)
}

/// Block until a worker has claimed `handle`'s job (its `Planning` event).
fn await_planning(handle: &JobHandle) {
    let events = handle.progress();
    loop {
        match events.recv().expect("stream must not end before Planning") {
            JobEvent::Planning => return,
            _ => continue,
        }
    }
}

/// The `hisvsim_service_jobs_in_flight` gauge reads exactly `expected`.
fn assert_in_flight(service: &SimService, expected: u64) {
    let text = service.metrics_text();
    let line = format!("hisvsim_service_jobs_in_flight {expected}");
    assert!(
        text.lines().any(|l| l == line),
        "expected `{line}` in:\n{}",
        text.lines()
            .filter(|l| l.starts_with("hisvsim_service_jobs_in_flight"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn in_flight_cancellation_stops_mid_execution_with_ordered_events() {
    let service = service(1);
    let handle = service.submit(long_job());
    let events = handle.progress();
    // Drain the stream until execution starts, then cancel.
    loop {
        match events.recv().expect("stream must not end before Executing") {
            JobEvent::Executing { .. } => break,
            _ => continue,
        }
    }
    handle.cancel();
    assert!(matches!(handle.wait(), Err(JobFailure::Cancelled)));
    assert_eq!(handle.poll(), JobStatus::Cancelled);
    // The remaining stream ends with Cancelled (never Done).
    let mut saw_cancelled = false;
    while let Ok(event) = events.recv() {
        assert!(!matches!(event, JobEvent::Done));
        saw_cancelled |= matches!(event, JobEvent::Cancelled);
    }
    assert!(saw_cancelled, "terminal Cancelled event missing");
}

#[test]
fn cancelled_job_releases_its_resident_state_slot() {
    // One residency slot: if a cancelled job leaked its permit, the next
    // job could never start.
    let mut config = scaled_config(2);
    config.max_resident = 1;
    let service = SimService::start(ServiceConfig::new().with_scheduler(config));

    let victim = service.submit(long_job());
    let events = victim.progress();
    loop {
        match events.recv().expect("stream must not end before Executing") {
            JobEvent::Executing { .. } => break,
            _ => continue,
        }
    }
    victim.cancel();
    assert!(matches!(victim.wait(), Err(JobFailure::Cancelled)));

    let successor = service.submit(SimJob::new(generators::qft(7)));
    let result = successor
        .wait()
        .expect("slot must be free after a cancellation");
    assert_eq!(result.circuit_name, "qft7");
}

/// A forced dist job runs its two ranks on threads of their own; a cancel
/// reaches them mid-run at a cancel-vote checkpoint, the job ends
/// `Cancelled` short of its last gate, and its residency slot is free for
/// the next job.
#[test]
fn a_forced_dist_job_cancelled_mid_run_frees_its_slot() {
    let mut config = SchedulerConfig::default().with_workers(2);
    config.max_resident = 1;
    let service = SimService::start(ServiceConfig::new().with_scheduler(config.clone()));
    // Two ranks of 21-qubit slices, at a limit that makes many parts, each
    // a checkpoint.
    let victim = SimJob::new(generators::qft(22))
        .with_engine(EngineKind::Dist)
        .with_limit(6);
    let decision = config.selector.decide(&victim.circuit, victim.engine);
    assert_eq!((decision.engine, decision.ranks), (EngineKind::Dist, 2));
    let victim = service.submit(victim);
    let events = victim.progress();
    loop {
        match events.recv().expect("stream must not end before Executing") {
            JobEvent::Executing { .. } => break,
            _ => continue,
        }
    }
    victim.cancel();
    assert!(matches!(victim.wait(), Err(JobFailure::Cancelled)));
    assert_eq!(victim.poll(), JobStatus::Cancelled);
    let status = service.job_status(victim.id()).expect("a retained status");
    assert!(
        status.gates_done < status.gates_total,
        "cancelled after its last gate ({} of {})",
        status.gates_done,
        status.gates_total
    );

    let successor = service.submit(SimJob::new(generators::qft(7)));
    let result = successor
        .wait()
        .expect("slot must be free after a cancellation");
    assert_eq!(result.circuit_name, "qft7");
    service.shutdown().unwrap();
}

/// An observable on a qubit the circuit lacks fails the job at intake with
/// a message that says so: the plan cache sees no lookup, and the service
/// goes on serving.
#[test]
fn an_out_of_range_observable_fails_the_job_before_planning() {
    let service = service(1);
    let before = service.cache_stats();
    let handle = service.submit(SimJob::new(generators::qft(7)).with_observables(vec![0, 7]));
    match handle.wait() {
        Err(JobFailure::Failed(message)) => assert!(
            message.contains("qubit 7") && message.contains("7 qubits"),
            "{message}"
        ),
        other => panic!(
            "expected a failed job, got {:?}",
            other.map(|r| r.job_index)
        ),
    }
    assert_eq!(handle.poll(), JobStatus::Failed);
    assert_eq!(service.cache_stats(), before, "the plan cache saw a lookup");
    let result = service
        .submit(SimJob::new(generators::qft(7)).with_observables(vec![6]))
        .wait()
        .expect("the service goes on serving");
    assert_eq!(result.z_expectations.len(), 1);
    service.shutdown().unwrap();
}

#[test]
fn cancelling_a_queued_job_never_runs_it() {
    let service = service(1);
    let blocker = service.submit(long_job());
    await_planning(&blocker);
    let queued = service.submit(SimJob::new(generators::qft(7)));
    queued.cancel();
    assert_eq!(queued.poll(), JobStatus::Cancelled);
    assert!(matches!(queued.wait(), Err(JobFailure::Cancelled)));
    // Counted, off the queue and downloadable the moment `wait()` returns,
    // with the blocker still running.
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.queue_depth, 0);
    assert_in_flight(&service, 1);
    let artifacts = service
        .job_artifacts(queued.id())
        .expect("a job cancelled while queued has its artifact");
    assert_eq!(artifacts.outcome, "cancelled");
    assert!(service.job_trace_json(queued.id()).is_some());
    // The queued job's stream holds Queued then Cancelled — no Planning.
    let events: Vec<JobEvent> = {
        let rx = queued.progress();
        let mut out = Vec::new();
        while let Ok(e) = rx.recv() {
            out.push(e);
        }
        out
    };
    assert_eq!(events, vec![JobEvent::Queued, JobEvent::Cancelled]);
    blocker.cancel();
    let _ = blocker.wait();
}

#[test]
fn cancel_after_complete_is_a_noop() {
    let service = service(2);
    let handle = service.submit(SimJob::new(generators::qft(7)).with_shots(16));
    let result = handle.wait().expect("job succeeded");
    handle.cancel();
    handle.cancel(); // idempotent, twice
    assert_eq!(handle.poll(), JobStatus::Done);
    let again = handle.wait().expect("outcome must be stable");
    assert_eq!(result.counts, again.counts);
    assert_eq!(service.stats().cancelled, 0);
}

#[test]
fn the_state_is_handed_to_the_first_waiter_and_the_rest_is_stable() {
    let service = service(2);
    let job = SimJob::new(generators::qft(9))
        .with_shots(32)
        .with_observables(vec![0, 3]);
    let handle = service.submit(job);
    let first = handle.wait().expect("job succeeded");
    let state = first
        .state
        .as_ref()
        .expect("the first wait carries the state");
    assert_eq!(state.num_qubits(), 9);
    for _ in 0..2 {
        let again = handle.wait().expect("outcome must be stable");
        assert!(
            again.state.is_none(),
            "the state moved out with the first wait"
        );
        assert_eq!(again.counts, first.counts);
        assert_eq!(again.z_expectations, first.z_expectations);
        assert_eq!(
            format!("{:?}", again.timeline()),
            format!("{:?}", first.timeline())
        );
        assert_eq!(
            format!("{:?}", again.decision),
            format!("{:?}", first.decision)
        );
    }
    // A failed job has no state to hand over and every wait says the same.
    let bad = service.submit(
        SimJob::new(generators::adder(8))
            .with_engine(EngineKind::Hier)
            .with_limit(2),
    );
    let failure = bad.wait().unwrap_err();
    assert_eq!(bad.wait().unwrap_err(), failure);
}

#[test]
fn concurrent_submit_and_poll_from_many_threads_never_deadlocks() {
    let service = service(4);
    let deadline = Instant::now() + Duration::from_secs(120);
    std::thread::scope(|scope| {
        for thread in 0..8u64 {
            let service = &service;
            scope.spawn(move || {
                let mut handles = Vec::new();
                for i in 0..4u64 {
                    let priority = match (thread + i) % 3 {
                        0 => JobPriority::Low,
                        1 => JobPriority::Normal,
                        _ => JobPriority::High,
                    };
                    handles.push(
                        service.submit_with_priority(
                            SimJob::new(generators::random_circuit(6, 20, thread * 10 + i))
                                .with_shots(8),
                            priority,
                        ),
                    );
                }
                // Poll-spin a little (exercising the status lock from many
                // threads), then block.
                for handle in &handles {
                    while !handle.is_finished() {
                        assert!(Instant::now() < deadline, "deadlock suspected");
                        match handle.poll() {
                            JobStatus::Failed => panic!("job failed"),
                            _ => std::thread::yield_now(),
                        }
                    }
                }
                for handle in handles {
                    handle.wait().expect("job succeeded");
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.submitted, 32);
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn persisted_then_reloaded_plan_cache_is_bit_identical_and_replans_nothing() {
    let dir = std::env::temp_dir().join(format!("hisvsim-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.json");
    std::fs::remove_file(&path).ok();

    let job = || {
        SimJob::new(generators::qft(12))
            .with_engine(EngineKind::Hier)
            .with_limit(6)
    };

    // Cold reference: no persistence anywhere.
    let cold = Scheduler::new(scaled_config(2)).run_batch(vec![job()]);
    let cold_state = cold.results[0].state.as_ref().unwrap().clone();

    // "Process 1": plan, execute, persist at shutdown.
    let first = SimService::start(
        ServiceConfig::new()
            .with_scheduler(scaled_config(2))
            .with_persistence(&path),
    );
    let state_one = first.submit(job()).wait().unwrap().state.unwrap();
    assert_eq!(first.cache_stats().misses, 1, "cold service plans once");
    first.shutdown().unwrap();
    assert!(path.exists(), "snapshot must be written at shutdown");

    // "Process 2": restart warm — the repeated batch replans 0 circuits.
    let second = SimService::start(
        ServiceConfig::new()
            .with_scheduler(scaled_config(2))
            .with_persistence(&path),
    );
    let handles: Vec<_> = (0..3).map(|_| second.submit(job())).collect();
    let mut warm_states = Vec::new();
    for handle in handles {
        let result = handle.wait().unwrap();
        assert!(result.plan_cache_hit, "warm restart must hit the cache");
        warm_states.push(result.state.unwrap());
    }
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 0, "a warm restart replans nothing");
    assert_eq!(stats.warm_hits, 1, "one disk rebuild, then memory hits");
    assert_eq!(stats.hits, 2);

    // Same partition + same fusion width ⇒ bit-identical amplitudes, both
    // across the restart and against the cold plan.
    for warm in &warm_states {
        assert_eq!(warm, &state_one, "restart changed the result");
        assert_eq!(warm, &cold_state, "warm plan diverged from a cold plan");
    }
    std::fs::remove_file(&path).ok();
}

/// A snapshot that does not parse — cut off mid-write, not JSON at all, or
/// written in an older format — costs a warning and a cold start, never the
/// service, and the next save replaces it whole without leaving its staging
/// file behind.
#[test]
fn an_unreadable_snapshot_starts_the_service_cold() {
    let dir = std::env::temp_dir().join(format!("hisvsim-bad-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let circuit = generators::qft(10);
    let expected = hisvsim_statevec::run_circuit(&circuit);
    let valid = dir.join("valid.json");
    let writer = SimService::start(
        ServiceConfig::new()
            .with_scheduler(scaled_config(1))
            .with_persistence(&valid),
    );
    writer.submit(SimJob::new(circuit.clone())).wait().unwrap();
    writer.shutdown().unwrap();
    let snapshot = std::fs::read(&valid).unwrap();
    std::fs::remove_file(&valid).unwrap();

    // The format before the cache held one plan shape: three key fields and
    // a tagged plan, one `Single` and one `Two`. Its `Single` entry is the
    // very partition, under the very key, the job plans: were it read, the
    // first job would hit.
    let relabeled = circuit.without_swaps();
    let dag = hisvsim_dag::CircuitDag::from_circuit(&relabeled);
    let single = hisvsim_runtime::Planner.plan_single(&dag, 10).unwrap();
    let two = hisvsim_runtime::Planner.plan_two_level(&dag, 9, 4).unwrap();
    let fingerprint = relabeled.fingerprint();
    let parent_format = format!(
        r#"[[{{"fingerprint":{fingerprint},"limit":10,"second_limit":0}},{{"Single":{}}}],[{{"fingerprint":{fingerprint},"limit":9,"second_limit":4}},{{"Two":{}}}]]"#,
        serde_json::to_string(&single).unwrap(),
        serde_json::to_string(&two).unwrap(),
    );
    let inputs: [(&str, &[u8]); 3] = [
        ("truncated.json", &snapshot[..snapshot.len() / 2]),
        ("not-json.json", b"plans: none\n"),
        ("parent-format.json", parent_format.as_bytes()),
    ];
    for (name, bytes) in inputs {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let service = SimService::start(
            ServiceConfig::new()
                .with_scheduler(scaled_config(1))
                .with_persistence(&path),
        );
        let result = service.submit(SimJob::new(circuit.clone())).wait().unwrap();
        assert!(!result.plan_cache_hit, "{name}: the first job must plan");
        assert!(result.state.unwrap().approx_eq(&expected, 1e-9), "{name}");
        assert_eq!(service.persist_plans().unwrap(), 1, "{name}");
        service.shutdown().unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(files, [name], "a save must leave only the snapshot");
        assert_eq!(
            PlanCache::new().load_snapshot(&path).unwrap(),
            1,
            "{name}: the save must replace the unreadable file"
        );
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A job's plan is a function of the job: with the span recorder on and
/// per-job trace artifacts kept (what `hisvsim-http serve --trace` runs), a
/// repeated job keeps hitting the plan it planned first, whatever the
/// process measured in between. 16 qubits, so every sweep is a recorded
/// span; the same QFT forced onto two ranks in the middle plans under a key
/// of its own (its limit is a rank's slice), and the same QFT with no engine
/// forced meets the same decision and plan as the hier jobs.
#[test]
fn traced_repeat_jobs_keep_their_plan_key_and_decision() {
    hisvsim_obs::set_enabled(true);
    let service = SimService::start(
        ServiceConfig::new()
            .with_scheduler(SchedulerConfig::default().with_workers(1))
            .with_trace_artifacts(true),
    );
    let qft = || SimJob::new(generators::qft(16)).with_engine(EngineKind::Hier);
    let run = |job: SimJob| service.submit(job).wait().expect("job must complete");
    let first = run(qft());
    let second = run(qft());
    // A forced dist job in between: two ranks of 15-qubit slices, planned
    // at limit 15, so it misses once and never meets the hier plan.
    let other = run(SimJob::new(generators::qft(16)).with_engine(EngineKind::Dist));
    let last = run(qft());
    // No engine forced: 16 qubits fit the default LLC budget, so the
    // selector gives the same circuit the decision the forced jobs got, and
    // their plan.
    let unforced = run(SimJob::new(generators::qft(16)));
    hisvsim_obs::set_enabled(false);

    assert_eq!(
        [
            first.plan_cache_hit,
            second.plan_cache_hit,
            last.plan_cache_hit
        ],
        [false, true, true],
        "the repeated job must plan once and hit ever after"
    );
    assert_eq!(
        format!("{:?}", first.decision),
        format!("{:?}", last.decision),
        "the same job got a different decision later in the process"
    );
    assert_eq!(other.engine, EngineKind::Dist);
    assert_eq!((other.decision.ranks, other.decision.limit), (2, 15));
    assert!(!other.plan_cache_hit);
    assert_eq!(
        format!("{:?}", unforced.decision),
        format!("{:?}", last.decision),
        "forcing the engine the selector picks anyway changed the decision"
    );
    assert!(unforced.plan_cache_hit);
    assert!(
        last.verdict.measured_execute_s > 0.0 && last.verdict.predicted_execute_s > 0.0,
        "the audit trail must carry a predicted-vs-measured verdict"
    );
    let cache = service.cache_stats();
    assert_eq!(
        (cache.misses, cache.hits, cache.entries),
        (2, 3, 2),
        "one miss and one entry for each of the two plans; every hit is the hier plan's"
    );
    service.shutdown().unwrap();
}

/// The CI smoke test (run under `timeout`): submit a batch, cancel half
/// mid-flight, assert every job reaches a terminal state and the service
/// drains cleanly on shutdown.
#[test]
fn smoke_submit_batch_cancel_half_drain_cleanly() {
    let service = service(2);
    let handles: Vec<_> = (0..10)
        .map(|i| {
            if i % 2 == 0 {
                service.submit(long_job())
            } else {
                service.submit(SimJob::new(generators::qft(7)).with_shots(8))
            }
        })
        .collect();
    // Cancel the even (long) half while the batch is in flight.
    for handle in handles.iter().step_by(2) {
        handle.cancel();
    }
    let mut cancelled = 0;
    let mut completed = 0;
    for (i, handle) in handles.iter().enumerate() {
        match handle.wait() {
            Ok(result) => {
                completed += 1;
                assert_eq!(i % 2, 1);
                assert_eq!(result.counts.values().sum::<usize>(), 8);
            }
            Err(JobFailure::Cancelled) => cancelled += 1,
            Err(other) => panic!("unexpected failure: {other}"),
        }
        assert!(handle.poll().is_terminal());
    }
    assert_eq!(cancelled, 5);
    assert_eq!(completed, 5);
    service.shutdown().expect("clean drain");
}

#[test]
fn deadline_fires_mid_run_and_surfaces_deadline_exceeded() {
    let service = service(1);
    let handle = service.submit(long_job().with_deadline(Duration::from_millis(150)));
    match handle.wait() {
        Err(JobFailure::Failed(message)) => {
            assert!(
                message.starts_with(hisvsim_service::DEADLINE_EXCEEDED),
                "expected a DeadlineExceeded failure, got: {message}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(handle.poll(), JobStatus::Failed);
    // The progress stream ends with the same Failed { DeadlineExceeded }.
    let mut saw_deadline_failure = false;
    while let Ok(event) = handle.progress().recv() {
        assert!(!matches!(event, JobEvent::Done | JobEvent::Cancelled));
        if let JobEvent::Failed { message } = event {
            assert!(message.starts_with(hisvsim_service::DEADLINE_EXCEEDED));
            saw_deadline_failure = true;
        }
    }
    assert!(saw_deadline_failure, "terminal Failed event missing");
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.cancelled, 0, "a deadline is not a user cancellation");
    service.shutdown().unwrap();
}

#[test]
fn two_hundred_deadlined_jobs_share_one_timer_thread() {
    // The ROADMAP-named scaling debt: every deadlined job used to park its
    // own watcher thread until it finalized. The deadline machinery now
    // owns a single min-heap timer thread, however many deadlines are
    // armed — and the deadlines must still fire on time.
    let service = service(1);
    assert_eq!(
        service.deadline_timer_threads(),
        0,
        "no timer thread before the first armed deadline"
    );

    // Block the only worker so every deadlined job expires while queued.
    let blocker = service.submit(long_job());
    let deadline = Duration::from_millis(200);
    let armed = Instant::now();
    let handles: Vec<_> = (0..200)
        .map(|_| service.submit(SimJob::new(generators::qft(6)).with_deadline(deadline)))
        .collect();
    assert_eq!(
        service.deadline_timer_threads(),
        1,
        "200 armed deadlines must share exactly one timer thread"
    );

    for handle in &handles {
        match handle.wait() {
            Err(JobFailure::Failed(message)) => {
                assert!(
                    message.starts_with(hisvsim_service::DEADLINE_EXCEEDED),
                    "expected DeadlineExceeded, got: {message}"
                );
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    // Tolerance: all 200 deadlines fired from one thread without serial
    // drift — well inside a few seconds of the 200 ms due time.
    let elapsed = armed.elapsed();
    assert!(
        elapsed >= deadline,
        "deadlines must not fire early ({elapsed:?})"
    );
    assert!(
        elapsed < deadline + Duration::from_secs(10),
        "deadlines drifted far past due ({elapsed:?})"
    );
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 200);
    assert_eq!(stats.failed, 200);

    blocker.cancel();
    let _ = blocker.wait();
    assert_eq!(service.deadline_timer_threads(), 1);
    service.shutdown().unwrap();
}

#[test]
fn shutdown_returns_promptly_with_far_future_deadlines_armed() {
    // Regression for the timer-shutdown handshake: a job that finishes
    // well inside a one-hour deadline leaves an inert entry in the
    // deadline heap; shutdown must wake the timer thread (no lost-wakeup
    // window) and join it promptly instead of sleeping out the hour.
    let service = service(2);
    let handle =
        service.submit(SimJob::new(generators::qft(7)).with_deadline(Duration::from_secs(3600)));
    handle.wait().expect("well within the deadline");
    assert_eq!(service.deadline_timer_threads(), 1);
    let start = Instant::now();
    service.shutdown().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "shutdown must not wait out armed deadlines ({:?})",
        start.elapsed()
    );
}

#[test]
fn deadline_expires_while_queued_behind_other_work() {
    // One worker, blocked by a long job: the deadlined job's timer fires
    // while it still sits in the queue.
    let service = service(1);
    let blocker = service.submit(long_job());
    await_planning(&blocker);
    let deadlined =
        service.submit(SimJob::new(generators::qft(7)).with_deadline(Duration::from_millis(100)));
    match deadlined.wait() {
        Err(JobFailure::Failed(message)) => {
            assert!(message.starts_with(hisvsim_service::DEADLINE_EXCEEDED));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The ended entry still sits in the heap until a worker skips it, but
    // it is not backlog, and the job is counted and downloadable the
    // moment `wait()` returns, with the blocker still running.
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.queue_depth, 0);
    assert_in_flight(&service, 1);
    let artifacts = service
        .job_artifacts(deadlined.id())
        .expect("a job timed out while queued has its artifact");
    assert_eq!(artifacts.outcome, "failed");
    assert!(service.job_trace_json(deadlined.id()).is_some());
    blocker.cancel();
    let _ = blocker.wait();
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    service.shutdown().unwrap();
}

#[test]
fn job_finishing_inside_its_deadline_is_untouched() {
    let service = service(2);
    let handle = service.submit(
        SimJob::new(generators::qft(7))
            .with_shots(16)
            .with_deadline(Duration::from_secs(60)),
    );
    let result = handle.wait().expect("well within the deadline");
    assert_eq!(result.counts.values().sum::<usize>(), 16);
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.completed, 1);
    service.shutdown().unwrap();
}

#[test]
fn metrics_text_exposes_service_and_cache_counters() {
    let service = service(2);
    service
        .submit(SimJob::new(generators::qft(7)))
        .wait()
        .unwrap();
    service
        .submit(SimJob::new(generators::qft(7)))
        .wait()
        .unwrap();
    let text = service.metrics_text();
    // Prometheus shape: HELP/TYPE per metric, then `name value`.
    assert!(text.contains("# TYPE hisvsim_service_jobs_submitted_total counter"));
    assert!(text.contains("hisvsim_service_jobs_submitted_total 2"));
    assert!(text.contains("hisvsim_service_jobs_completed_total 2"));
    assert!(text.contains("hisvsim_service_jobs_deadline_exceeded_total 0"));
    assert!(text.contains("# TYPE hisvsim_service_queue_depth gauge"));
    assert!(text.contains("hisvsim_service_queue_depth 0"));
    // Identical circuits: one miss, one memory hit.
    assert!(text.contains("hisvsim_plan_cache_misses_total 1"));
    assert!(text.contains("hisvsim_plan_cache_hits_total 1"));
    assert!(text.contains("hisvsim_plan_cache_hit_rate 0.5"));
    service.shutdown().unwrap();
}

/// Counter conservation under the deadline / cancel / complete race: a few
/// hundred small jobs with random short deadlines (or none) on two
/// workers, a thread cancelling a random third of them after a random
/// pause, and a sampler checking that every stats snapshot conserves jobs
/// exactly. After the drain, every job's artifact agrees with its `wait()`.
#[test]
fn counters_conserve_every_job_under_racing_deadlines_and_cancels() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    const JOBS: usize = 300;
    let service = SimService::start(
        ServiceConfig::new()
            .with_scheduler(scaled_config(2))
            .with_artifact_capacity(JOBS),
    );
    let conserved = |stats: ServiceStats| {
        assert_eq!(
            stats.submitted,
            (stats.queue_depth + stats.running) as u64
                + stats.completed
                + stats.cancelled
                + stats.failed,
            "a stats snapshot lost or doubled a job: {stats:?}"
        );
        assert!(stats.deadline_exceeded <= stats.failed, "{stats:?}");
    };
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let handles = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = 0u64;
            while !done.load(Ordering::SeqCst) {
                conserved(service.stats());
                samples += 1;
                std::thread::yield_now();
            }
            samples
        });
        let (to_canceller, received) = mpsc::channel::<JobHandle>();
        let canceller = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xca9ce1);
            let mut handles = Vec::new();
            for handle in received {
                if rng.gen_bool(1.0 / 3.0) {
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..200u64)));
                    handle.cancel();
                }
                handles.push(handle);
            }
            handles
        });
        let mut rng = StdRng::seed_from_u64(0xdead11);
        for i in 0..JOBS {
            let mut job = SimJob::new(generators::qft(rng.gen_range(6..13usize))).with_shots(4);
            if rng.gen_bool(0.7) {
                job = job.with_deadline(Duration::from_micros(rng.gen_range(0..20_000u64)));
            }
            to_canceller.send(service.submit(job)).unwrap();
            if i % 16 == 0 {
                conserved(service.stats());
            }
        }
        drop(to_canceller);
        let handles = canceller.join().unwrap();
        for handle in &handles {
            let _ = handle.wait();
        }
        done.store(true, Ordering::SeqCst);
        assert!(sampler.join().unwrap() > 0);
        handles
    });

    let stats = service.stats();
    conserved(stats);
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!((stats.queue_depth, stats.running), (0, 0));
    let (mut completed, mut cancelled, mut failed) = (0, 0, 0);
    for handle in &handles {
        let artifacts = service
            .job_artifacts(handle.id())
            .unwrap_or_else(|| panic!("job {} has no artifact", handle.id()));
        match handle.wait() {
            Ok(_) => {
                completed += 1;
                assert_eq!(artifacts.outcome, "done");
            }
            Err(JobFailure::Cancelled) => {
                cancelled += 1;
                assert_eq!(artifacts.outcome, "cancelled");
            }
            Err(JobFailure::Failed(message)) => {
                failed += 1;
                assert!(message.starts_with(hisvsim_service::DEADLINE_EXCEEDED));
                assert_eq!(artifacts.outcome, "failed");
                assert_eq!(artifacts.failure.as_deref(), Some(message.as_str()));
            }
        }
    }
    assert_eq!(
        (stats.completed, stats.cancelled, stats.failed),
        (completed, cancelled, failed)
    );
    assert_eq!(
        stats.deadline_exceeded, failed,
        "every failure was a deadline"
    );
    assert!(
        completed > 0 && cancelled > 0 && failed > 0,
        "every ending must be exercised: {stats:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the soak must stay cheap ({:?})",
        started.elapsed()
    );
    service.shutdown().unwrap();
}

/// Every `Executing` event of a job carries the submitted circuit's gate
/// count, though the runner drops the QFT's SWAPs at intake: they count as
/// done when the run ends, so the last event, the status and the artifact
/// all read `gates_done == gates_total`.
#[test]
fn a_relabeled_job_reports_the_submitted_gates_to_the_end() {
    let service = SimService::start(ServiceConfig::new());
    let circuit = generators::qft(12);
    let total = circuit.num_gates() as u64;
    assert!(circuit.without_swaps().num_gates() < circuit.num_gates());
    let handle = service.submit(SimJob::new(circuit));
    handle.wait().expect("the job completes");
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
    assert!(progress.len() >= 2, "{progress:?}");
    assert!(progress.iter().all(|&(_, t)| t == total), "{progress:?}");
    assert!(
        progress.windows(2).all(|w| w[0].0 <= w[1].0),
        "{progress:?}"
    );
    assert_eq!(progress.last(), Some(&(total, total)));
    let status = service.job_status(handle.id()).expect("a retained status");
    assert_eq!((status.gates_done, status.gates_total), (total, total));
    let artifacts = service.job_artifacts(handle.id()).expect("an artifact");
    assert_eq!(artifacts.gates_total, total);
    service.shutdown().unwrap();
}

/// A world-of-one job above one tile reports after every pass of its parts,
/// not once a part: the job's `Executing` events outnumber its parts, and
/// they, and so its status, never go backwards.
#[test]
fn a_partitioned_job_reports_progress_once_a_pass_and_never_backwards() {
    use hisvsim_core::{FusedPlan, FusedSinglePlan};
    use hisvsim_dag::CircuitDag;
    use hisvsim_partition::Strategy;

    let (n, limit) = (18, 14);
    let circuit = generators::random_circuit(n, 400, 3);
    let total = circuit.num_gates() as u64;
    // The plan the runner makes for the forced limit walks some part in
    // several passes.
    let relabeled = circuit.without_swaps();
    let dag = CircuitDag::from_circuit(&relabeled);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("admits every gate");
    let plan = FusedSinglePlan::new(&relabeled, &dag, partition);
    let schedule = FusedPlan::Single(&plan).schedule(n, 1);
    assert!(
        (schedule.entries.iter()).any(|entry| entry.in_place.len() > 1),
        "no part takes two passes"
    );

    let service = SimService::start(ServiceConfig::new());
    let job = SimJob::new(circuit)
        .with_engine(EngineKind::Hier)
        .with_limit(limit);
    let handle = service.submit(job);
    handle.wait().expect("the job completes");
    let done: Vec<u64> = (handle.progress().iter())
        .filter_map(|event| match event {
            JobEvent::Executing { gates_done, .. } => Some(gates_done),
            _ => None,
        })
        .collect();
    assert!(done.len() > schedule.entries.len(), "{done:?}");
    assert!(done.windows(2).all(|w| w[0] <= w[1]), "{done:?}");
    assert_eq!(done.last(), Some(&total));
    service.shutdown().unwrap();
}
