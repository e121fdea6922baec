//! `job_service` — the async job service end to end.
//!
//! Three demonstrations:
//!
//! 1. **Submit / poll / progress.** A mixed-priority workload through
//!    [`SimService`]: non-blocking submission, handle polling, the progress
//!    event stream, and per-job reporting including the engine's modelled
//!    communication share.
//! 2. **Mid-flight cancellation.** A large (default 28-qubit) hierarchical
//!    job is cancelled as soon as its progress stream shows execution under
//!    way; the service stops it at the next cooperative checkpoint and the
//!    wall time is compared against the projected uncancelled run.
//! 3. **Disk-backed warm start.** A service with persistence enabled plans
//!    a templated workload, shuts down (writing the plan-cache snapshot),
//!    and a "restarted" service replays the workload with **zero** planning
//!    misses and bit-identical amplitudes.
//!
//! Run with `cargo run --release --example job_service`.
//! `HISVSIM_SERVICE_QUBITS` overrides the cancellation-demo width
//! (default 28; use 16–20 on small machines).

use hisvsim_circuit::generators;
use hisvsim_runtime::{EngineKind, EngineSelector, SchedulerConfig, SimJob};
use hisvsim_service::prelude::*;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    submit_poll_progress();
    cancel_in_flight();
    warm_start();
}

/// Part 1: non-blocking submission, polling and the event stream.
fn submit_poll_progress() {
    println!("== submit / poll / progress ==");
    let service =
        SimService::start(ServiceConfig::new().with_scheduler(
            SchedulerConfig::default().with_selector(EngineSelector::scaled(6, 10)),
        ));

    let mut handles = Vec::new();
    for (width, priority) in [
        (11usize, JobPriority::Low),
        (8, JobPriority::Normal),
        (11, JobPriority::High),
        (11, JobPriority::Normal), // repeats the Low job's structure: cache hit
        (9, JobPriority::Normal),
    ] {
        let job = SimJob::new(generators::qft(width)).with_shots(128);
        handles.push((priority, service.submit_with_priority(job, priority)));
    }
    // All submissions returned immediately; poll while the pool works.
    let queued_now = handles.iter().filter(|(_, h)| !h.is_finished()).count();
    println!(
        "submitted {} jobs ({queued_now} still pending right after submit)",
        handles.len()
    );

    println!(
        "{:>4} {:>8} {:<12} {:>11} {:>9} {:>6} {:>10}",
        "job", "priority", "circuit", "engine", "wall", "plan", "comm bytes"
    );
    for (priority, handle) in &handles {
        let result = handle.wait().expect("job succeeded");
        println!(
            "{:>4} {:>8} {:<12} {:>11} {:>7.1} ms {:>6} {:>10}",
            handle.id(),
            format!("{priority:?}"),
            result.circuit_name,
            result.engine.name(),
            result.wall_time_s * 1e3,
            if result.plan_cache_hit { "hit" } else { "miss" },
            result.comm_stats().bytes_sent,
        );
    }
    // One job's full event history.
    let (_, last) = handles.last().unwrap();
    let events: Vec<JobEvent> = {
        let rx = last.progress();
        let mut out = Vec::new();
        while let Ok(e) = rx.try_recv() {
            out.push(e);
        }
        out
    };
    println!("job {} lifecycle: {events:?}", last.id());
    let stats = service.stats();
    println!(
        "service: {} submitted, {} completed; cache {:?}\n",
        stats.submitted,
        stats.completed,
        service.cache_stats()
    );
}

/// Part 2: cancel a large in-flight job between fused parts.
fn cancel_in_flight() {
    // At least 20 qubits: a narrower job (a 16-qubit state is one L2 tile
    // and is swept in place, ~3 ms) can finish before the cancel lands.
    let qubits = env_usize("HISVSIM_SERVICE_QUBITS", 28).max(20);
    let limit = env_usize(
        "HISVSIM_SERVICE_LIMIT",
        qubits.saturating_sub(8).clamp(5, 21),
    );
    println!("== mid-flight cancellation: {qubits}-qubit QFT (hier, limit {limit}) ==");
    let service = SimService::start(
        ServiceConfig::new().with_scheduler(SchedulerConfig::default().with_workers(1)),
    );

    let submit_time = Instant::now();
    let handle = service.submit(
        SimJob::new(generators::qft(qubits))
            .with_engine(EngineKind::Hier)
            .with_limit(limit),
    );
    let events = handle.progress();

    // Follow the stream; cancel as soon as real execution progress shows.
    let mut exec_started_at = None;
    let mut last_fraction = 0.0f64;
    while let Ok(event) = events.recv() {
        match event {
            JobEvent::Planning | JobEvent::Queued => {}
            JobEvent::PlanReady { cache_hit } => {
                println!(
                    "  [{:7.2} s] plan ready ({})",
                    submit_time.elapsed().as_secs_f64(),
                    if cache_hit { "cache hit" } else { "planned" }
                );
            }
            JobEvent::Executing {
                gates_done,
                gates_total,
            } => {
                let now = Instant::now();
                let started = *exec_started_at.get_or_insert(now);
                last_fraction = gates_done as f64 / gates_total.max(1) as f64;
                println!(
                    "  [{:7.2} s] executing: {gates_done}/{gates_total} gates ({:.0}%)",
                    submit_time.elapsed().as_secs_f64(),
                    100.0 * last_fraction
                );
                if gates_done > 0 {
                    println!(
                        "  cancelling after {:.2} s of execution…",
                        now.duration_since(started).as_secs_f64()
                    );
                    handle.cancel();
                }
            }
            JobEvent::Cancelled => {
                println!(
                    "  [{:7.2} s] cancelled (status {:?})",
                    submit_time.elapsed().as_secs_f64(),
                    handle.poll()
                );
            }
            other => println!("  event: {other:?}"),
        }
    }
    assert!(
        matches!(handle.wait(), Err(JobFailure::Cancelled)),
        "the demo job must end cancelled"
    );
    let wall = submit_time.elapsed().as_secs_f64();
    if let Some(started) = exec_started_at {
        let exec_s = started.elapsed().as_secs_f64();
        if last_fraction > 0.0 {
            println!(
                "cancelled at {:.0}% through execution: {wall:.2} s wall vs \
                 ~{:.2} s projected uncancelled ({:.1}x saved)\n",
                100.0 * last_fraction,
                exec_s / last_fraction,
                1.0 / last_fraction
            );
        } else {
            println!("cancelled before the first part completed ({wall:.2} s wall)\n");
        }
    }
}

/// Part 3: plan-cache persistence across a service restart.
fn warm_start() {
    println!("== disk-backed warm start ==");
    let qubits = env_usize("HISVSIM_SERVICE_QUBITS", 28).min(20);
    let path = std::env::temp_dir().join("hisvsim-job-service-plans.json");
    std::fs::remove_file(&path).ok();
    let config = || {
        ServiceConfig::new()
            .with_scheduler(
                SchedulerConfig::default().with_selector(EngineSelector::scaled(10, qubits)),
            )
            .with_persistence(&path)
    };
    let template = generators::qft(qubits);

    // "Process 1": plan the template, execute, persist.
    let first = SimService::start(config());
    let start = Instant::now();
    let baseline = first.submit(SimJob::new(template.clone())).wait().unwrap();
    let cold_s = start.elapsed().as_secs_f64();
    let persisted = first.persist_plans().expect("snapshot written");
    drop(first); // shutdown also persists; explicit call shows the count
    println!(
        "cold run: {cold_s:.3} s (plan {:.3} s), {persisted} plan(s) persisted",
        baseline.plan_time_s
    );

    // "Process 2": a fresh service, warm from disk — replans nothing.
    let second = SimService::start(config());
    let start = Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|_| second.submit(SimJob::new(template.clone())))
        .collect();
    let mut identical = true;
    for handle in handles {
        let result = handle.wait().unwrap();
        assert!(result.plan_cache_hit, "warm restart must not replan");
        identical &= result.state.as_ref() == baseline.state.as_ref();
    }
    let warm_s = start.elapsed().as_secs_f64();
    let stats = second.cache_stats();
    println!(
        "warm restart: 4 jobs in {warm_s:.3} s — {} planning misses, {} disk rebuild(s), \
         {} memory hit(s); amplitudes bit-identical to the cold run: {identical}",
        stats.misses, stats.warm_hits, stats.hits
    );
    assert_eq!(stats.misses, 0, "a warm restart replans nothing");
    assert!(identical, "persistence must not change results");
    std::fs::remove_file(&path).ok();
}
