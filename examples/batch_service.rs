//! `batch_service` — the runtime serving a mixed workload.
//!
//! Two demonstrations:
//!
//! 1. **Mixed batch.** QFT, GHZ and random circuits at several widths, some
//!    repeated, through the concurrent scheduler: per-job engine choice,
//!    wall time and plan-cache outcome, plus the batch summary.
//! 2. **Cold batch, then warm.** 8 distinct random 20-qubit circuits run
//!    twice on one scheduler: the first batch plans every job (8 misses),
//!    the repeat is served from the plan cache (8 hits), and the speedup
//!    is what planning costs; every runtime result is cross-checked against
//!    the flat reference simulator.
//!
//! Run with `cargo run --release --example batch_service`.
//! `HISVSIM_BATCH_QUBITS` overrides the second part's width (default 20).

use hisvsim_circuit::generators;
use hisvsim_runtime::prelude::*;
use hisvsim_statevec::run_circuit;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    mixed_batch();
    cold_then_warm();
}

/// Part 1: a heterogeneous batch with per-job reporting.
fn mixed_batch() {
    println!("== mixed workload through the scheduler ==");
    let scheduler =
        Scheduler::new(SchedulerConfig::default().with_selector(EngineSelector::scaled(6, 10)));

    let mut jobs = Vec::new();
    for width in [5usize, 8, 11] {
        jobs.push(SimJob::new(generators::qft(width)));
        jobs.push(SimJob::new(generators::cat_state(width)).with_shots(256));
    }
    // Templated submissions: the same 11-qubit QFT structure again (cache
    // hits), and random circuits (distinct structures, misses).
    jobs.push(SimJob::new(generators::qft(11)));
    jobs.push(SimJob::new(generators::qft(11)));
    for seed in 0..3 {
        jobs.push(SimJob::new(generators::random_circuit(9, 60, seed)));
    }

    let batch = scheduler.run_batch(jobs);
    println!(
        "{:<12} {:>7} {:>11} {:>11} {:>7}",
        "circuit", "qubits", "engine", "wall", "plan"
    );
    for r in &batch.results {
        println!(
            "{:<12} {:>7} {:>11} {:>9.1} ms {:>7}",
            r.circuit_name,
            r.report.num_qubits,
            r.engine.name(),
            r.wall_time_s * 1e3,
            // Every auto-routed job has a plan: a circuit within the cache
            // budget is one part, cached like any partition.
            if r.plan_cache_hit { "hit" } else { "miss" }
        );
    }
    println!("{}", batch.stats);
}

/// Part 2: a cold batch of distinct circuits, then the same batch again.
fn cold_then_warm() {
    let qubits = env_usize("HISVSIM_BATCH_QUBITS", 20);
    let copies = 8u64;
    println!("== plan cache: {copies} distinct random {qubits}-qubit jobs, cold then warm ==");

    let circuits: Vec<_> = (0..copies)
        .map(|seed| generators::random_circuit(qubits, 10 * qubits, seed))
        .collect();
    // Forced hier with a cache budget of 12 qubits: each job is planned at
    // limit 12, so each cold job pays a DAG build, a dagP call and the
    // fusion of every part that its warm repeat finds in the cache.
    let make_jobs = || -> Vec<SimJob> {
        (circuits.iter().cloned())
            .map(|circuit| SimJob::new(circuit).with_engine(EngineKind::Hier))
            .collect()
    };
    let scheduler = Scheduler::new(
        SchedulerConfig::default().with_selector(EngineSelector::scaled(12, qubits.max(12))),
    );

    let start = Instant::now();
    let cold_batch = scheduler.run_batch(make_jobs());
    let cold_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let warm_batch = scheduler.run_batch(make_jobs());
    let warm_s = start.elapsed().as_secs_f64();

    // Correctness first: every runtime result must match the flat reference.
    for batch in [&cold_batch, &warm_batch] {
        for (r, circuit) in batch.results.iter().zip(&circuits) {
            let reference = run_circuit(circuit);
            let state = r.state.as_ref().expect("states retained");
            assert!(
                state.approx_eq(&reference, 1e-9),
                "job {} ({}) diverged from the flat reference (max |Δ| = {:.3e})",
                r.job_index,
                r.engine,
                state.max_abs_diff(&reference)
            );
        }
    }
    println!(
        "all {} runtime results match the flat reference within 1e-9",
        2 * copies
    );

    for (name, seconds, batch) in [("cold", cold_s, &cold_batch), ("warm", warm_s, &warm_batch)] {
        println!(
            "{name}: {seconds:.3} s  ({} plan misses, {} hits, {:.3} s planning)",
            batch.stats.cache.misses, batch.stats.cache.hits, batch.stats.plan_time_s
        );
    }
    println!(
        "warm hit rate: {:.0}%  |  batch speedup from plan caching: {:.2}x",
        100.0 * warm_batch.stats.cache_hit_rate(),
        cold_s / warm_s
    );
}
