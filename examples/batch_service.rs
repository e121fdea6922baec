//! `batch_service` — the runtime serving a mixed workload.
//!
//! Two demonstrations:
//!
//! 1. **Mixed batch.** QFT, GHZ and random circuits at several widths, some
//!    repeated, through the concurrent scheduler: per-job engine choice,
//!    wall time and plan-cache outcome, plus the batch summary.
//! 2. **Plan-cache ablation.** A templated workload (8 identical 20-qubit
//!    QFT jobs) run with the cache enabled vs disabled, reporting the
//!    speedup; every runtime result is cross-checked against the flat
//!    reference simulator.
//!
//! Run with `cargo run --release --example batch_service`.
//! `HISVSIM_BATCH_QUBITS` overrides the ablation width (default 20).

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
    cache_ablation();
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

/// Part 2: the cache ablation on a templated 20-qubit QFT workload.
fn cache_ablation() {
    let qubits = env_usize("HISVSIM_BATCH_QUBITS", 20);
    let copies = 8usize;
    println!("== plan-cache ablation: {copies} identical {qubits}-qubit QFT jobs ==");

    let circuit = generators::qft(qubits);
    let make_jobs =
        || -> Vec<SimJob> { (0..copies).map(|_| SimJob::new(circuit.clone())).collect() };
    let config = |cached: bool| {
        // Cache budget 12 qubits, node budget ≥ the circuit: the selector
        // routes these jobs to the hierarchical engine at limit 12, so each
        // uncached job pays a DAG build, a dagP call and the fusion of every
        // part that the cached batch pays once.
        let base =
            SchedulerConfig::default().with_selector(EngineSelector::scaled(12, qubits.max(12)));
        if cached {
            base
        } else {
            base.without_cache()
        }
    };

    let start = Instant::now();
    let warm = Scheduler::new(config(true));
    let cached_batch = warm.run_batch(make_jobs());
    let cached_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let cold = Scheduler::new(config(false));
    let uncached_batch = cold.run_batch(make_jobs());
    let uncached_s = start.elapsed().as_secs_f64();

    // Correctness first: every runtime result must match the flat reference.
    let reference = run_circuit(&circuit);
    for batch in [&cached_batch, &uncached_batch] {
        for r in &batch.results {
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

    println!(
        "with cache:    {:.3} s  ({} plan misses, {} hits, {:.3} s planning)",
        cached_s,
        cached_batch.stats.cache.misses,
        cached_batch.stats.cache.hits,
        cached_batch.stats.plan_time_s
    );
    println!(
        "without cache: {:.3} s  ({:.3} s planning)",
        uncached_s, uncached_batch.stats.plan_time_s
    );
    println!(
        "cache hit rate: {:.0}%  |  batch speedup from plan caching: {:.2}x",
        100.0 * cached_batch.stats.cache_hit_rate(),
        uncached_s / cached_s
    );
}
