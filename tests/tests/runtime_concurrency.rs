//! Integration tests of the batch runtime: N heterogeneous jobs over M
//! workers must reproduce the flat reference simulator exactly (within the
//! workspace tolerance), the plan cache must account hits correctly, and the
//! memory bound must never deadlock the pool.

use hisvsim_circuit::generators;
use hisvsim_integration_tests::{assert_states_match, reference_state, TOL};
use hisvsim_runtime::prelude::*;

/// A mixed workload touching every selector tier and several circuit
/// families, some repeated (templated), some random.
fn heterogeneous_jobs() -> Vec<SimJob> {
    let mut jobs = vec![
        SimJob::new(generators::qft(4)),              // one-part hier tier
        SimJob::new(generators::by_name("ising", 7)), // hier tier
        SimJob::new(generators::qft(9)),              // distributed tier
        SimJob::new(generators::qft(9)),              // repeat: plan cache hit
        SimJob::new(generators::by_name("bv", 8)).with_shots(256),
        SimJob::new(generators::cat_state(8)).with_observables(vec![0, 7]),
        SimJob::new(generators::by_name("qaoa", 8)),
        SimJob::new(generators::grover(7, 2, 3)),
    ];
    for seed in 0..4 {
        jobs.push(SimJob::new(generators::random_circuit(7, 40, seed)));
    }
    jobs
}

fn scaled_scheduler(workers: usize, max_resident: usize) -> Scheduler {
    Scheduler::new(
        SchedulerConfig::default()
            .with_workers(workers)
            .with_max_resident(max_resident)
            .with_selector(EngineSelector::scaled(4, 8)),
    )
}

#[test]
fn heterogeneous_batch_matches_flat_reference_across_worker_counts() {
    let jobs = heterogeneous_jobs();
    let expected: Vec<_> = jobs.iter().map(|j| reference_state(&j.circuit)).collect();

    for workers in [1usize, 3, 8] {
        let scheduler = scaled_scheduler(workers, workers);
        let batch = scheduler.run_batch(jobs.clone());
        assert_eq!(batch.results.len(), jobs.len());
        for (result, expected) in batch.results.iter().zip(&expected) {
            assert_eq!(result.job_index, batch.results[result.job_index].job_index);
            assert_states_match(
                &format!(
                    "workers={workers} job={} engine={}",
                    result.job_index, result.engine
                ),
                result.state.as_ref().expect("states retained by default"),
                expected,
            );
        }
        // The repeated qft(9) must be served from the plan cache.
        assert!(
            batch.stats.cache.hits >= 1,
            "workers={workers}: expected ≥1 plan-cache hit, got {:?}",
            batch.stats.cache
        );
    }
}

#[test]
fn memory_bound_stricter_than_worker_count_still_completes() {
    // 8 workers but only 2 jobs may hold state at once: the semaphore must
    // throttle, not deadlock, and results must stay correct.
    let jobs = heterogeneous_jobs();
    let expected: Vec<_> = jobs.iter().map(|j| reference_state(&j.circuit)).collect();
    let scheduler = scaled_scheduler(8, 2);
    let batch = scheduler.run_batch(jobs);
    for (result, expected) in batch.results.iter().zip(&expected) {
        assert_states_match(
            &format!("K=2 job={}", result.job_index),
            result.state.as_ref().unwrap(),
            expected,
        );
    }
}

#[test]
fn second_identical_submission_hits_the_cache_with_identical_amplitudes() {
    let scheduler = scaled_scheduler(2, 2);
    let circuit = generators::qft(8);

    let first = scheduler.run_batch(vec![SimJob::new(circuit.clone())]);
    assert!(!first.results[0].plan_cache_hit, "cold cache must plan");

    let second = scheduler.run_batch(vec![SimJob::new(circuit.clone())]);
    assert!(second.results[0].plan_cache_hit, "warm cache must hit");
    assert!(second.stats.cache_hit_rate() > 0.0);

    // Identical plan ⇒ identical gate schedule ⇒ bitwise identical result.
    assert_eq!(
        first.results[0].state.as_ref().unwrap(),
        second.results[0].state.as_ref().unwrap(),
    );
    assert_states_match(
        "cached run vs flat reference",
        second.results[0].state.as_ref().unwrap(),
        &reference_state(&circuit),
    );
}

#[test]
fn sampling_and_observables_survive_concurrency() {
    // Shots and expectations are computed per job on worker threads; verify
    // they match a direct measurement of the reference state.
    let scheduler = scaled_scheduler(4, 4);
    let circuit = generators::by_name("bv", 9);
    let batch = scheduler.run_batch(vec![
        SimJob::new(circuit.clone()).with_shots(512).with_seed(42),
        SimJob::new(circuit.clone()).with_observables((0..9).collect()),
    ]);

    // BV ends in a computational basis state on the data register: sampling
    // must concentrate on one outcome modulo the ancilla qubit.
    let counts = &batch.results[0].counts;
    assert_eq!(counts.values().sum::<usize>(), 512);
    let data_patterns: std::collections::BTreeSet<usize> =
        counts.keys().map(|k| k & ((1 << 8) - 1)).collect();
    assert_eq!(data_patterns.len(), 1, "BV data register is deterministic");

    let expected = reference_state(&circuit);
    for &(q, z) in &batch.results[1].z_expectations {
        let direct = hisvsim_statevec::measure::expectation_z(&expected, q);
        assert!((z - direct).abs() < TOL, "qubit {q}: {z} vs {direct}");
    }
}
