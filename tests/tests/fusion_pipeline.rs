//! The fused execution pipeline, cross-crate: property tests that
//! [`FusedCircuit`] execution matches the flat reference through every
//! engine's entry point, and a regression test that fused plans served from
//! a warm `PlanCache` are bit-identical to cold planning.

use hisvsim_circuit::generators;
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, HierConfig, HierarchicalSimulator,
    IqsBaseline, MultilevelConfig, MultilevelSimulator,
};
use hisvsim_runtime::prelude::*;
use hisvsim_statevec::{run_circuit, ApplyOptions, FusedCircuit};
use proptest::prelude::*;

/// Strategy: a random circuit described by (qubits, gates, seed).
fn circuit_params() -> impl proptest::strategy::Strategy<Value = (usize, usize, u64)> {
    (4usize..8, 8usize..50, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_circuit_matches_flat_at_every_width(
        (qubits, gates, seed) in circuit_params(),
        width in 1usize..6,
    ) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let expected = run_circuit(&circuit);
        let fused = FusedCircuit::new(&circuit, width);
        let total: usize = fused.ops().iter().map(|op| op.fused_count()).sum();
        prop_assert_eq!(total, circuit.num_gates(), "gates lost in fusion");
        for opts in [ApplyOptions::sequential(), ApplyOptions::default()] {
            let got = fused.run(&opts);
            prop_assert!(
                got.approx_eq(&expected, 1e-9),
                "width {width} threshold={} diverges: max diff {}",
                opts.parallel_threshold,
                got.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn every_engine_runs_fused_by_default_and_matches_flat(
        (qubits, gates, seed) in circuit_params(),
    ) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let expected = run_circuit(&circuit);
        let limit = (qubits / 2).max(3).min(qubits);

        let hier = HierarchicalSimulator::new(HierConfig::new(limit))
            .run(&circuit)
            .unwrap();
        prop_assert!(hier.state.approx_eq(&expected, 1e-9), "hier diverged");

        let dist = DistributedSimulator::new(DistConfig::new(4))
            .run(&circuit)
            .unwrap();
        prop_assert!(dist.state.approx_eq(&expected, 1e-9), "dist diverged");

        let ml = MultilevelSimulator::new(MultilevelConfig::new(2, limit))
            .run(&circuit)
            .unwrap();
        prop_assert!(ml.state.approx_eq(&expected, 1e-9), "multilevel diverged");

        let baseline = IqsBaseline::new(BaselineConfig::new(2)).run(&circuit);
        prop_assert!(baseline.state.approx_eq(&expected, 1e-9), "baseline diverged");
    }
}

/// Regression: a fused plan retrieved from a warm `PlanCache` must produce
/// results bit-identical to the cold-planned run — same partition, same
/// fused matrices, same execution order, so the floating-point streams are
/// exactly equal.
#[test]
fn warm_plan_cache_results_are_bit_identical_to_cold() {
    let scheduler = Scheduler::new(
        SchedulerConfig::default()
            .with_workers(2)
            .with_selector(EngineSelector::scaled(4, 8)),
    );
    for (name, n) in [("qft", 7usize), ("ising", 9), ("grover", 6)] {
        let circuit = generators::by_name(name, n);
        let cold = scheduler.run_batch(vec![SimJob::new(circuit.clone())]);
        let warm = scheduler.run_batch(vec![SimJob::new(circuit.clone())]);
        assert!(
            !cold.results[0].plan_cache_hit,
            "{name}: first submission must plan"
        );
        assert!(
            warm.results[0].plan_cache_hit,
            "{name}: second submission must hit the warm cache"
        );
        assert_eq!(cold.results[0].engine, warm.results[0].engine);
        assert_eq!(
            cold.results[0].state, warm.results[0].state,
            "{name}: warm-cache execution diverged from cold planning"
        );
        assert!(cold.results[0]
            .state
            .as_ref()
            .unwrap()
            .approx_eq(&run_circuit(&circuit), 1e-9));
    }
}
