//! Property-based tests over the core data structures and invariants:
//! random circuits, random partitioning limits, random rank counts — the
//! hierarchical/distributed engines must always agree with the flat
//! reference, partitions must always validate, and serialisation must
//! round-trip.

use hisvsim_circuit::{generators, qasm, Circuit};
use hisvsim_core::{DistConfig, DistributedSimulator, HierConfig, HierarchicalSimulator};
use hisvsim_dag::{CircuitDag, PartGraph};
use hisvsim_partition::Strategy;
use hisvsim_statevec::{run_circuit, GatherMap, StateVector};
use proptest::prelude::*;

/// Strategy: a random circuit described by (qubits, gates, seed).
fn circuit_params() -> impl proptest::strategy::Strategy<Value = (usize, usize, u64)> {
    (3usize..8, 5usize..60, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hierarchical_always_matches_flat((qubits, gates, seed) in circuit_params(), limit_frac in 2usize..4) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let limit = (qubits / limit_frac).max(2);
        let expected = run_circuit(&circuit);
        let run = HierarchicalSimulator::new(HierConfig::new(limit))
            .run(&circuit)
            .unwrap();
        prop_assert!(run.state.approx_eq(&expected, 1e-9),
            "max diff {}", run.state.max_abs_diff(&expected));
    }

    #[test]
    fn distributed_always_matches_flat((qubits, gates, seed) in circuit_params(), log_ranks in 0u32..3) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let ranks = 1usize << log_ranks.min(qubits as u32 - 2);
        let expected = run_circuit(&circuit);
        let run = DistributedSimulator::new(DistConfig::new(ranks)).run(&circuit).unwrap();
        prop_assert!(run.state.approx_eq(&expected, 1e-9),
            "ranks={ranks}, max diff {}", run.state.max_abs_diff(&expected));
    }

    #[test]
    fn partitions_always_validate_and_are_acyclic((qubits, gates, seed) in circuit_params(), limit in 2usize..8) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let dag = CircuitDag::from_circuit(&circuit);
        for strategy in Strategy::ALL {
            match strategy.partition(&dag, limit) {
                Ok(p) => {
                    prop_assert!(p.validate(&dag, limit).is_ok());
                    prop_assert!(PartGraph::build(&dag, &p).is_acyclic());
                    // every gate is covered exactly once
                    prop_assert_eq!(p.num_gates(), circuit.num_gates());
                    prop_assert!(p.max_working_set(&dag) <= limit);
                }
                Err(_) => {
                    // Only acceptable when some gate's arity exceeds the limit.
                    let max_arity = circuit.gates().iter().map(|g| g.arity()).max().unwrap_or(0);
                    prop_assert!(max_arity > limit);
                }
            }
        }
    }

    #[test]
    fn unitarity_is_preserved_by_every_engine((qubits, gates, seed) in circuit_params()) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let run = HierarchicalSimulator::new(HierConfig::new((qubits / 2).max(2)))
            .run(&circuit)
            .unwrap();
        prop_assert!((run.state.norm_sqr() - 1.0).abs() < 1e-9);
        prop_assert!(run.state.is_finite());
    }

    #[test]
    fn gather_scatter_roundtrip_is_identity(qubits in 2usize..8, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        // random non-empty subset of qubits as the part working set
        let mut part: Vec<usize> = (0..qubits).filter(|_| rng.gen_bool(0.5)).collect();
        if part.is_empty() {
            part.push(rng.gen_range(0..qubits));
        }
        let circuit = generators::random_circuit(qubits, 20, seed);
        let original = run_circuit(&circuit);
        let map = GatherMap::new(qubits, &part);
        let mut rebuilt = StateVector::uninitialized(qubits);
        for assignment in 0..(1usize << map.num_free_qubits()) {
            let inner = map.gather(&original, assignment);
            map.scatter(&inner, &mut rebuilt, assignment);
        }
        prop_assert!(rebuilt.approx_eq(&original, 0.0));
    }

    #[test]
    fn qasm_roundtrip_preserves_random_circuits((qubits, gates, seed) in circuit_params()) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let text = qasm::to_qasm(&circuit);
        let parsed = qasm::parse_qasm(&text).unwrap();
        prop_assert_eq!(parsed.num_qubits(), circuit.num_qubits());
        prop_assert_eq!(parsed.num_gates(), circuit.num_gates());
        // The parsed circuit must be *functionally* identical.
        let a = run_circuit(&circuit);
        let b = run_circuit(&parsed);
        prop_assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn inverse_circuit_restores_the_initial_state((qubits, gates, seed) in circuit_params()) {
        let circuit = generators::random_circuit(qubits, gates, seed);
        let mut full = Circuit::new(qubits);
        full.extend(&circuit);
        full.extend(&circuit.inverse());
        let state = run_circuit(&full);
        let zero = StateVector::zero_state(qubits);
        prop_assert!(state.approx_eq(&zero, 1e-8));
    }
}
