//! The cross-engine differential suite for DAG-driven fusion — the
//! correctness backstop of the `FusionStrategy` work. Every case runs
//! through all four engines × {Window, Dag} × fusion widths via the shared
//! harness [`hisvsim_integration_tests::assert_all_engines_bit_identical`]:
//! agreement with the flat reference within tolerance, and bitwise
//! run-to-run reproducibility of every configuration (the property the
//! plan cache and the process workers rely on).

use hisvsim_circuit::generators;
use hisvsim_integration_tests::{
    assert_all_engines_bit_identical, prop_layered_interleaved, prop_random_interleaved,
    random_interleaved, reference_state, TOL,
};
use hisvsim_statevec::{ApplyOptions, FusedCircuit, FusionStrategy};
use proptest::prelude::*;

const STRATEGIES: [FusionStrategy; 2] = [FusionStrategy::Window, FusionStrategy::Dag];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The adversarial distribution: the `random` interleaved family, the
    // workload DAG fusion exists for.
    #[test]
    fn random_interleaved_family_all_engines_all_strategies(
        circuit in prop_random_interleaved()
    ) {
        assert_all_engines_bit_identical(&circuit, &[1, 3], &STRATEGIES);
    }

    // Long-dependency-chain circuits: every mergeable pair is separated by
    // a full register sweep, maximally hostile to the bounded window.
    #[test]
    fn layered_interleaved_family_all_engines_all_strategies(
        circuit in prop_layered_interleaved()
    ) {
        assert_all_engines_bit_identical(&circuit, &[1, 3], &STRATEGIES);
    }
}

/// Fixed benchmark families at a few widths, including `Auto` (which must
/// resolve deterministically to one of the two concrete strategies).
#[test]
fn benchmark_families_differential_with_auto() {
    for name in ["qft", "qaoa", "ising", "grover"] {
        let circuit = generators::by_name(name, 8);
        assert_all_engines_bit_identical(
            &circuit,
            &[1, 2, 3],
            &[
                FusionStrategy::Window,
                FusionStrategy::Dag,
                FusionStrategy::Auto,
            ],
        );
    }
}

/// The deep `random` family at benchmark-like depth (scaled down to a
/// testable width): Dag-fused output must match flat across all engines
/// even when the circuit is hundreds of gates deep.
#[test]
fn deep_random_family_differential() {
    let circuit = random_interleaved(9, 9 * 48, 0x5EED);
    assert_all_engines_bit_identical(&circuit, &[1, 3], &STRATEGIES);
}

/// `Auto` resolves to exactly one of the concrete strategies and its
/// output is bit-identical to that strategy's own build — no third
/// behaviour hides behind the knob.
#[test]
fn auto_is_bit_identical_to_its_resolved_strategy() {
    for (qubits, gates, seed) in [(8usize, 120usize, 1u64), (8, 40, 2), (7, 200, 3)] {
        let circuit = random_interleaved(qubits, gates, seed);
        let auto = FusedCircuit::with_strategy(&circuit, 3, FusionStrategy::Auto);
        let resolved = auto.strategy();
        assert_ne!(resolved, FusionStrategy::Auto, "auto must resolve");
        let concrete = FusedCircuit::with_strategy(&circuit, 3, resolved);
        let opts = ApplyOptions::sequential();
        assert_eq!(
            auto.run(&opts),
            concrete.run(&opts),
            "auto output must be bit-identical to its resolved strategy"
        );
        assert!(auto.run(&opts).approx_eq(&reference_state(&circuit), TOL));
    }
}
