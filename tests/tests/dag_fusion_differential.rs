//! The cross-engine differential suite for DAG-driven fusion, the one way
//! every engine fuses. Every case runs through all four engines via the
//! shared harness [`hisvsim_integration_tests::assert_all_engines_bit_identical`]:
//! agreement with the flat reference within tolerance, and bitwise
//! run-to-run and dispatch reproducibility (the property the plan cache and
//! the process workers rely on). The test names keep the ids they had while
//! fusion had a window and an auto form beside the DAG one.

use hisvsim_circuit::generators;
use hisvsim_integration_tests::{
    assert_all_engines_bit_identical, prop_layered_interleaved, prop_random_interleaved,
    random_interleaved,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The adversarial distribution: the `random` interleaved family, whose
    // mergeable gates sit far apart in program order.
    #[test]
    fn random_interleaved_family_all_engines_all_strategies(
        circuit in prop_random_interleaved()
    ) {
        assert_all_engines_bit_identical(&circuit);
    }

    // Long-dependency-chain circuits: every mergeable pair is separated by
    // a full register sweep.
    #[test]
    fn layered_interleaved_family_all_engines_all_strategies(
        circuit in prop_layered_interleaved()
    ) {
        assert_all_engines_bit_identical(&circuit);
    }
}

/// Fixed benchmark families, layered and interleaved.
#[test]
fn benchmark_families_differential_with_auto() {
    for name in ["qft", "qaoa", "ising", "grover"] {
        assert_all_engines_bit_identical(&generators::by_name(name, 8));
    }
}

/// The deep `random` family at benchmark-like depth (scaled down to a
/// testable width): the fused output must match flat across all engines
/// even when the circuit is hundreds of gates deep.
#[test]
fn deep_random_family_differential() {
    assert_all_engines_bit_identical(&random_interleaved(9, 9 * 48, 0x5EED));
}
