//! Shared helpers for the cross-crate integration tests, including the
//! cross-engine differential harness backing the DAG-fusion work: every
//! engine, checked against the flat reference and for bitwise run-to-run
//! and dispatch reproducibility.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, HierConfig, HierarchicalSimulator,
    IqsBaseline, MultilevelConfig, MultilevelSimulator,
};
use hisvsim_statevec::{run_circuit, KernelDispatch, StateVector};
use proptest::prelude::*;

/// Tolerance used when comparing engine outputs against the flat reference.
pub const TOL: f64 = 1e-9;

/// Run the flat reference simulator.
pub fn reference_state(circuit: &Circuit) -> StateVector {
    run_circuit(circuit)
}

/// Assert two states are equal within [`TOL`], with a readable message.
pub fn assert_states_match(label: &str, got: &StateVector, expected: &StateVector) {
    assert!(
        got.approx_eq(expected, TOL),
        "{label}: states diverge (max |Δ| = {:.3e})",
        got.max_abs_diff(expected)
    );
}

/// The benchmark families small enough to cross-check exhaustively in
/// integration tests.
pub fn small_suite(width: usize) -> Vec<Circuit> {
    hisvsim_circuit::generators::FAMILY_NAMES
        .iter()
        .map(|name| hisvsim_circuit::generators::by_name(name, width))
        .collect()
}

/// Circuits with SWAPs, which the runner drops and relabels the other
/// gates around: the QFT (SWAPs at the end), QPE (SWAPs mid-circuit, from
/// its inverse QFT), a random circuit with SWAPs mid-circuit and at the
/// end, a chain of three among them, and a circuit of SWAPs alone, whose
/// state is |0…0⟩.
pub fn swap_cases(n: usize) -> Vec<Circuit> {
    assert!(n >= 6, "the SWAP cases need ≥ 6 qubits, got {n}");
    let mut swapped = Circuit::named(format!("swapped{n}"), n);
    let base = generators::random_circuit(n, 10 * n, 0x5A);
    for (i, gate) in base.gates().iter().enumerate() {
        swapped.push(gate.clone());
        if i == 3 * n {
            swapped.swap(0, n - 1);
        }
        if i == 6 * n {
            swapped.swap(1, 4).swap(4, n - 2).swap(n - 2, 2);
        }
    }
    swapped.swap(3, n - 1).swap(0, 5);
    let mut swaps_only = Circuit::named(format!("swaps{n}"), n);
    for q in 0..n - 1 {
        swaps_only.swap(q, q + 1);
    }
    swaps_only.swap(0, n / 2);
    vec![generators::qft(n), generators::qpe(n), swapped, swaps_only]
}

/// The cross-engine differential harness.
///
/// Run the circuit through **all four engines** (baseline, hier, dist,
/// multilevel), each fusing at
/// [`DEFAULT_FUSION_WIDTH`](hisvsim_statevec::DEFAULT_FUSION_WIDTH), and
/// demand:
///
/// 1. **agreement with the flat reference** within [`TOL`] — fusion
///    reorders commuting floating-point work, so exact equality with the
///    unfused stream is not defined, but the amplitudes must agree to
///    reference precision;
/// 2. **bitwise determinism** — the same engine run twice produces
///    *bit-identical* amplitudes. This is the property the plan cache, the
///    SPMD rank bodies, and the process workers (which re-fuse the shipped
///    partition independently) all build on: fusion is a pure function, so
///    a fused job is exactly reproducible anywhere;
/// 3. **dispatch bit-identity** — forced-scalar and auto kernel dispatch
///    produce *bit-identical* amplitudes. The SIMD kernels replay the exact
///    scalar operation sequence (no true FMA contraction), so on AVX2
///    machines this pins the vector paths against the portable fallback,
///    and elsewhere it degenerates to the determinism check.
///
/// Engines run at a limit derived from the circuit (at least the largest
/// gate arity), with 4 virtual ranks for dist and 2 for multilevel —
/// circuits need ≥ 6 qubits so every rank keeps a wide-enough local slice.
/// The fusion widths other than the default are covered where fusion
/// lives, in `hisvsim-statevec`'s own tests.
pub fn assert_all_engines_bit_identical(circuit: &Circuit) {
    let n = circuit.num_qubits();
    assert!(n >= 6, "harness circuits need ≥ 6 qubits, got {n}");
    let expected = reference_state(circuit);
    let arity_floor = circuit.gates().iter().map(|g| g.arity()).max().unwrap_or(1);
    let limit = (n / 2).max(arity_floor).max(3).min(n);

    for engine in ["baseline", "hier", "dist", "multilevel"] {
        let label = format!("{} engine={engine}", circuit.name);
        let run = |dispatch: KernelDispatch, pass: usize| -> StateVector {
            match engine {
                "baseline" => {
                    IqsBaseline::new(BaselineConfig::new(2).with_kernel_dispatch(dispatch))
                        .run(circuit)
                        .state
                }
                "hier" => {
                    HierarchicalSimulator::new(
                        HierConfig::new(limit).with_kernel_dispatch(dispatch),
                    )
                    .run(circuit)
                    .unwrap_or_else(|e| panic!("{label} (pass {pass}): {e}"))
                    .state
                }
                "dist" => {
                    DistributedSimulator::new(DistConfig::new(4).with_kernel_dispatch(dispatch))
                        .run(circuit)
                        .unwrap_or_else(|e| panic!("{label} (pass {pass}): {e}"))
                        .state
                }
                "multilevel" => {
                    MultilevelSimulator::new(
                        MultilevelConfig::new(2, limit).with_kernel_dispatch(dispatch),
                    )
                    .run(circuit)
                    .unwrap_or_else(|e| panic!("{label} (pass {pass}): {e}"))
                    .state
                }
                _ => unreachable!(),
            }
        };
        let scalar = run(KernelDispatch::Scalar, 1);
        assert_states_match(&label, &scalar, &expected);
        let second = run(KernelDispatch::Scalar, 2);
        assert_eq!(
            scalar, second,
            "{label}: two runs of the identical configuration must be bit-identical"
        );
        let auto = run(KernelDispatch::Auto, 1);
        assert_eq!(
            scalar, auto,
            "{label}: forced-scalar and auto kernel dispatch must be bit-identical"
        );
    }
}

/// Build one member of the `random` interleaved family: the benchmark
/// workload whose mergeable gates are buried far apart in program order.
pub fn random_interleaved(qubits: usize, gates: usize, seed: u64) -> Circuit {
    generators::random_circuit(qubits, gates, seed)
}

/// Proptest generator over the `random` interleaved family: deep random
/// circuits of 6–8 qubits, shrinkable in gate count and seed. Used by the
/// differential suite as the adversarial input distribution for the
/// DAG-fusion correctness backstop.
pub fn prop_random_interleaved() -> impl Strategy<Value = Circuit> {
    (6usize..9, 20usize..90, any::<u64>())
        .prop_map(|(qubits, gates, seed)| random_interleaved(qubits, gates, seed))
}

/// A denser variant biased toward long dependency chains: interleaves a
/// round-robin entangling layer with random single-qubit rotations, so
/// every qubit pair's gates are separated by a full register sweep.
pub fn prop_layered_interleaved() -> impl Strategy<Value = Circuit> {
    (6usize..9, 2usize..6, any::<u64>()).prop_map(|(qubits, rounds, seed)| {
        let mut circuit = Circuit::named(format!("interleaved{qubits}x{rounds}"), qubits);
        let mut phase = seed as f64 % 1.0 + 0.1;
        for round in 0..rounds {
            for q in 0..qubits {
                circuit.cx(q, (q + 1 + round % (qubits - 1)) % qubits);
                circuit.rz(phase, q);
                phase += 0.37;
            }
            for q in 0..qubits {
                circuit.ry(phase * 0.5, (q * 3) % qubits);
                circuit.t(q);
            }
        }
        circuit
    })
}
