//! Forced-scalar vs auto kernel-dispatch differential suite.
//!
//! The SIMD kernels claim *bit-identity* with the portable scalar fallback:
//! they replay the exact scalar IEEE-754 operation sequence (no true FMA
//! contraction), so `KernelDispatch::Scalar` and `KernelDispatch::Auto`
//! must produce the same `f64` bits amplitude for amplitude — on random
//! initial states, not just `|0…0⟩`. This suite pins that claim for every
//! kernel the sweeps dispatch to: the specialised per-gate paths (flat
//! execution across all benchmark families), and the fused paths (two-qubit
//! dense, prepared k-qubit, diagonal runs, cache-blocked tiling).
//!
//! On machines without AVX2+FMA both dispatches resolve to scalar and the
//! suite degenerates to a determinism check — still meaningful, never wrong.

use hisvsim_circuit::{generators, Circuit, Complex64};
use hisvsim_integration_tests::{prop_layered_interleaved, prop_random_interleaved};
use hisvsim_statevec::{kernels, ApplyOptions, FusedCircuit, KernelDispatch, StateVector};
use proptest::prelude::*;

/// A deterministic pseudo-random normalized state (splitmix64 amplitudes).
fn random_state(num_qubits: usize, seed: u64) -> StateVector {
    let mut s = seed;
    let mut next = move || -> u64 {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut uniform = move || (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let amps = (0..1usize << num_qubits)
        .map(|_| Complex64::new(uniform(), uniform()))
        .collect();
    let mut state = StateVector::from_amplitudes(amps);
    state.normalize();
    state
}

fn scalar_opts() -> ApplyOptions {
    ApplyOptions::sequential().with_dispatch(KernelDispatch::Scalar)
}

fn auto_opts() -> ApplyOptions {
    ApplyOptions::sequential().with_dispatch(KernelDispatch::Auto)
}

/// Flat per-gate execution and fused execution (both strategies) of
/// `circuit` on a random initial state: forced-scalar and auto dispatch
/// must agree bit for bit.
fn assert_dispatch_bit_identical(circuit: &Circuit, seed: u64) {
    let base = random_state(circuit.num_qubits(), seed);

    // Flat path: every gate dispatches to its specialised kernel.
    let mut scalar = base.clone();
    kernels::apply_circuit_with(&mut scalar, circuit, &scalar_opts());
    let mut auto = base.clone();
    kernels::apply_circuit_with(&mut auto, circuit, &auto_opts());
    assert_eq!(
        scalar, auto,
        "{}: flat sweep diverges between Scalar and Auto dispatch",
        circuit.name
    );

    // Fused paths: two-qubit dense, prepared k-qubit, diagonal-run and
    // (for large enough states) cache-blocked tiled sweeps.
    let fused = FusedCircuit::new(circuit, 3);
    let mut scalar = base.clone();
    fused.apply(&mut scalar, &scalar_opts());
    let mut auto = base.clone();
    fused.apply(&mut auto, &auto_opts());
    assert_eq!(
        scalar, auto,
        "{}: fused sweep diverges between Scalar and Auto dispatch",
        circuit.name
    );
}

/// Every benchmark family — QFT's controlled phases and Hadamards, QAOA's
/// diagonal runs, Ising/Grover entanglers — on random initial states.
#[test]
fn all_gate_families_scalar_and_auto_dispatch_bit_identical() {
    for (i, name) in generators::FAMILY_NAMES.iter().enumerate() {
        let circuit = generators::by_name(name, 9);
        assert_dispatch_bit_identical(&circuit, 0xD15_BA7C4 ^ (i as u64) << 32);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Deep random circuits mixing every gate family in adversarial orders.
    #[test]
    fn random_interleaved_scalar_and_auto_dispatch_bit_identical(
        circuit in prop_random_interleaved(),
        seed in any::<u64>(),
    ) {
        assert_dispatch_bit_identical(&circuit, seed);
    }

    // Long-dependency-chain circuits: diagonal runs and dense groups
    // separated by full register sweeps.
    #[test]
    fn layered_interleaved_scalar_and_auto_dispatch_bit_identical(
        circuit in prop_layered_interleaved(),
        seed in any::<u64>(),
    ) {
        assert_dispatch_bit_identical(&circuit, seed);
    }
}

/// A state big enough to cross the tiled-sweep threshold (> 2^14
/// amplitudes): the cache-blocked path must stay bit-identical across
/// dispatches and against the untiled reference semantics already pinned by
/// the statevec unit tests.
#[test]
fn tiled_sweep_scalar_and_auto_dispatch_bit_identical() {
    let circuit = generators::random_circuit(16, 160, 0x0007_117E);
    assert_dispatch_bit_identical(&circuit, 0x0007_117E);
}

// ---------------------------------------------------------------------------
// kernel conformance: every kernel × operand-placement class
// ---------------------------------------------------------------------------
//
// The sweep kernels pick their access pattern from where a gate's operands
// sit (qubit 0 involved, lowest operand 1, adjacent, top qubit, control above
// or below the target, straddling the 2^16-amplitude tile). Each case below
// asserts (a) equality with a naïve `matrix × gathered vector` reference to
// 1e-12, (b) forced-scalar vs auto dispatch bitwise, (c) sequential vs
// `parallel_threshold: 1` bitwise and, for fused circuits over more than one
// tile, (d) tiled vs op-by-op (untiled) execution bitwise.

use hisvsim_circuit::{Gate, GateKind, Qubit, UnitaryMatrix};

/// `out = M × gathered vector` per index group.
fn naive_apply(amps: &[Complex64], qubits: &[Qubit], m: &UnitaryMatrix) -> StateVector {
    let mut out = amps.to_vec();
    for (i, slot) in out.iter_mut().enumerate() {
        let row = (0..qubits.len()).fold(0, |row, j| row | ((i >> qubits[j]) & 1) << j);
        let base = qubits.iter().fold(i, |base, &q| base & !(1 << q));
        *slot = Complex64::ZERO;
        for col in 0..m.dim() {
            let from = (0..qubits.len()).fold(base, |from, j| from | ((col >> j) & 1) << qubits[j]);
            *slot += m.get(row, col) * amps[from];
        }
    }
    StateVector::from_amplitudes(out)
}

/// The four execution variants of one sweep: {sequential, parallel from one
/// amplitude up} × {auto, forced scalar}.
fn variants() -> Vec<ApplyOptions> {
    let parallel = ApplyOptions {
        parallel_threshold: 1,
        ..ApplyOptions::default()
    };
    [ApplyOptions::sequential(), parallel]
        .into_iter()
        .flat_map(|opts| {
            [KernelDispatch::Auto, KernelDispatch::Scalar].map(|d| opts.with_dispatch(d))
        })
        .collect()
}

/// (a), (b) and (c) for one sweep.
fn assert_sweep_conforms(
    init: &StateVector,
    expected: &StateVector,
    what: &str,
    apply: impl Fn(&mut StateVector, &ApplyOptions),
) -> StateVector {
    let mut first: Option<StateVector> = None;
    for opts in variants() {
        let mut got = init.clone();
        apply(&mut got, &opts);
        match &first {
            None => {
                assert!(
                    got.approx_eq(expected, 1e-12),
                    "{what}: diverges from the naive reference (max |Δ| = {:.3e})",
                    got.max_abs_diff(expected)
                );
                first = Some(got);
            }
            Some(first) => assert_eq!(
                first, &got,
                "{what}: threshold={} dispatch={} is not bit-identical",
                opts.parallel_threshold, opts.dispatch
            ),
        }
    }
    first.expect("there are four variants")
}

/// A dense, a half-sparse or a permutation matrix of dimension `dim`.
fn test_matrix(class: usize, dim: usize, seed: u64) -> UnitaryMatrix {
    let base = random_state(dim.trailing_zeros() as usize * 2, seed);
    let entries = base.amplitudes().iter().enumerate().map(|(i, &v)| {
        let (row, col) = (i / dim, i % dim);
        match class {
            0 => v,
            1 if (row + col * 3 + (seed as usize & 1)).is_multiple_of(2) => v,
            2 if col == (row * 5 + 3) % dim => Complex64::ONE,
            _ => Complex64::ZERO,
        }
    });
    UnitaryMatrix::from_rows(entries.collect())
}

/// Every gate kind on one placement per class, on a register wide enough to
/// have free qubits on both sides.
#[test]
fn every_gate_kind_conforms_at_every_placement_class() {
    use GateKind::*;
    let n = 10;
    let init = random_state(n, 0xC0F0_4A11);
    let singles = [
        H,
        X,
        Y,
        Z,
        S,
        T,
        Sx,
        Rx(0.3),
        Ry(0.7),
        Rz(-1.1),
        P(0.4),
        U3(0.2, 0.5, 0.9),
    ];
    let doubles = [
        Cx,
        Cy,
        Cz,
        Ch,
        Cp(0.8),
        Crz(1.3),
        Crx(0.6),
        Cry(0.2),
        Cu3(0.1, 0.2, 0.3),
        Swap,
        Rzz(0.9),
        Rxx(0.5),
    ];
    // qubit 0, lowest = 1, middle, top.
    for kind in singles {
        for q in [0, 1, 5, n - 1] {
            let gate = Gate::new(kind, vec![q]);
            let expected = naive_apply(init.amplitudes(), &gate.qubits, &gate.matrix());
            assert_sweep_conforms(
                &init,
                &expected,
                &format!("{} on {q}", kind.name()),
                |s, o| kernels::apply_gate_with(s, &gate, o),
            );
        }
    }
    // qubit 0 as either operand, lowest = 1, adjacent, top qubit as either
    // operand, first operand above and below the second.
    let pairs = [
        (0, 1),
        (1, 0),
        (0, 6),
        (6, 0),
        (1, 2),
        (2, 1),
        (4, 5),
        (3, n - 1),
        (n - 1, 3),
        (n - 2, n - 1),
    ];
    for kind in doubles {
        for (a, b) in pairs {
            let gate = Gate::new(kind, vec![a, b]);
            let expected = naive_apply(init.amplitudes(), &gate.qubits, &gate.matrix());
            assert_sweep_conforms(
                &init,
                &expected,
                &format!("{} on ({a},{b})", kind.name()),
                |s, o| kernels::apply_gate_with(s, &gate, o),
            );
        }
    }
    for kind in [Ccx, Cswap] {
        for qubits in [
            [0, 1, 2],
            [2, 1, 0],
            [1, 5, 0],
            [n - 1, 0, 4],
            [3, n - 1, n - 2],
            [1, 2, 3],
        ] {
            let gate = Gate::new(kind, qubits.to_vec());
            let expected = naive_apply(init.amplitudes(), &gate.qubits, &gate.matrix());
            assert_sweep_conforms(
                &init,
                &expected,
                &format!("{} on {qubits:?}", kind.name()),
                |s, o| kernels::apply_gate_with(s, &gate, o),
            );
        }
    }
}

/// The dense family at k = 1..=5 with dense / half-sparse / permutation
/// matrices, on states of one group, two groups and many.
#[test]
fn dense_kernels_conform_for_every_width_fill_and_state_size() {
    for k in 1..=5usize {
        for n in [k, k + 1, 11] {
            let init = random_state(n, 0xDE45E ^ (k * 16 + n) as u64);
            for class in 0..3 {
                let matrix = test_matrix(class, 1 << k, (k * 8 + class) as u64);
                // Operands packed at the bottom (qubit 0 is the last
                // operand), packed at the top, and from qubit 1 upward.
                let bottom: Vec<Qubit> = (0..k).rev().collect();
                let top: Vec<Qubit> = (n - k..n).collect();
                let from_one: Vec<Qubit> =
                    (0..k).map(|j| (1 + j * (n - 1) / k).min(n - 1)).collect();
                for qubits in [bottom, top, from_one] {
                    let mut sorted = qubits.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != k {
                        continue;
                    }
                    let expected = naive_apply(init.amplitudes(), &qubits, &matrix);
                    let what = format!("class {class} k={k} on {qubits:?} of {n} qubits");
                    assert_sweep_conforms(&init, &expected, &what, |s, o| {
                        kernels::apply_k_qubit(s, &qubits, &matrix, o)
                    });
                }
            }
        }
    }
}

/// A circuit over two tiles (17 qubits) whose ops sit below, across and above
/// the tile boundary: all of (a)–(d).
#[test]
fn fused_ops_around_the_tile_boundary_conform_tiled_and_untiled() {
    let n = 17;
    let top = n - 1;
    let mut circuit = Circuit::new(n);
    circuit
        .h(0)
        .ry(0.3, 1)
        .cx(0, 1)
        .h(15)
        .cx(15, top)
        .ry(0.4, top)
        .cx(2, 14)
        .x(0)
        .swap(0, 9)
        .ccx(3, 0, 12)
        .t(4)
        .cz(0, 15)
        .cp(0.7, 2, top)
        .cp(0.2, 9, top)
        .rz(0.9, 0)
        .rzz(0.3, 7, 15)
        .h(7)
        .swap(3, top)
        .rx(0.6, 8)
        .cx(1, 2)
        .y(1);
    let init = random_state(n, 0x711E_B0D4);
    let mut expected = init.clone();
    for gate in circuit.gates() {
        expected = naive_apply(expected.amplitudes(), &gate.qubits, &gate.matrix());
    }
    let fused = FusedCircuit::new(&circuit, 3);
    let what = "tile-boundary circuit";
    let tiled = assert_sweep_conforms(&init, &expected, what, |s, o| fused.apply(s, o));
    let untiled = assert_sweep_conforms(&init, &expected, what, |s, o| {
        for op in fused.ops() {
            op.apply(s, o);
        }
    });
    assert_eq!(tiled, untiled, "{what}: tiled and untiled sweeps differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random width, matrix fill class, register size and operand placement.
    #[test]
    fn dense_kernel_conforms_at_random_placements(
        k in 1usize..6,
        class in 0usize..3,
        extra in 0usize..6,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        // A seeded shuffle of the register picks the (ordered) operands.
        let mut order: Vec<Qubit> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let qubits = &order[..k];
        let matrix = test_matrix(class, 1 << k, seed);
        let init = random_state(n, seed ^ 0x5EED);
        let expected = naive_apply(init.amplitudes(), qubits, &matrix);
        let what = format!("class {class} k={k} on {qubits:?} of {n} qubits");
        assert_sweep_conforms(&init, &expected, &what, |s, o| {
            kernels::apply_k_qubit(s, qubits, &matrix, o)
        });
    }
}
