//! `Circuit::relabel_swaps` against the unfused reference: running the
//! relabeled circuit and then `StateVector::permute_qubits` with the
//! returned permutation gives the submitted circuit's state, for the QFT
//! (SWAPs at the end), QPE (SWAPs mid-circuit, from its inverse QFT) and
//! random circuits with SWAPs interleaved, chains of them included, whose
//! net permutations are not involutions.

use hisvsim_circuit::{generators, Circuit, GateKind};
use hisvsim_statevec::run_circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Relabeled and permuted back, `circuit` leaves exactly its own state.
fn check(circuit: &Circuit) -> Vec<usize> {
    let (relabeled, perm) = circuit.relabel_swaps();
    assert!(relabeled.gates().iter().all(|g| g.kind != GateKind::Swap));
    let mut state = run_circuit(&relabeled);
    state.permute_qubits(&perm);
    let expected = run_circuit(circuit);
    assert!(
        state == expected,
        "{}: max |Δ| {:.3e}",
        circuit.name,
        state.max_abs_diff(&expected)
    );
    perm
}

/// `random_circuit` with a SWAP after every fourth gate and a chain of
/// three through a random qubit now and then.
fn with_swaps(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::random_circuit(n, 10 * n, seed);
    let mut circuit = Circuit::named(format!("swapped{n}"), n);
    let pick = |rng: &mut StdRng, not: &[usize]| loop {
        let q = rng.gen_range(0..n);
        if !not.contains(&q) {
            return q;
        }
    };
    for (i, gate) in base.gates().iter().enumerate() {
        circuit.push(gate.clone());
        if i % 4 == 3 {
            let a = pick(&mut rng, &[]);
            let b = pick(&mut rng, &[a]);
            circuit.swap(a, b);
        }
        if i % 9 == 8 {
            let a = pick(&mut rng, &[]);
            let b = pick(&mut rng, &[a]);
            let c = pick(&mut rng, &[a, b]);
            circuit
                .swap(a, b)
                .swap(b, c)
                .add(GateKind::Cswap, &[c, a, b]);
        }
    }
    circuit
}

#[test]
fn relabeled_qft_and_qpe_match_the_reference() {
    for n in 6..=10 {
        let perm = check(&generators::qft(n));
        assert_eq!(perm, (0..n).rev().collect::<Vec<_>>());
        check(&generators::qpe(n));
    }
}

#[test]
fn relabeled_random_circuits_with_swap_chains_match_the_reference() {
    let mut non_involutions = 0;
    for n in 6..=10 {
        for seed in 0..4 {
            let perm = check(&with_swaps(n, 0x5A_0000 + 16 * n as u64 + seed));
            non_involutions += perm.iter().enumerate().any(|(q, &p)| perm[p] != q) as usize;
        }
    }
    assert!(non_involutions > 0, "no circuit left a non-involution");
}

#[test]
fn a_circuit_without_swaps_is_borrowed_and_unpermuted() {
    for circuit in [
        generators::random_circuit(11, 200, 3),
        generators::by_name("adder", 10),
    ] {
        let (relabeled, perm) = circuit.relabel_swaps();
        assert!(matches!(relabeled, Cow::Borrowed(_)), "{}", circuit.name);
        assert!(perm.iter().enumerate().all(|(q, &p)| p == q));
    }
}
