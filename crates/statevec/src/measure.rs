//! Measurement and observable utilities on state vectors.
//!
//! The simulators in this workspace evolve the pure unitary part of a circuit
//! (as the paper's do); these helpers extract classical information from the
//! final state — marginal probabilities, shot sampling, and Pauli-Z
//! expectation values — which the examples and tests use to validate circuit
//! semantics end to end.

use crate::state::StateVector;
use crate::ApplyOptions;
use hisvsim_circuit::Qubit;
use rand::Rng;
use rayon::prelude::*;

/// Probability that measuring `qubit` yields 1.
pub fn probability_of_one(state: &StateVector, qubit: Qubit) -> f64 {
    assert!(qubit < state.num_qubits());
    let mask = 1usize << qubit;
    state
        .amplitudes()
        .iter()
        .enumerate()
        .filter(|(i, _)| i & mask != 0)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

/// Expectation value of Pauli-Z on `qubit`: `P(0) - P(1)`.
pub fn expectation_z(state: &StateVector, qubit: Qubit) -> f64 {
    1.0 - 2.0 * probability_of_one(state, qubit)
}

/// Full probability distribution over computational basis states.
///
/// Only sensible for small registers (the vector has `2^n` entries). The
/// squaring pass is embarrassingly parallel and memory-bound, so states of
/// at least the default `parallel_threshold` are processed with rayon.
pub fn probabilities(state: &StateVector) -> Vec<f64> {
    let amps = state.amplitudes();
    let mut probs = vec![0.0f64; amps.len()];
    if ApplyOptions::default().go_parallel(amps.len()) {
        probs
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, p)| *p = amps[i].norm_sqr());
    } else {
        for (p, a) in probs.iter_mut().zip(amps) {
            *p = a.norm_sqr();
        }
    }
    probs
}

/// The most likely basis state and its probability.
///
/// Total on every input: an empty state reports `(0, 0.0)`, and `NaN`
/// probabilities (which can only arise from a corrupted state) never poison
/// the comparison — a `NaN` amplitude simply cannot win, so the result is
/// always a real entry of the distribution when one exists.
pub fn most_probable(state: &StateVector) -> (usize, f64) {
    let mut best = (0usize, 0.0f64);
    for (i, a) in state.amplitudes().iter().enumerate() {
        let p = a.norm_sqr();
        // `>` is false when `p` is NaN, so NaN entries are skipped rather
        // than propagated (f64::MIN-style seeds lose to a NaN-poisoned max).
        if p > best.1 {
            best = (i, p);
        }
    }
    best
}

/// Sample `shots` measurement outcomes (full-register, computational basis).
pub fn sample_counts<R: Rng>(
    state: &StateVector,
    shots: usize,
    rng: &mut R,
) -> std::collections::BTreeMap<usize, usize> {
    let (cumulative, total) = cumulative_distribution(state);
    let mut counts = std::collections::BTreeMap::new();
    for _ in 0..shots {
        let r: f64 = rng.gen_range(0.0..total);
        *counts.entry(cdf_index(&cumulative, r)).or_insert(0) += 1;
    }
    counts
}

/// Cumulative distribution of the state (the squaring pass is parallel via
/// [`probabilities`]; the prefix sum is sequential and cheap next to it).
fn cumulative_distribution(state: &StateVector) -> (Vec<f64>, f64) {
    let mut cumulative = probabilities(state);
    let mut acc = 0.0;
    for c in cumulative.iter_mut() {
        acc += *c;
        *c = acc;
    }
    (cumulative, acc.max(f64::MIN_POSITIVE))
}

/// Basis state whose CDF bin contains `r ∈ [0, total)`.
#[inline]
fn cdf_index(cumulative: &[f64], r: f64) -> usize {
    match cumulative.binary_search_by(|c| c.partial_cmp(&r).unwrap()) {
        Ok(i) => i,
        Err(i) => i,
    }
    .min(cumulative.len() - 1)
}

/// Sample `shots` outcomes as a flat vector, in parallel.
///
/// This is the batch runtime's hot sampling path: every shot is an
/// independent draw against the cumulative distribution, so shots are
/// generated with a counter-based generator (SplitMix64 of `seed` + shot
/// index) and filled in parallel — deterministic for a given `seed`
/// regardless of thread count, unlike threading one sequential RNG through
/// a parallel loop.
pub fn sample_shots(state: &StateVector, shots: usize, seed: u64) -> Vec<usize> {
    #[inline]
    fn mix(seed: u64, index: u64) -> f64 {
        let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    let (cumulative, total) = cumulative_distribution(state);
    let mut out = vec![0usize; shots];
    let fill = |(i, slot): (usize, &mut usize)| {
        *slot = cdf_index(&cumulative, mix(seed, i as u64) * total);
    };
    if shots >= 1024 {
        out.par_iter_mut().enumerate().for_each(fill);
    } else {
        out.iter_mut().enumerate().for_each(fill);
    }
    out
}

/// Collapse the distribution onto a subset of qubits: returns the marginal
/// probability of each bit pattern over `qubits` (pattern bit `j` = value of
/// `qubits[j]`).
pub fn marginal_probabilities(state: &StateVector, qubits: &[Qubit]) -> Vec<f64> {
    for &q in qubits {
        assert!(q < state.num_qubits());
    }
    let mut out = vec![0.0; 1 << qubits.len()];
    for (i, a) in state.amplitudes().iter().enumerate() {
        let mut pattern = 0usize;
        for (j, &q) in qubits.iter().enumerate() {
            pattern |= ((i >> q) & 1) << j;
        }
        out[pattern] += a.norm_sqr();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_circuit;
    use hisvsim_circuit::{generators, Circuit, Complex64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plus_state_measures_half_half() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = run_circuit(&c);
        assert!((probability_of_one(&sv, 0) - 0.5).abs() < 1e-12);
        assert!(expectation_z(&sv, 0).abs() < 1e-12);
    }

    #[test]
    fn cat_state_marginals_are_correlated() {
        let sv = run_circuit(&generators::cat_state(6));
        let marg = marginal_probabilities(&sv, &[0, 5]);
        assert!((marg[0b00] - 0.5).abs() < 1e-12);
        assert!((marg[0b11] - 0.5).abs() < 1e-12);
        assert!(marg[0b01] < 1e-12);
        assert!(marg[0b10] < 1e-12);
    }

    #[test]
    fn bv_circuit_recovers_secret_deterministically() {
        // The data register of Bernstein-Vazirani measures exactly the
        // secret string.
        let n = 9;
        let sv = run_circuit(&generators::bv(n, 0xB5));
        let data_qubits: Vec<usize> = (0..n - 1).collect();
        let marg = marginal_probabilities(&sv, &data_qubits);
        let (best, p) = marg
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(*p > 0.999, "BV output is not deterministic: p = {p}");
        assert!(best > 0, "the seeded secret should be non-zero");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let sv = run_circuit(&generators::qft(8));
        let total: f64 = probabilities(&sv).iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn most_probable_finds_peak() {
        let sv = StateVector::basis_state(4, 11);
        assert_eq!(most_probable(&sv), (11, 1.0));
    }

    #[test]
    fn most_probable_is_total_on_degenerate_input() {
        // Empty register: one amplitude (the scalar 1), index 0.
        let sv = StateVector::zero_state(0);
        assert_eq!(most_probable(&sv), (0, 1.0));
        // All-zero amplitudes (not a physical state, but must not panic or
        // return garbage indices).
        let sv = StateVector::from_amplitudes(vec![Default::default(); 8]);
        assert_eq!(most_probable(&sv), (0, 0.0));
    }

    #[test]
    fn probabilities_parallel_path_matches_sequential() {
        // Exactly the default threshold's amplitudes: the smallest state
        // that takes the parallel path.
        let threshold = ApplyOptions::default().parallel_threshold;
        let amps = (0..threshold)
            .map(|i| Complex64::new(i as f64 * 1e-6, 1.0 - i as f64 * 2e-6))
            .collect();
        let sv = StateVector::from_amplitudes(amps);
        let probs = probabilities(&sv);
        assert_eq!(probs.len(), threshold);
        for (i, &p) in probs.iter().enumerate() {
            assert_eq!(p, sv.amp(i).norm_sqr());
        }
    }

    #[test]
    fn sample_shots_is_deterministic_and_distribution_faithful() {
        let mut c = Circuit::new(2);
        c.h(0); // uniform over {00, 01}
        let sv = run_circuit(&c);
        let a = sample_shots(&sv, 4096, 99);
        let b = sample_shots(&sv, 4096, 99);
        assert_eq!(a, b, "same seed must reproduce the same shots");
        assert_ne!(a, sample_shots(&sv, 4096, 100));
        let ones = a.iter().filter(|&&s| s == 1).count() as f64;
        assert!(a.iter().all(|&s| s < 2), "only |00⟩ and |01⟩ have support");
        assert!((ones / 4096.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn sample_shots_agrees_with_sample_counts_statistically() {
        let sv = run_circuit(&generators::cat_state(5));
        let shots = sample_shots(&sv, 4000, 7);
        let zeros = shots.iter().filter(|&&s| s == 0).count();
        let ones = shots.iter().filter(|&&s| s == 0b11111).count();
        assert_eq!(
            zeros + ones,
            4000,
            "GHZ has support only on the two cat states"
        );
        assert!((zeros as f64 / 4000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn sampling_matches_distribution_roughly() {
        let mut c = Circuit::new(2);
        c.h(0); // uniform over {00, 01}
        let sv = run_circuit(&c);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = sample_counts(&sv, 4000, &mut rng);
        let ones = *counts.get(&1).unwrap_or(&0) as f64;
        let zeros = *counts.get(&0).unwrap_or(&0) as f64;
        assert_eq!(ones + zeros, 4000.0);
        assert!((ones / 4000.0 - 0.5).abs() < 0.05);
    }
}
