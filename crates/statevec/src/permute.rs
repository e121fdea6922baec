//! Qubit permutation of a state in place: what a circuit's SWAPs leave to
//! do once they are relabeled away (`Circuit::relabel_swaps`).
//!
//! An involution (every SWAP network is one, the QFT's final reversal
//! included) is one pass. The positions split into *inner* ones, the lowest
//! positions together with their partners, at most [`TILE_BITS`] of them,
//! and *outer* ones. The involution maps inner to inner and outer to outer,
//! so it maps each tile (the amplitudes of one outer assignment: runs of
//! contiguous amplitudes, since the lowest positions are inner) onto one
//! partner tile. Each pair of tiles is copied into two small buffers and
//! written back exchanged, the inner bits permuted through two lookup
//! tables, so every amplitude is read once and written once. Pairs are
//! disjoint, so they run on the pool. Any other permutation is the product
//! of two involutions (a cycle is two reflections), so two passes.

use crate::kernels::SharedAmps;
use crate::{buffers, ApplyOptions, StateVector};
use hisvsim_circuit::{Complex64, Qubit};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most positions a tile spans: the two buffers of a pair hold 2^12
/// amplitudes (64 KiB) each, so both stay L2-resident.
const TILE_BITS: usize = 12;

/// Tiles a worker claims at a time. Claiming, not a static split, balances
/// the pool: the pairs' leaders crowd the low tiles.
const CLAIM: usize = 8;

/// Most qubits a permutation may have: a position fits one `usize` bit.
const MAX_QUBITS: usize = usize::BITS as usize;

impl StateVector {
    /// Move the qubit at position `perm[q]` to position `q`, for every `q`:
    /// afterwards amplitude `i` is the one whose index has bit `perm[q]`
    /// equal to bit `q` of `i`. `Circuit::relabel_swaps` returns the `perm`
    /// that puts a relabeled circuit's qubits back.
    ///
    /// In place, through two tile buffers per worker taken from
    /// [`buffers`]: one pass over the state for an involution, two for any
    /// other permutation, none for the identity. Above the default
    /// `parallel_threshold` the pass runs on the pool it is called in.
    /// Panics unless `perm` is a permutation of `0..num_qubits`.
    pub fn permute_qubits(&mut self, perm: &[Qubit]) {
        let n = self.num_qubits();
        assert_eq!(perm.len(), n, "a permutation of {n} qubits has {n} entries");
        let mut seen = 0usize;
        for &p in perm {
            assert!(
                p < n && seen >> p & 1 == 0,
                "{perm:?} is not a permutation of 0..{n}"
            );
            seen |= 1 << p;
        }
        if perm.iter().enumerate().all(|(q, &p)| p == q) {
            return;
        }
        // `beta` moves something whenever `perm` does; `alpha` only when
        // `perm` has a cycle of three or more.
        let (beta, alpha) = reflections(perm);
        let second_pass = alpha[..n].iter().enumerate().any(|(q, &p)| p != q);
        let passes = 1 + second_pass as u64;
        let _span = hisvsim_obs::span("kernel", "permute").bytes(self.len() as u64 * 32 * passes);
        let parallel = ApplyOptions::default().go_parallel(self.len());
        exchange(self.amplitudes_mut(), &beta[..n], parallel);
        if second_pass {
            exchange(self.amplitudes_mut(), &alpha[..n], parallel);
        }
    }
}

/// Two involutions `(beta, alpha)` with `perm[q] == beta[alpha[q]]`, so
/// permuting by `beta` and then by `alpha` permutes by `perm`. A cycle
/// `c₀ → c₁ → … → c_{m-1}` of `perm` is the product of the reflections
/// `alpha(c_i) = c_{-i}` and `beta(c_i) = c_{1-i}` (indices mod `m`); a
/// cycle of two or one is `beta` alone, so an involution leaves `alpha` the
/// identity.
fn reflections(perm: &[Qubit]) -> ([Qubit; MAX_QUBITS], [Qubit; MAX_QUBITS]) {
    let (mut beta, mut alpha) = ([0; MAX_QUBITS], [0; MAX_QUBITS]);
    let mut cycle = [0; MAX_QUBITS];
    let mut done = 0usize;
    for start in 0..perm.len() {
        if done >> start & 1 == 1 {
            continue;
        }
        let (mut len, mut q) = (0, start);
        loop {
            cycle[len] = q;
            len += 1;
            done |= 1 << q;
            q = perm[q];
            if q == start {
                break;
            }
        }
        for i in 0..len {
            alpha[cycle[i]] = cycle[(len - i) % len];
            beta[cycle[i]] = cycle[(len + 1 - i) % len];
        }
    }
    (beta, alpha)
}

/// The bits of `value`, lowest first, placed at the set positions of `mask`.
fn deposit(mut value: usize, mut mask: usize) -> usize {
    let mut out = 0;
    while mask != 0 {
        let bit = mask & mask.wrapping_neg();
        if value & 1 == 1 {
            out |= bit;
        }
        value >>= 1;
        mask &= mask - 1;
    }
    out
}

/// The bits of `value` at the set positions of `mask`, packed lowest first.
fn extract(value: usize, mut mask: usize) -> usize {
    let (mut out, mut k) = (0, 0);
    while mask != 0 {
        let bit = mask & mask.wrapping_neg();
        if value & bit != 0 {
            out |= 1 << k;
        }
        k += 1;
        mask &= mask - 1;
    }
    out
}

/// One pass of the involution `sigma` over `amps`: the amplitudes at `i`
/// and at `i` with bit `q` moved to bit `sigma[q]` trade places.
fn exchange(amps: &mut [Complex64], sigma: &[Qubit], parallel: bool) {
    let move_bits = |index: usize| {
        (sigma.iter().enumerate()).fold(0, |out, (q, &to)| out | (index >> q & 1) << to)
    };
    // Inner positions: the lowest ones with their partners, while they fit
    // a tile of at most a quarter of the state (a tile as wide as the state
    // transposes its one buffer in place of a pair: twice the time per
    // amplitude at 10 to 12 qubits). The involution keeps the set, so it
    // keeps its complement.
    let mut inner = 0usize;
    let widest = TILE_BITS.min(sigma.len().saturating_sub(2));
    for (q, &to) in sigma.iter().enumerate() {
        let wider = inner | 1 << q | 1 << to;
        if wider.count_ones() as usize > widest {
            break;
        }
        inner = wider;
    }
    let outer = (amps.len() - 1) & !inner;
    let inner_bits = inner.count_ones() as usize;
    let tile = 1usize << inner_bits;
    let run = 1usize << (!inner).trailing_zeros();
    // Inner positions above the run: the offsets of a tile's runs.
    let run_offsets = inner & !(run - 1);

    // Where a tile's local amplitude `x` comes from in its partner tile.
    // Moving bits is linear in the bits moved, so that is looked up in two
    // parts: `within[k]` for amplitude `k` of a run, `across[r]` for run `r`,
    // each entry the previous one with one bit's image added.
    let mut image = [0u32; TILE_BITS];
    for (bit, image) in image.iter_mut().enumerate().take(inner_bits) {
        *image = extract(move_bits(deposit(1 << bit, inner)), inner) as u32;
    }
    let fill = |table: &mut [u32], first_bit: usize| {
        for x in 1..table.len() {
            table[x] = table[x & (x - 1)] | image[first_bit + x.trailing_zeros() as usize];
        }
    };
    let (mut within, mut across) = ([0u32; 1 << TILE_BITS], [0u32; 1 << TILE_BITS]);
    let run_bits = run.trailing_zeros() as usize;
    fill(&mut within[..run], 0);
    fill(&mut across[..tile / run], run_bits);

    let tiles = amps.len() / tile;
    let next = AtomicUsize::new(0);
    let ptr = SharedAmps::new(amps);
    let offsets = || {
        std::iter::successors(Some(0usize), move |&offset| {
            let next = offset.wrapping_sub(run_offsets) & run_offsets;
            (next != 0).then_some(next)
        })
    };
    // `base` is always a tile's first index, and the worker holding it owns
    // that tile exclusively (see `work`).
    let load = |buffer: &mut Vec<Complex64>, base: usize| {
        buffer.clear();
        for offset in offsets() {
            // SAFETY: an offset plus `run` stays inside the tile at `base`,
            // so inside `amps`, and no other worker touches that tile.
            let from = unsafe { std::slice::from_raw_parts(ptr.as_ptr().add(base + offset), run) };
            buffer.extend_from_slice(from);
        }
    };
    let store = |base: usize, partner: &[Complex64]| {
        for (r, offset) in offsets().enumerate() {
            // SAFETY: as in `load`; `partner` is a buffer, not `amps`.
            let out =
                unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr().add(base + offset), run) };
            let across = across[r];
            for (amp, &within) in out.iter_mut().zip(&within[..run]) {
                *amp = partner[(within | across) as usize];
            }
        }
    };
    let work = || {
        let (mut a, mut b) = (buffers::take(tile), buffers::take(tile));
        loop {
            let first = next.fetch_add(CLAIM, Ordering::Relaxed);
            if first >= tiles {
                break;
            }
            for v in first..(first + CLAIM).min(tiles) {
                let base = deposit(v, outer);
                let partner = move_bits(base);
                // A pair is the smaller tile's: each tile is one pair's, and
                // each claimed index is one worker's.
                if partner < base {
                    continue;
                }
                load(&mut a, base);
                if partner == base {
                    store(base, &a);
                } else {
                    load(&mut b, partner);
                    store(base, &b);
                    store(partner, &a);
                }
            }
        }
        buffers::give(a);
        buffers::give(b);
    };
    match parallel {
        true => (0..rayon::current_num_threads())
            .into_par_iter()
            .for_each(|_| work()),
        false => work(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Amplitude `i` of the result is amplitude `j` of `state`, where bit
    /// `perm[q]` of `j` is bit `q` of `i`: the definition, one index at a time.
    fn reference(state: &StateVector, perm: &[Qubit]) -> StateVector {
        let source =
            |i: usize| (perm.iter().enumerate()).fold(0, |j, (q, &p)| j | (i >> q & 1) << p);
        StateVector::from_amplitudes((0..state.len()).map(|i| state.amp(source(i))).collect())
    }

    /// splitmix64, for states and permutations that repeat run to run.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A state whose amplitudes are all distinct.
    fn distinct_state(qubits: usize) -> StateVector {
        let amps = (0..1usize << qubits)
            .map(|i| Complex64::new(i as f64, -0.5 - i as f64))
            .collect();
        StateVector::from_amplitudes(amps)
    }

    fn random_perm(qubits: usize, seed: &mut u64) -> Vec<Qubit> {
        let mut perm: Vec<Qubit> = (0..qubits).collect();
        for i in (1..qubits).rev() {
            perm.swap(i, splitmix(seed) as usize % (i + 1));
        }
        perm
    }

    fn check(state: &StateVector, perm: &[Qubit]) {
        let mut permuted = state.clone();
        permuted.permute_qubits(perm);
        assert!(permuted == reference(state, perm), "{perm:?}");
    }

    fn one_thread<R>(run: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        pool.expect("a one-thread pool").install(run)
    }

    #[test]
    fn every_permutation_of_four_qubits_and_random_narrow_ones_match_the_reference() {
        let state = distinct_state(4);
        let mut count = 0;
        for code in 0..4usize.pow(4) {
            let perm: Vec<Qubit> = (0..4).map(|q| code >> (2 * q) & 3).collect();
            let mut seen = perm.clone();
            seen.sort_unstable();
            if seen == [0, 1, 2, 3] {
                check(&state, &perm);
                count += 1;
            }
        }
        assert_eq!(count, 24);
        // Narrower and a little wider: a tile of one amplitude up to several.
        let mut seed = 0x5EED;
        for qubits in 1..=8 {
            let state = distinct_state(qubits);
            for _ in 0..12 {
                check(&state, &random_perm(qubits, &mut seed));
            }
        }
    }

    #[test]
    fn random_permutations_match_the_reference_on_the_pool_and_on_one_thread() {
        let mut seed = 0x9E237;
        for qubits in [15, 17, 20] {
            let state = distinct_state(qubits);
            let reversal: Vec<Qubit> = (0..qubits).rev().collect();
            let shift: Vec<Qubit> = (0..qubits).map(|q| (q + 1) % qubits).collect();
            let mut three_cycle: Vec<Qubit> = (0..qubits).collect();
            (three_cycle[0], three_cycle[7], three_cycle[qubits - 1]) = (7, qubits - 1, 0);
            let mut perms = vec![reversal, shift, three_cycle];
            perms.extend((0..3).map(|_| random_perm(qubits, &mut seed)));
            assert!(perms.iter().any(|perm| perm.iter().any(|&p| perm[p] != p)));
            for perm in &perms {
                check(&state, perm);
                one_thread(|| check(&state, perm));
            }
        }
    }

    #[test]
    fn reflections_compose_to_the_permutation_and_are_involutions() {
        let mut seed = 7;
        for qubits in 1..12 {
            let perm = random_perm(qubits, &mut seed);
            let (beta, alpha) = reflections(&perm);
            for q in 0..qubits {
                assert_eq!(beta[alpha[q]], perm[q], "{perm:?}");
                assert_eq!(alpha[alpha[q]], q);
                assert_eq!(beta[beta[q]], q);
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a permutation")]
    fn a_repeated_position_is_refused() {
        distinct_state(3).permute_qubits(&[0, 2, 2]);
    }
}
