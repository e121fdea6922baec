//! Gather/scatter primitives between an *outer* state vector and a smaller
//! *inner* state vector — the data-movement half of the paper's
//! Gather–Execute–Scatter model (Algorithm 1).
//!
//! A part of a partitioned circuit touches a working set of `w` qubits
//! `S = [S_0, …, S_{w-1}]` (outer qubit indices). For each assignment of the
//! `t = n - w` *free* qubits, the `2^w` amplitudes addressed by that
//! assignment are gathered into an inner state vector (inner qubit `j`
//! corresponds to outer qubit `S_j`), the part's gates are executed on it,
//! and the results are scattered back to the same outer positions.

use crate::state::StateVector;
use hisvsim_circuit::{Complex64, Qubit};

/// Precomputed index arithmetic for moving amplitudes between an outer state
/// of `n` qubits and an inner state over the working-set qubits `S`.
///
/// Amplitudes move in contiguous runs: when the first `r` inner qubits are
/// the outer qubits `0..r` in order (the usual case — working sets are
/// sorted, so `r` is the lowest free qubit), inner indices that differ only
/// in their low `r` bits are adjacent in both vectors and one `memcpy` of
/// `2^r` amplitudes moves them. The map therefore stores `O(w)` words, not a
/// `2^w`-entry offset table.
#[derive(Debug, Clone)]
pub struct GatherMap {
    outer_qubits: usize,
    /// Outer qubit index of each inner qubit position.
    part_qubits: Vec<Qubit>,
    /// Outer qubit indices not in the part, ascending.
    free_qubits: Vec<Qubit>,
    /// `r`: inner qubit `j` is outer qubit `j` for every `j < run_bits`.
    run_bits: usize,
    /// `run_steps[t]`: how far the outer offset moves from run `c` to run
    /// `c + 1` when `c` ends in exactly `t` one bits (bit `t` of the run
    /// counter sets, the `t` below it clear), as a wrapping difference.
    run_steps: Vec<usize>,
}

impl GatherMap {
    /// Build the map for a part whose gates touch `part_qubits` (inner qubit
    /// `j` = outer qubit `part_qubits[j]`) inside an `outer_qubits`-wide
    /// state.
    pub fn new(outer_qubits: usize, part_qubits: &[Qubit]) -> Self {
        assert!(
            !part_qubits.is_empty(),
            "a part must touch at least one qubit"
        );
        assert!(
            part_qubits.len() <= outer_qubits,
            "part touches {} qubits but the outer state has {}",
            part_qubits.len(),
            outer_qubits
        );
        let mut seen = vec![false; outer_qubits];
        for &q in part_qubits {
            assert!(q < outer_qubits, "part qubit {q} out of range");
            assert!(!seen[q], "part qubit {q} listed twice");
            seen[q] = true;
        }
        let free_qubits: Vec<Qubit> = (0..outer_qubits).filter(|&q| !seen[q]).collect();

        let run_bits = part_qubits
            .iter()
            .enumerate()
            .take_while(|&(j, &q)| j == q)
            .count();
        let upper = &part_qubits[run_bits..];
        let mut below = 0usize;
        let mut run_steps = Vec::with_capacity(upper.len() + 1);
        for &q in upper {
            run_steps.push((1usize << q).wrapping_sub(below));
            below += 1usize << q;
        }
        // After the last run there is nowhere to go.
        run_steps.push(0);

        Self {
            outer_qubits,
            part_qubits: part_qubits.to_vec(),
            free_qubits,
            run_bits,
            run_steps,
        }
    }

    /// Number of qubits in the part (width of the inner state vector).
    #[inline]
    pub fn inner_qubits(&self) -> usize {
        self.part_qubits.len()
    }

    /// Number of free (not-in-part) qubits; the gather/execute/scatter loop
    /// iterates over `2^free_qubits()` assignments.
    #[inline]
    pub fn num_free_qubits(&self) -> usize {
        self.free_qubits.len()
    }

    /// The outer qubit index backing each inner qubit position.
    #[inline]
    pub fn part_qubits(&self) -> &[Qubit] {
        &self.part_qubits
    }

    /// The outer qubit indices not covered by the part, ascending.
    #[inline]
    pub fn free_qubits(&self) -> &[Qubit] {
        &self.free_qubits
    }

    /// The outer base index for a given assignment (bit `k` of `assignment`
    /// is the value of free qubit `free_qubits[k]`).
    #[inline]
    pub fn base_index(&self, assignment: usize) -> usize {
        debug_assert!(assignment < (1usize << self.free_qubits.len()));
        let mut base = 0usize;
        let mut bits = assignment;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            base |= 1usize << self.free_qubits[k];
            bits &= bits - 1;
        }
        base
    }

    /// The outer index corresponding to inner index `inner` under the given
    /// free-qubit assignment.
    #[inline]
    pub fn outer_index(&self, assignment: usize, inner: usize) -> usize {
        let mut index = self.base_index(assignment);
        let mut bits = inner;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            index |= 1usize << self.part_qubits[j];
            bits &= bits - 1;
        }
        index
    }

    /// `(inner offset, outer offset)` of every contiguous run of one
    /// assignment, in inner order; each run is `1 << run_bits` amplitudes.
    #[inline]
    fn runs(&self, assignment: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let run = 1usize << self.run_bits;
        let mut outer = self.base_index(assignment);
        (0..1usize << (self.inner_qubits() - self.run_bits)).map(move |c| {
            let at = outer;
            outer = outer.wrapping_add(self.run_steps[c.trailing_ones() as usize]);
            (c * run, at)
        })
    }

    /// Gather the amplitudes for one free-qubit assignment into a fresh inner
    /// state vector (paper Algorithm 1, the *Gather* loop).
    pub fn gather(&self, outer: &StateVector, assignment: usize) -> StateVector {
        let mut inner = StateVector::uninitialized(self.inner_qubits());
        self.gather_into(outer, assignment, &mut inner);
        inner
    }

    /// Gather into an existing inner buffer (avoids reallocating per
    /// assignment in the hot loop).
    pub fn gather_into(&self, outer: &StateVector, assignment: usize, inner: &mut StateVector) {
        assert_eq!(outer.num_qubits(), self.outer_qubits);
        // SAFETY: `outer` is a live state of the width this map was built
        // for, and a shared borrow of it suffices for reading.
        unsafe { self.gather_raw(outer.amplitudes().as_ptr(), assignment, inner) }
    }

    /// Scatter an inner state vector back into the outer state (the *Scatter*
    /// loop of Algorithm 1).
    pub fn scatter(&self, inner: &StateVector, outer: &mut StateVector, assignment: usize) {
        assert_eq!(outer.num_qubits(), self.outer_qubits);
        // SAFETY: `outer` is exclusively borrowed and of the width this map
        // was built for.
        unsafe { self.scatter_raw(inner, outer.amplitudes_mut().as_mut_ptr(), assignment) }
    }

    /// [`gather_into`](Self::gather_into) from a raw outer buffer, for sweeps
    /// that share the outer vector between threads (each thread owning its
    /// own assignments).
    ///
    /// # Safety
    /// `outer` must point at `2^outer_qubits` initialised amplitudes, and no
    /// other thread may be writing the indices of `assignment` (the index
    /// sets of distinct assignments are disjoint).
    pub unsafe fn gather_raw(
        &self,
        outer: *const Complex64,
        assignment: usize,
        inner: &mut StateVector,
    ) {
        assert_eq!(inner.num_qubits(), self.inner_qubits());
        assert!(assignment < 1usize << self.free_qubits.len());
        let run = 1usize << self.run_bits;
        let inner = inner.amplitudes_mut();
        for (at, from) in self.runs(assignment) {
            let src = std::slice::from_raw_parts(outer.add(from), run);
            inner[at..at + run].copy_from_slice(src);
        }
    }

    /// [`scatter`](Self::scatter) into a raw outer buffer; see
    /// [`gather_raw`](Self::gather_raw).
    ///
    /// # Safety
    /// `outer` must point at `2^outer_qubits` amplitudes, and no other thread
    /// may be accessing the indices of `assignment`.
    pub unsafe fn scatter_raw(
        &self,
        inner: &StateVector,
        outer: *mut Complex64,
        assignment: usize,
    ) {
        assert_eq!(inner.num_qubits(), self.inner_qubits());
        assert!(assignment < 1usize << self.free_qubits.len());
        let run = 1usize << self.run_bits;
        let inner = inner.amplitudes();
        for (at, to) in self.runs(assignment) {
            let dst = std::slice::from_raw_parts_mut(outer.add(to), run);
            dst.copy_from_slice(&inner[at..at + run]);
        }
    }

    /// The qubit remapping table `map[outer_qubit] = Some(inner_qubit)` for
    /// rewriting a part's gates onto the inner register.
    pub fn remap_table(&self) -> Vec<Option<Qubit>> {
        let mut map = vec![None; self.outer_qubits];
        for (inner, &outer) in self.part_qubits.iter().enumerate() {
            map[outer] = Some(inner);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{apply_circuit_with, run_circuit, ApplyOptions};
    use hisvsim_circuit::{generators, Circuit};

    #[test]
    fn gather_map_basic_indexing() {
        // 4-qubit outer state, part = qubits [1, 3].
        let map = GatherMap::new(4, &[1, 3]);
        assert_eq!(map.inner_qubits(), 2);
        assert_eq!(map.num_free_qubits(), 2);
        assert_eq!(map.free_qubits(), &[0, 2]);
        // assignment bits: bit0 -> qubit0, bit1 -> qubit2.
        assert_eq!(map.base_index(0b00), 0b0000);
        assert_eq!(map.base_index(0b01), 0b0001);
        assert_eq!(map.base_index(0b10), 0b0100);
        assert_eq!(map.base_index(0b11), 0b0101);
        // inner index bits: bit0 -> qubit1, bit1 -> qubit3.
        assert_eq!(map.outer_index(0b00, 0b01), 0b0010);
        assert_eq!(map.outer_index(0b00, 0b10), 0b1000);
        assert_eq!(map.outer_index(0b11, 0b11), 0b1111);
    }

    #[test]
    fn gather_then_scatter_is_identity() {
        let c = generators::random_circuit(5, 30, 3);
        let outer = run_circuit(&c);
        let map = GatherMap::new(5, &[4, 0, 2]);
        let mut rebuilt = StateVector::uninitialized(5);
        for assignment in 0..(1 << map.num_free_qubits()) {
            let inner = map.gather(&outer, assignment);
            map.scatter(&inner, &mut rebuilt, assignment);
        }
        assert!(rebuilt.approx_eq(&outer, 0.0));
    }

    #[test]
    fn gather_partitions_are_disjoint_and_exhaustive() {
        let map = GatherMap::new(6, &[5, 1]);
        let mut seen = [false; 1 << 6];
        for assignment in 0..(1 << map.num_free_qubits()) {
            for inner in 0..(1 << map.inner_qubits()) {
                let idx = map.outer_index(assignment, inner);
                assert!(!seen[idx], "outer index {idx} covered twice");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some outer indices never covered");
    }

    #[test]
    fn executing_a_part_via_gather_scatter_matches_flat_simulation() {
        // The core of Algorithm 1 on a single part: a sub-circuit touching
        // qubits {0, 2} of a 5-qubit state.
        let mut full = Circuit::new(5);
        full.h(0).h(1).cx(1, 3).ry(0.4, 2).cx(0, 2).rz(0.3, 2);

        // Flat reference.
        let expected = run_circuit(&full);

        // Hierarchical: run the first part {h0,h1,cx13} flat, then the part
        // on {0,2} via gather-execute-scatter.
        let mut prefix = Circuit::new(5);
        prefix.h(0).h(1).cx(1, 3);
        let mut part = Circuit::new(5);
        part.ry(0.4, 2).cx(0, 2).rz(0.3, 2);

        let mut outer = run_circuit(&prefix);
        let map = GatherMap::new(5, &[0, 2]);
        let inner_circuit = part.remap_qubits(&map.remap_table(), map.inner_qubits());
        let opts = ApplyOptions::sequential();
        let mut inner = StateVector::uninitialized(map.inner_qubits());
        for assignment in 0..(1 << map.num_free_qubits()) {
            map.gather_into(&outer, assignment, &mut inner);
            apply_circuit_with(&mut inner, &inner_circuit, &opts);
            map.scatter(&inner, &mut outer, assignment);
        }
        assert!(outer.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn remap_table_maps_part_qubits_in_order() {
        let map = GatherMap::new(6, &[4, 1, 5]);
        let table = map.remap_table();
        assert_eq!(table[4], Some(0));
        assert_eq!(table[1], Some(1));
        assert_eq!(table[5], Some(2));
        assert_eq!(table[0], None);
    }

    #[test]
    fn gather_reads_expected_amplitudes() {
        // Outer state with amp(i) = i for easy checking.
        let amps: Vec<Complex64> = (0..16).map(|i| Complex64::real(i as f64)).collect();
        let outer = StateVector::from_amplitudes(amps);
        let map = GatherMap::new(4, &[2, 0]); // inner bit0 -> qubit2, bit1 -> qubit0
        let inner = map.gather(&outer, 0b00);
        assert_eq!(inner.amp(0b00).re, 0.0);
        assert_eq!(inner.amp(0b01).re, 4.0); // qubit2 set
        assert_eq!(inner.amp(0b10).re, 1.0); // qubit0 set
        assert_eq!(inner.amp(0b11).re, 5.0);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_part_qubits_rejected() {
        let _ = GatherMap::new(4, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_part_qubit_rejected() {
        let _ = GatherMap::new(4, &[9]);
    }
}
