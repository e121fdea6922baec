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
/// Amplitudes move in *chunks*: the inner vector is cut into pieces of
/// `2^chunk_bits` amplitudes whose outer positions all lie in one aligned
/// window of the outer vector. When the low inner qubits are the low outer
/// qubits in order (the usual case — working sets are sorted, so this holds
/// up to the lowest free qubit) and that run is long, a chunk is one
/// contiguous copy; when a free qubit sits low (the QFT's parts leave qubit 0
/// or 1 free) a chunk is a 256-amplitude window compacted through a small
/// offset list. Either way the map stores `O(w)` words plus at most 256
/// offsets, not a `2^w`-entry table.
#[derive(Debug, Clone)]
pub struct GatherMap {
    outer_qubits: usize,
    /// Outer qubit index of each inner qubit position.
    part_qubits: Vec<Qubit>,
    /// Outer qubit indices not in the part, ascending.
    free_qubits: Vec<Qubit>,
    /// Inner qubits `0..chunk_bits` are the part's qubits below the window
    /// size; a chunk is the inner amplitudes that differ only in them.
    chunk_bits: usize,
    /// Outer offset of each amplitude of a chunk from the chunk's base; empty
    /// when those offsets are `0, 1, 2, …` (the chunk is contiguous).
    chunk_offsets: Vec<u16>,
    /// `chunk_steps[t]`: how far the outer base moves from chunk `c` to chunk
    /// `c + 1` when `c` ends in exactly `t` one bits (bit `t` of the chunk
    /// counter sets, the `t` below it clear), as a wrapping difference.
    chunk_steps: Vec<usize>,
}

/// Window (in outer index bits) a chunk is gathered from when the part's low
/// qubits are not one long contiguous run.
const WINDOW_BITS: usize = 8;

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

        // The window is the contiguous run from qubit 0 when that is long,
        // and a fixed small window otherwise; the chunk is the leading inner
        // qubits that fall inside it. Should a later inner qubit fall inside
        // as well (an unsorted part), chunks degenerate to single amplitudes.
        let contiguous = part_qubits
            .iter()
            .enumerate()
            .take_while(|&(j, &q)| j == q)
            .count();
        let window_bits = contiguous.max(WINDOW_BITS.min(outer_qubits));
        let leading = part_qubits.iter().take_while(|&&q| q < window_bits).count();
        let chunk_bits = match part_qubits[leading..].iter().any(|&q| q < window_bits) {
            true => 0,
            false => leading,
        };
        let deposit = |index: usize, qubits: &[Qubit]| {
            qubits
                .iter()
                .enumerate()
                .fold(0, |at, (j, &q)| at | ((index >> j) & 1) << q)
        };
        let chunk_offsets = match chunk_bits == contiguous {
            true => Vec::new(),
            false => (0..1usize << chunk_bits)
                .map(|j| deposit(j, &part_qubits[..chunk_bits]) as u16)
                .collect(),
        };
        let mut below = 0usize;
        let mut chunk_steps = Vec::with_capacity(part_qubits.len() - chunk_bits + 1);
        for &q in &part_qubits[chunk_bits..] {
            chunk_steps.push((1usize << q).wrapping_sub(below));
            below += 1usize << q;
        }
        // After the last chunk there is nowhere to go.
        chunk_steps.push(0);

        Self {
            outer_qubits,
            part_qubits: part_qubits.to_vec(),
            free_qubits,
            chunk_bits,
            chunk_offsets,
            chunk_steps,
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

    /// `(inner offset, outer base)` of every chunk of one assignment, in
    /// inner order.
    #[inline]
    fn chunks(&self, assignment: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let chunk = 1usize << self.chunk_bits;
        let mut outer = self.base_index(assignment);
        (0..1usize << (self.inner_qubits() - self.chunk_bits)).map(move |c| {
            let at = outer;
            outer = outer.wrapping_add(self.chunk_steps[c.trailing_ones() as usize]);
            (c * chunk, at)
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
        let chunk = 1usize << self.chunk_bits;
        let inner = inner.amplitudes_mut();
        for (at, base) in self.chunks(assignment) {
            let inner = &mut inner[at..at + chunk];
            let outer = outer.add(base);
            if self.chunk_offsets.is_empty() {
                inner.copy_from_slice(std::slice::from_raw_parts(outer, chunk));
            } else {
                for (slot, &offset) in inner.iter_mut().zip(&self.chunk_offsets) {
                    *slot = *outer.add(offset as usize);
                }
            }
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
        let chunk = 1usize << self.chunk_bits;
        let inner = inner.amplitudes();
        for (at, base) in self.chunks(assignment) {
            let inner = &inner[at..at + chunk];
            let outer = outer.add(base);
            if self.chunk_offsets.is_empty() {
                std::slice::from_raw_parts_mut(outer, chunk).copy_from_slice(inner);
            } else {
                for (&amp, &offset) in inner.iter().zip(&self.chunk_offsets) {
                    *outer.add(offset as usize) = amp;
                }
            }
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
    fn gather_and_scatter_follow_outer_index_for_every_part_shape() {
        // Contiguous prefix (long and short), a free qubit at 0, at 1, in
        // the middle and at the top, parts wider than the offset window,
        // and unsorted parts (which fall back to single-amplitude chunks).
        let n = 11;
        let without =
            |free: &[Qubit]| -> Vec<Qubit> { (0..n).filter(|q| !free.contains(q)).collect() };
        let parts: Vec<Vec<Qubit>> = vec![
            (0..n).collect(),
            (0..9).collect(),
            (0..3).collect(),
            without(&[0]),
            without(&[1]),
            without(&[5]),
            without(&[n - 1]),
            without(&[0, 1, 2]),
            without(&[2, 7, 9]),
            vec![0, 1, 9, 10],
            vec![3],
            vec![4, 0, 2],
            vec![10, 9, 1, 0],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 9, 8],
        ];
        let amps: Vec<Complex64> = (0..1 << n).map(|i| Complex64::new(i as f64, 0.5)).collect();
        let outer = StateVector::from_amplitudes(amps);
        for part in parts {
            let map = GatherMap::new(n, &part);
            let mut rebuilt = StateVector::uninitialized(n);
            let mut inner = StateVector::uninitialized(map.inner_qubits());
            for assignment in 0..1 << map.num_free_qubits() {
                map.gather_into(&outer, assignment, &mut inner);
                for j in 0..inner.len() {
                    assert_eq!(
                        inner.amp(j),
                        outer.amp(map.outer_index(assignment, j)),
                        "part {part:?}, assignment {assignment}, inner {j}"
                    );
                }
                map.scatter(&inner, &mut rebuilt, assignment);
            }
            assert_eq!(
                rebuilt, outer,
                "part {part:?}: scatter did not invert gather"
            );
        }
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
