//! The dense state-vector container and basic linear-algebra operations on
//! quantum states.

use crate::buffers;
use crate::kernels::ApplyOptions;
use hisvsim_circuit::Complex64;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A dense `n`-qubit quantum state: `2^n` complex amplitudes, little-endian
/// (qubit 0 is the least-significant bit of the amplitude index).
///
/// Each amplitude is 16 bytes, so the memory footprint is `2^{n+4}` bytes —
/// the quantity the paper's Table I reports per benchmark.
///
/// A state owns its buffer's round trip through the process's [`buffers`]
/// pool: [`zero_state`](Self::zero_state), [`uninitialized`](Self::uninitialized)
/// and `clone` take their buffer from it, and a dropped state gives its
/// buffer back, the one handed to a caller included.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        let mut sv = Self::uninitialized(num_qubits);
        sv.amps[0] = Complex64::ONE;
        sv
    }

    /// A computational basis state `|index⟩`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let mut sv = Self::zero_state(num_qubits);
        sv.amps[0] = Complex64::ZERO;
        sv.amps[index] = Complex64::ONE;
        sv
    }

    /// Build a state from raw amplitudes; the length must be a power of two.
    /// The buffer joins the pool when the state is dropped.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "length must be a power of two"
        );
        let num_qubits = amps.len().trailing_zeros() as usize;
        Self { num_qubits, amps }
    }

    /// An unnormalised state of all-zero amplitudes, used as a scratch target
    /// for gather/scatter and distributed exchanges. A kept buffer is zeroed
    /// in place; a fresh one faults its pages in here. From the default
    /// options' parallel threshold up, the fill runs on the rayon pool the
    /// caller is in, as a sweep of the same width would.
    pub fn uninitialized(num_qubits: usize) -> Self {
        assert!(
            num_qubits < usize::BITS as usize - 4,
            "state of {num_qubits} qubits cannot be indexed on this platform"
        );
        let len = 1usize << num_qubits;
        let mut amps = buffers::take(len);
        amps.clear();
        if ApplyOptions::default().go_parallel(len) {
            let zeros = &mut amps.spare_capacity_mut()[..len];
            zeros.par_iter_mut().for_each(|amp| {
                amp.write(Complex64::ZERO);
            });
            // SAFETY: the first `len` slots of the capacity were just written.
            unsafe { amps.set_len(len) };
        } else {
            amps.resize(len, Complex64::ZERO);
        }
        Self { num_qubits, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of amplitudes (`2^n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Always false — a state vector has at least one amplitude.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read-only amplitude slice.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable amplitude slice.
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Consume the state and return its amplitudes: the buffer leaves the
    /// state, and its new owner answers for it (see [`buffers::give`]).
    pub fn into_amplitudes(mut self) -> Vec<Complex64> {
        std::mem::take(&mut self.amps)
    }

    /// Encode the amplitudes as little-endian bytes (`re`, `im` f64 pairs)
    /// — the wire shape `hisvsim-net` ships state slices in.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        amplitudes_to_le_bytes(&self.amps)
    }

    /// Decode a state from [`StateVector::to_le_bytes`] output. Panics if
    /// the byte count is not a power-of-two multiple of 16.
    pub fn from_le_bytes(bytes: &[u8]) -> Self {
        Self::from_amplitudes(amplitudes_from_le_bytes(bytes))
    }

    /// Single amplitude accessor.
    #[inline]
    pub fn amp(&self, index: usize) -> Complex64 {
        self.amps[index]
    }

    /// Total probability mass `Σ |a_i|^2` (1.0 for a normalised state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Normalise the state in place; returns the norm that was divided out.
    pub fn normalize(&mut self) -> f64 {
        let norm = self.norm_sqr().sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
        norm
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner_product(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps
            .iter()
            .zip(other.amps.iter())
            .fold(Complex64::ZERO, |acc, (a, b)| acc.mul_add(a.conj(), *b))
    }

    /// Fidelity `|⟨self|other⟩|^2` between two (normalised) states.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Probability of measuring the computational basis state `index`.
    #[inline]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Largest absolute per-component difference against another state.
    pub fn max_abs_diff(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| {
                let d = *a - *b;
                d.re.abs().max(d.im.abs())
            })
            .fold(0.0, f64::max)
    }

    /// True when every amplitude matches `other` within `tol`.
    pub fn approx_eq(&self, other: &StateVector, tol: f64) -> bool {
        self.num_qubits == other.num_qubits && self.max_abs_diff(other) <= tol
    }

    /// True when every amplitude is finite (no NaN/Inf crept in).
    pub fn is_finite(&self) -> bool {
        self.amps.iter().all(|a| a.is_finite())
    }
}

impl Clone for StateVector {
    /// A copy in a buffer from the pool.
    fn clone(&self) -> Self {
        let mut amps = buffers::take(self.amps.len());
        amps.clear();
        amps.extend_from_slice(&self.amps);
        Self {
            num_qubits: self.num_qubits,
            amps,
        }
    }
}

impl Drop for StateVector {
    /// The buffer goes back to the pool, for the next state or part.
    fn drop(&mut self) {
        buffers::give(std::mem::take(&mut self.amps));
    }
}

/// Encode a slice of amplitudes as little-endian bytes: 16 bytes per
/// amplitude, `re` then `im`, each an IEEE-754 f64. Bit-exact — the decode
/// of an encode reproduces the identical amplitudes, which is what lets a
/// multi-process run promise bit-identical results to an in-process one.
///
/// On a little-endian target that is the amplitudes' own memory, copied in
/// one piece; elsewhere each component is converted.
pub fn amplitudes_to_le_bytes(amps: &[Complex64]) -> Vec<u8> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `Complex64` is `repr(C)` with two `f64` fields — 16 bytes,
        // no padding — so the slice is `16 * len` initialised bytes, and `u8`
        // has no alignment to meet.
        let bytes = unsafe {
            std::slice::from_raw_parts(amps.as_ptr().cast::<u8>(), std::mem::size_of_val(amps))
        };
        bytes.to_vec()
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut out = Vec::with_capacity(amps.len() * 16);
        for amp in amps {
            out.extend_from_slice(&amp.re.to_le_bytes());
            out.extend_from_slice(&amp.im.to_le_bytes());
        }
        out
    }
}

/// Decode amplitudes from [`amplitudes_to_le_bytes`] output. Panics if the
/// byte count is not a multiple of 16.
pub fn amplitudes_from_le_bytes(bytes: &[u8]) -> Vec<Complex64> {
    assert!(
        bytes.len().is_multiple_of(16),
        "amplitude byte stream length {} is not a multiple of 16",
        bytes.len()
    );
    #[cfg(target_endian = "little")]
    {
        let count = bytes.len() / 16;
        let mut amps = Vec::<Complex64>::with_capacity(count);
        // SAFETY: the capacity spans `count` amplitudes, which is
        // `bytes.len()` bytes, in a fresh allocation that cannot overlap
        // `bytes`; every bit pattern is an `f64`, so after the copy the first
        // `count` amplitudes are initialised.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                amps.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            amps.set_len(count);
        }
        amps
    }
    #[cfg(not(target_endian = "little"))]
    bytes
        .chunks_exact(16)
        .map(|chunk| {
            Complex64::new(
                f64::from_le_bytes(chunk[0..8].try_into().unwrap()),
                f64::from_le_bytes(chunk[8..16].try_into().unwrap()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_has_unit_amplitude_at_origin() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.len(), 8);
        assert_eq!(sv.amp(0), Complex64::ONE);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-15);
        assert!(sv.is_finite());
    }

    #[test]
    fn basis_state_places_amplitude() {
        let sv = StateVector::basis_state(3, 5);
        assert_eq!(sv.amp(5), Complex64::ONE);
        assert_eq!(sv.probability(5), 1.0);
        assert_eq!(sv.probability(0), 0.0);
    }

    #[test]
    fn from_amplitudes_infers_width() {
        let sv = StateVector::from_amplitudes(vec![Complex64::ONE; 16]);
        assert_eq!(sv.num_qubits(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![Complex64::ONE; 3]);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut sv = StateVector::from_amplitudes(vec![Complex64::new(3.0, 0.0); 4]);
        let norm = sv.normalize();
        assert!((norm - 6.0).abs() < 1e-12);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_and_fidelity() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 1);
        let c = StateVector::basis_state(2, 2);
        assert!(a.inner_product(&b).approx_eq(Complex64::ONE, 1e-15));
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-15);
        assert!(a.fidelity(&c) < 1e-15);
    }

    #[test]
    fn le_byte_roundtrip_is_bit_exact() {
        let amps: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new((i as f64).sqrt(), -(i as f64) / 7.0))
            .collect();
        let sv = StateVector::from_amplitudes(amps);
        let bytes = sv.to_le_bytes();
        assert_eq!(bytes.len(), 8 * 16);
        let back = StateVector::from_le_bytes(&bytes);
        // Bit-exact, not approx: the wire format must not perturb results.
        assert_eq!(sv, back);
    }

    #[test]
    fn le_bytes_are_pinned() {
        // The wire layout, whichever path wrote it: `re` then `im`, each an
        // IEEE-754 double, least-significant byte first.
        let amps = [Complex64::new(1.0, -2.0), Complex64::new(0.5, 0.0)];
        #[rustfmt::skip]
        let golden = [
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0xC0,
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(amplitudes_to_le_bytes(&amps), golden);
        assert_eq!(amplitudes_from_le_bytes(&golden), amps);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn truncated_byte_stream_is_rejected() {
        let _ = amplitudes_from_le_bytes(&[0u8; 24]);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = StateVector::zero_state(2);
        let mut b = StateVector::zero_state(2);
        b.amplitudes_mut()[3] = Complex64::new(0.0, 0.25);
        assert!((a.max_abs_diff(&b) - 0.25).abs() < 1e-15);
        assert!(!a.approx_eq(&b, 1e-3));
        assert!(a.approx_eq(&b, 0.3));
    }
}
