//! # hisvsim-statevec
//!
//! Dense state-vector simulation kernels for HiSVSIM-RS.
//!
//! This crate provides the *computation* half of the paper's simulator:
//!
//! * [`state`] — the [`StateVector`] container (2^n complex amplitudes),
//!   with [`StateVector::permute_qubits`], the in-place qubit permutation a
//!   distributed run's final layout leaves to do,
//! * [`buffers`] — the one pool every amplitude buffer, states included,
//!   comes from and returns to,
//! * [`kernels`] — gate application (one kernel per op class: dense k ≤ 5,
//!   permutation, phase; sequential and rayon-parallel paths) plus the flat
//!   reference simulator [`kernels::run_circuit`],
//! * [`gather`] — the Gather/Scatter index machinery between outer and inner
//!   state vectors (paper Algorithm 1),
//! * [`fusion`] — greedy gate fusion into small dense unitaries (the
//!   kernel-level optimisation the paper calls orthogonal to its partitioning),
//! * [`measure`] — probabilities, sampling and expectation values,
//! * [`interrupt`] — the cooperative [`CancelToken`] the engines poll so a
//!   long sweep can be abandoned between checkpoints,
//! * [`simd`] — the lane abstraction the kernels are written over (AVX2 or
//!   scalar, bit-identical), selected per sweep via [`KernelDispatch`].
//!
//! The hierarchical, distributed and multi-level engines live in
//! `hisvsim-core` and are built entirely from these primitives.
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::Circuit;
//! use hisvsim_statevec::prelude::*;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let state = run_circuit(&bell);
//! assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
//! assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod buffers;
pub mod fusion;
pub mod gather;
pub mod interrupt;
pub mod kernels;
pub mod measure;
mod permute;
pub mod simd;
pub mod state;

pub use fusion::{FusedCircuit, FusedOp, FusionStrategy, Support, DEFAULT_FUSION_WIDTH};
pub use gather::GatherMap;
pub use interrupt::{CancelToken, Cancelled};
pub use kernels::{apply_circuit, apply_gate, run_circuit, ApplyOptions};
pub use simd::{simd_available, KernelDispatch};
pub use state::{amplitudes_from_le_bytes, amplitudes_to_le_bytes, StateVector};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::fusion::{FusedCircuit, FusedOp, FusionStrategy, Support, DEFAULT_FUSION_WIDTH};
    pub use crate::gather::GatherMap;
    pub use crate::kernels::{
        apply_circuit, apply_circuit_with, apply_gate, apply_gate_with, apply_gate_with_matrix,
        run_circuit, run_circuit_with, ApplyOptions,
    };
    pub use crate::measure;
    pub use crate::simd::{simd_available, KernelDispatch};
    pub use crate::state::StateVector;
}
