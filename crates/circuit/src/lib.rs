//! # hisvsim-circuit
//!
//! Quantum circuit intermediate representation for HiSVSIM-RS, the Rust
//! reproduction of *"Efficient Hierarchical State Vector Simulation of
//! Quantum Circuits via Acyclic Graph Partitioning"* (CLUSTER 2022).
//!
//! This crate is the bottom of the workspace dependency graph and provides:
//!
//! * [`math`] — the [`Complex64`] amplitude type and small
//!   unitary matrices,
//! * [`gate`] — the gate vocabulary ([`GateKind`]) with
//!   unitaries, inverses and metadata,
//! * [`circuit`] — the [`Circuit`] IR and builder,
//! * [`qasm`] — an OpenQASM 2.0 reader/writer for the QASMBench subset,
//! * [`generators`] — re-implementations of the paper's 13 benchmark circuit
//!   configurations (Table I), parameterised by width.
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::prelude::*;
//!
//! let mut c = Circuit::named("bell", 2);
//! c.h(0).cx(0, 1);
//! assert_eq!(c.depth(), 2);
//! assert!(c.gates()[0].matrix().is_unitary(1e-12));
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod gate;
pub mod generators;
pub mod math;
pub mod qasm;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::circuit::Circuit;
    pub use crate::gate::{Gate, GateKind, Qubit};
    pub use crate::math::{Complex64, UnitaryMatrix};
}

pub use circuit::Circuit;
pub use gate::{Gate, GateKind, Qubit};
pub use math::{Complex64, UnitaryMatrix};
