//! # hisvsim-dag
//!
//! Circuit-DAG machinery for HiSVSIM-RS: the graph model the paper's
//! partitioning strategies operate on.
//!
//! * [`dag`] — [`CircuitDag`]: gate vertices plus per-qubit entry/exit
//!   vertices with qubit-labelled dependency edges, topological orders
//!   (natural and seeded random-DFS), working-set computation, and the
//!   critical path.
//! * [`partition`] — [`Partition`] (per-gate part assignment), the quotient
//!   [`PartGraph`], and validation of the paper's three partitioning
//!   conditions (coverage, working-set limit `Lm`, acyclicity).
//! * [`fusion`] — [`antichain_fusion_groups`]: DAG-driven fusion grouping
//!   along the ready frontier, the structural-commutation covering that
//!   feeds `hisvsim-statevec`'s `FusedCircuit::from_part` (a whole
//!   circuit, or one part of a partition in place).
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::generators;
//! use hisvsim_dag::{CircuitDag, Partition};
//!
//! let circuit = generators::qft(6);
//! let dag = CircuitDag::from_circuit(&circuit);
//! assert_eq!(dag.num_gate_nodes(), circuit.num_gates());
//!
//! // A trivial one-part partition is valid when the limit admits all qubits.
//! let part = Partition::single_part(circuit.num_gates());
//! assert!(part.validate(&dag, 6).is_ok());
//! assert!(part.validate(&dag, 5).is_err());
//! ```

#![warn(missing_docs)]

pub mod dag;
pub mod fusion;
pub mod partition;

pub use dag::{CircuitDag, Edge, NodeId, NodeKind, QubitSet};
pub use fusion::{antichain_fusion_groups, FusionGroup, GateClass};
pub use partition::{PartGraph, Partition, PartitionError};
