//! Gate fusion: merge runs of gates acting on a small qubit set into one
//! dense unitary applied with a single sweep of the state vector.
//!
//! The paper positions HiSVSIM's circuit partitioning as *orthogonal and
//! complementary* to gate fusion and the other kernel-level optimisations of
//! existing simulators (Sec. II-C). This module provides exactly that
//! complementary optimisation so the combination can be exercised: fusing
//! reduces the number of ops, and the cache-blocked pass order
//! ([`FusedCircuit::passes`]) runs each stretch of ops whose mixing qubits
//! fit one 2^16-amplitude tile as one pass over the state — the paper's
//! Algorithm 1 at tile granularity: each tile, strided chunks when the ops
//! reach above them, is gathered into an L2-sized buffer, swept by every op
//! of the pass and scattered back.
//!
//! Two fusion forms live here:
//!
//! * [`FusedCircuit`] — the engine-facing pipeline: grouping along
//!   antichains of the gate-dependency DAG into cost-model-gated dense
//!   groups, width-unlimited diagonal runs executed as one blocked streaming
//!   pass, and solo fast-path gates. A dense op carries its matrix's zero
//!   masks, derived once at build time; a diagonal run is classified for the
//!   block sweep where it is swept, against the positions it lands on. Every
//!   engine executes circuits through this form, fused at
//!   [`DEFAULT_FUSION_WIDTH`]; a plan fuses each part of a partition in
//!   place, on the circuit's own DAG ([`FusedCircuit::from_part`]).
//! * [`fuse_circuit`] — the minimal adjacent-only greedy scanner, kept as a
//!   simple reference implementation and test oracle (dense groups only, no
//!   reordering, no specialisation).
//!
//! One file per seam: `circuit` holds the ops and [`FusedCircuit`];
//! `group` the grouping walk, the fusion cost model and the reference
//! scanner; `diagonal` the blocked streaming sweep of a diagonal run; and
//! `tile` the tile shapes, the pass segmentation and the cache-blocked walk
//! over a pass's tiles.

mod circuit;
mod diagonal;
mod group;
#[cfg(test)]
mod tests;
mod tile;

pub use circuit::{
    DiagonalFactor, FusedCircuit, FusedGate, FusedOp, FusionStrategy, DEFAULT_FUSION_WIDTH,
};
pub use group::{fuse_circuit, fusion_fallback_count, run_fused};
pub use tile::{strided_passes, Support, TILE};
