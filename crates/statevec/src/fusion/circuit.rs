//! The fused ops and [`FusedCircuit`], the form every engine executes.

use super::tile::Support;
use crate::kernels::{apply_dense_amps, ApplyOptions, DenseMasks};
use crate::state::StateVector;
use hisvsim_circuit::{Complex64, Gate, Qubit, UnitaryMatrix};

/// The fusion width every engine, the runtime and the workers fuse at.
///
/// Wider groups cut the number of state-vector sweeps but pay `2^k`
/// multiply-adds per gathered amplitude, so the CPU sweet spot sits at 3–4;
/// 3 is the conservative choice (the `fusion` bench's width sweep maps the
/// curve).
pub const DEFAULT_FUSION_WIDTH: usize = 3;

/// How fusion groups are discovered. There is one way, DAG antichain
/// grouping ([`FusedCircuit::new`]); the type and the `strategy` parameter
/// of [`FusedCircuit::with_strategy`] (and of the plan builders and planner
/// above this crate) stay only because the benchmark adapter
/// (`crates/bench/src/bin/hisvsim-bench/layers.rs`) passes
/// `FusionStrategy::default()`; they can go with the next PR that is allowed
/// to edit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionStrategy {
    /// DAG-driven antichain grouping over the gate-dependency graph.
    #[default]
    Dag,
}

/// One fused operation: a dense unitary over a small set of qubits.
#[derive(Debug, Clone)]
pub struct FusedGate {
    /// The qubits the fused unitary acts on; operand `j` is matrix bit `j`
    /// (the same convention as [`hisvsim_circuit::GateKind::matrix`]).
    pub qubits: Vec<Qubit>,
    /// The fused unitary, of dimension `2^qubits.len()`.
    pub matrix: UnitaryMatrix,
    /// How many original gates were merged into this one.
    pub fused_count: usize,
    /// Where the matrix has its zeros: derived once here, read by every
    /// sweep (it does not depend on where the gate is applied).
    pub(super) masks: DenseMasks,
}

impl FusedGate {
    /// A fused gate of `fused_count` source gates, with its zero masks.
    pub(super) fn new(qubits: Vec<Qubit>, matrix: UnitaryMatrix, fused_count: usize) -> Self {
        let masks = DenseMasks::of(&matrix);
        Self {
            qubits,
            matrix,
            fused_count,
            masks,
        }
    }

    /// Apply this fused gate to a state vector.
    pub fn apply(&self, state: &mut StateVector, opts: &ApplyOptions) {
        let amps = state.amplitudes_mut();
        apply_dense_amps(amps, &self.qubits, &self.matrix, &self.masks, 0, opts);
    }
}

/// One diagonal factor of a [`FusedOp::Diagonal`] run: a small diagonal table
/// over a few qubits (bit `b` of the table index is `qubits[b]`).
#[derive(Debug, Clone)]
pub struct DiagonalFactor {
    /// The qubits the factor depends on, at most
    /// [`MAX_STACK_KERNEL_QUBITS`](crate::kernels::MAX_STACK_KERNEL_QUBITS).
    pub(super) qubits: Vec<Qubit>,
    /// `2^qubits.len()` diagonal entries.
    pub(super) diag: Vec<Complex64>,
}

impl DiagonalFactor {
    /// The qubits the factor depends on.
    pub fn qubits(&self) -> &[Qubit] {
        &self.qubits
    }

    /// The `2^qubits().len()` diagonal entries.
    pub fn diag(&self) -> &[Complex64] {
        &self.diag
    }
}

/// One operation of a [`FusedCircuit`].
#[derive(Debug, Clone)]
pub enum FusedOp {
    /// A dense fused unitary (≥ 2 source gates), dispatched to the
    /// width-specialised kernels.
    Dense(FusedGate),
    /// A gate that stayed alone in its group (nothing adjacent fit): applied
    /// through the full [`crate::kernels::apply_gate_with_matrix`] dispatch,
    /// so X/CX/SWAP/controlled gates keep their matrix-free fast paths. The
    /// matrix is precomputed when that dispatch consumes one.
    Solo(Gate, Option<UnitaryMatrix>),
    /// A run of diagonal gates, applied in one streaming pass regardless of
    /// how many qubits the run touches (diagonals never mix amplitudes, so
    /// the run has no width limit).
    Diagonal {
        /// The diagonal factors, each covering a few qubits.
        factors: Vec<DiagonalFactor>,
        /// How many original gates the run absorbed.
        fused_count: usize,
    },
}

impl FusedOp {
    /// Apply this op to a state vector.
    pub fn apply(&self, state: &mut StateVector, opts: &ApplyOptions) {
        self.apply_inner(state, None, opts);
    }

    /// How many original gates this op absorbed.
    pub fn fused_count(&self) -> usize {
        match self {
            FusedOp::Dense(g) => g.fused_count,
            FusedOp::Solo(..) => 1,
            FusedOp::Diagonal { fused_count, .. } => *fused_count,
        }
    }

    /// Static trace-span name for this op's sweep kind.
    pub(super) fn span_name(&self) -> &'static str {
        match self {
            FusedOp::Dense(_) => "sweep:dense",
            FusedOp::Solo(..) => "sweep:solo",
            FusedOp::Diagonal { .. } => "sweep:diagonal",
        }
    }
}

/// A circuit compiled for fused execution: the first-class form every engine
/// executes. Construction pays the fusion cost once (greedy grouping plus the
/// small matrix products); `apply` then sweeps the state once per pass with
/// the width-specialised, allocation-free kernels.
#[derive(Debug, Clone)]
pub struct FusedCircuit {
    pub(super) num_qubits: usize,
    pub(super) ops: Vec<FusedOp>,
    pub(super) fusion_width: usize,
    pub(super) source_gates: usize,
}

impl FusedCircuit {
    /// Number of qubits of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The fused operations, in execution order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of fused operations (state-vector sweeps).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of gates of the source circuit.
    pub fn source_gates(&self) -> usize {
        self.source_gates
    }

    /// The width this circuit was fused at.
    pub fn fusion_width(&self) -> usize {
        self.fusion_width
    }

    /// Apply the fused circuit to a state vector: every pass of
    /// [`passes`](Self::passes), in order.
    pub fn apply(&self, state: &mut StateVector, opts: &ApplyOptions) {
        assert!(
            self.num_qubits <= state.num_qubits(),
            "fused circuit needs {} qubits, state has {}",
            self.num_qubits,
            state.num_qubits()
        );
        for pass in self.passes(state.num_qubits(), None) {
            self.apply_pass(state, pass, None, Support::ANY, opts);
        }
    }

    /// Apply with a qubit translation: fused qubit `q` acts on state qubit
    /// `map[q]`. Lets the distributed engines share one fused circuit across
    /// every rank and layout: the fused matrices and their zero masks are
    /// never recomputed — only qubit references are translated, and each
    /// diagonal run is classified for the positions it lands on.
    pub fn apply_mapped(&self, state: &mut StateVector, map: &[Qubit], opts: &ApplyOptions) {
        assert!(
            map.len() >= self.num_qubits,
            "qubit map covers {} qubits, fused circuit has {}",
            map.len(),
            self.num_qubits
        );
        for pass in self.passes(state.num_qubits(), Some(map)) {
            self.apply_pass(state, pass, Some(map), Support::ANY, opts);
        }
    }

    /// Run from `|0…0⟩` and return the resulting state.
    pub fn run(&self, opts: &ApplyOptions) -> StateVector {
        let mut state = StateVector::zero_state(self.num_qubits);
        self.apply(&mut state, opts);
        state
    }
}
