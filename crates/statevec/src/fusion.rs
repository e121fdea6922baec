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
//!   pass, and solo fast-path gates, with per-op kernel data (a dense
//!   matrix's zero masks, a diagonal run's block classification) derived
//!   once at build time. Every engine executes circuits through this form,
//!   fused at [`DEFAULT_FUSION_WIDTH`]; a plan fuses each part of a
//!   partition in place, on the circuit's own DAG
//!   ([`FusedCircuit::from_part`]).
//! * [`fuse_circuit`] — the minimal adjacent-only greedy scanner, kept as a
//!   simple reference implementation and test oracle (dense groups only, no
//!   reordering, no specialisation).

use crate::kernels::{
    apply_dense_amps, apply_k_qubit, apply_kind_amps, for_each_range, ApplyOptions, DenseMasks,
    MAX_STACK_KERNEL_QUBITS,
};
use crate::simd::{lanes_dispatch, Lanes};
use crate::state::StateVector;
use hisvsim_circuit::{Circuit, Complex64, Gate, Qubit, UnitaryMatrix};
use hisvsim_dag::{antichain_fusion_groups, CircuitDag, GateClass};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The most qubits one gate acts on (Toffoli, CSWAP).
const MAX_GATE_QUBITS: usize = 3;

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
}

impl FusedGate {
    /// Apply this fused gate to a state vector.
    pub fn apply(&self, state: &mut StateVector, opts: &ApplyOptions) {
        apply_k_qubit(state, &self.qubits, &self.matrix, opts);
    }
}

/// Fuse a circuit into dense multi-qubit unitaries of at most
/// `max_fused_qubits` qubits each.
///
/// `max_fused_qubits` of 1 disables cross-qubit fusion but still merges runs
/// of single-qubit gates on the same wire; typical values are 2–5 (larger
/// matrices cost exponentially more arithmetic per amplitude, so there is a
/// sweet spot, usually around 3–4 for CPU simulation).
pub fn fuse_circuit(circuit: &Circuit, max_fused_qubits: usize) -> Vec<FusedGate> {
    assert!(max_fused_qubits >= 1, "fusion width must be at least 1");
    let mut fused: Vec<FusedGate> = Vec::new();
    let mut group: Vec<usize> = Vec::new(); // gate indices of the open group
    let mut group_qubits: Vec<Qubit> = Vec::new();
    let mut scratch = [Complex64::ZERO; _];

    let mut flush =
        |group: &mut Vec<usize>, group_qubits: &mut Vec<Qubit>, fused: &mut Vec<FusedGate>| {
            if group.is_empty() {
                return;
            }
            let qubits = std::mem::take(group_qubits);
            let matrix = build_group_matrix(circuit, group, &qubits, &mut scratch);
            fused.push(FusedGate {
                qubits,
                matrix,
                fused_count: group.len(),
            });
            group.clear();
        };

    for (index, gate) in circuit.gates().iter().enumerate() {
        if gate.arity() > max_fused_qubits {
            // Emit the open group, then the oversized gate on its own.
            flush(&mut group, &mut group_qubits, &mut fused);
            fused.push(FusedGate {
                qubits: gate.qubits.clone(),
                matrix: gate.matrix(),
                fused_count: 1,
            });
            continue;
        }
        let mut union = group_qubits.clone();
        for &q in &gate.qubits {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        if union.len() > max_fused_qubits {
            flush(&mut group, &mut group_qubits, &mut fused);
            group_qubits = gate.qubits.clone();
        } else {
            group_qubits = union;
        }
        group.push(index);
    }
    flush(&mut group, &mut group_qubits, &mut fused);
    fused
}

/// Multiply the gates of a fusion group into one dense matrix over
/// `group_qubits` (operand `j` of the fused gate = `group_qubits[j]`).
///
/// Each gate multiplies the running product from the left as its embedding
/// in the group space would (`embedded.matmul(&total)`), with the same
/// multiply-adds in the same order, bit for bit: a row of the new product
/// sums, from zero, over the embedded row's nonzero entries in ascending
/// column, entry times that row of the old product. An embedded row is
/// nonzero only on the columns that agree with it off the gate's qubits, so
/// only those rows are read, and the embedding is never formed. The old and
/// the new product alternate between the result and `spare`, the caller's
/// scratch; a group wider than it fits takes its own.
fn build_group_matrix(
    circuit: &Circuit,
    group: &[usize],
    group_qubits: &[Qubit],
    spare: &mut GroupScratch,
) -> UnitaryMatrix {
    let dim = 1usize << group_qubits.len();
    let mut total = vec![Complex64::ZERO; dim * dim];
    for (r, row) in total.chunks_exact_mut(dim).enumerate() {
        row[r] = Complex64::ONE;
    }
    let mut heap = Vec::new();
    let spare: &mut [Complex64] = match spare.get_mut(..dim * dim) {
        Some(spare) => spare,
        None => {
            heap.resize(dim * dim, Complex64::ZERO);
            &mut heap
        }
    };
    let (mut old, mut new) = (&mut total[..], spare);
    for &gate_index in group {
        let gate = &circuit.gates()[gate_index];
        let g = gate.matrix();
        assert!(
            gate.arity() <= MAX_GATE_QUBITS,
            "gates act on at most 3 qubits"
        );
        // The group row of each gate sub-index, off the gate's qubits.
        let mut bits = [0usize; MAX_GATE_QUBITS];
        for (bit, &q) in bits.iter_mut().zip(&gate.qubits) {
            *bit = (group_qubits.iter().position(|&g| g == q))
                .expect("a group's qubits hold every qubit of its gates");
        }
        let mut offsets = [0usize; 1 << MAX_GATE_QUBITS];
        for (sub, offset) in offsets[..g.dim()].iter_mut().enumerate() {
            for (j, &bit) in bits[..gate.arity()].iter().enumerate() {
                *offset |= ((sub >> j) & 1) << bit;
            }
        }
        let offsets = &offsets[..g.dim()];
        // Sub-columns in ascending group column, the order the product sums.
        let mut columns = [0usize; 1 << MAX_GATE_QUBITS];
        let columns = &mut columns[..g.dim()];
        for (sub, slot) in columns.iter_mut().enumerate() {
            *slot = sub;
        }
        columns.sort_unstable_by_key(|&sub| offsets[sub]);
        let gate_mask = offsets[g.dim() - 1];
        for base in (0..dim).filter(|&base| base & gate_mask == 0) {
            for (sub_row, &row_offset) in offsets.iter().enumerate() {
                let row = base | row_offset;
                let out = &mut new[row * dim..(row + 1) * dim];
                let mut first = true;
                for &sub_col in columns.iter() {
                    let a = g.get(sub_row, sub_col);
                    if a == Complex64::ZERO {
                        continue;
                    }
                    let from = base | offsets[sub_col];
                    let from = &old[from * dim..(from + 1) * dim];
                    for (slot, &b) in out.iter_mut().zip(from) {
                        let sum = if first { Complex64::ZERO } else { *slot };
                        *slot = sum.mul_add(a, b);
                    }
                    first = false;
                }
                if first {
                    out.fill(Complex64::ZERO);
                }
            }
        }
        std::mem::swap(&mut old, &mut new);
    }
    // The product is in `old`; after an odd count of gates that is `spare`.
    if group.len() % 2 == 1 {
        new.copy_from_slice(old);
    }
    UnitaryMatrix::from_rows(total)
}

/// Scratch for one running product in [`build_group_matrix`]: a group of up
/// to [`DEFAULT_FUSION_WIDTH`] qubits.
type GroupScratch = [Complex64; 1 << (2 * DEFAULT_FUSION_WIDTH)];

/// Run a circuit from `|0…0⟩` through its fused form.
pub fn run_fused(circuit: &Circuit, max_fused_qubits: usize, opts: &ApplyOptions) -> StateVector {
    let fused = fuse_circuit(circuit, max_fused_qubits);
    let mut state = StateVector::zero_state(circuit.num_qubits());
    for op in &fused {
        op.apply(&mut state, opts);
    }
    state
}

// ---------------------------------------------------------------------------
// the fused execution pipeline
// ---------------------------------------------------------------------------

/// One diagonal factor of a [`FusedOp::Diagonal`] run: a small diagonal table
/// over a few qubits (bit `b` of the table index is `qubits[b]`).
#[derive(Debug, Clone)]
pub struct DiagonalFactor {
    /// The qubits the factor depends on, at most
    /// [`MAX_STACK_KERNEL_QUBITS`].
    qubits: Vec<Qubit>,
    /// `2^qubits.len()` diagonal entries.
    diag: Vec<Complex64>,
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

/// Per-op data derived from the fused form once at build time (zero masks of
/// dense matrices, block classification of diagonal runs), so a plan's
/// repeated sweeps never re-derive it.
#[derive(Debug, Clone)]
enum PreparedOp {
    Dense(DenseMasks),
    Diagonal(PreparedDiagonal),
    Solo,
}

/// Derive an op's kernel data for states of `state_qubits` qubits (what
/// sizes the diagonal block).
fn prepare_op(op: &FusedOp, state_qubits: usize) -> PreparedOp {
    match op {
        FusedOp::Dense(g) => PreparedOp::Dense(DenseMasks::of(&g.matrix)),
        FusedOp::Diagonal { factors, .. } => {
            PreparedOp::Diagonal(prepare_diagonal(factors, None, state_qubits))
        }
        FusedOp::Solo(..) => PreparedOp::Solo,
    }
}

/// An op's operand qubits after the optional translation — on the stack for
/// every width the kernels run without heap scratch, so translating costs no
/// allocation per op or per tile.
enum Operands {
    Stack([Qubit; MAX_STACK_KERNEL_QUBITS], usize),
    Heap(Vec<Qubit>),
}

impl Operands {
    /// `qubits` aimed through `map`, then at their positions in a tile of
    /// `shape` when there is one.
    fn translate(qubits: &[Qubit], map: Option<&[Qubit]>, shape: Option<TileShape>) -> Self {
        let target = |&q: &Qubit| {
            let q = map.map_or(q, |m| m[q]);
            shape.map_or(q, |shape| shape.position(q))
        };
        if qubits.len() <= MAX_STACK_KERNEL_QUBITS {
            let mut stack = [0; MAX_STACK_KERNEL_QUBITS];
            for (slot, q) in stack.iter_mut().zip(qubits) {
                *slot = target(q);
            }
            Operands::Stack(stack, qubits.len())
        } else {
            Operands::Heap(qubits.iter().map(target).collect())
        }
    }

    fn as_slice(&self) -> &[Qubit] {
        match self {
            Operands::Stack(stack, len) => &stack[..*len],
            Operands::Heap(heap) => heap,
        }
    }
}

impl FusedOp {
    /// Apply this op to a state vector.
    pub fn apply(&self, state: &mut StateVector, opts: &ApplyOptions) {
        let prep = prepare_op(self, state.num_qubits());
        self.apply_inner(state, &prep, None, opts);
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
    fn span_name(&self) -> &'static str {
        match self {
            FusedOp::Dense(_) => "sweep:dense",
            FusedOp::Solo(..) => "sweep:solo",
            FusedOp::Diagonal { .. } => "sweep:diagonal",
        }
    }

    /// Apply this op with an optional qubit translation (`map[q]` = target
    /// qubit). The distributed engines use the map to aim one shared fused
    /// circuit at each rank's layout without re-fusing; the prepared data
    /// (matrix-shaped, so translation-invariant for dense ops) is shared.
    fn apply_inner(
        &self,
        state: &mut StateVector,
        prep: &PreparedOp,
        map: Option<&[Qubit]>,
        opts: &ApplyOptions,
    ) {
        let state_qubits = state.num_qubits();
        let item = tile_op(self, prep, map, None, state_qubits);
        item.apply(state.amplitudes_mut(), 0, opts);
    }
}

/// Largest block of the diagonal streaming pass, in index bits: factors whose
/// qubits all sit at or above the block are constant across it and cost one
/// table lookup per block instead of one per amplitude. States smaller than
/// this are one block.
const DIAG_BLOCK_BITS: usize = 8;
/// Per-amplitude tables one pass multiplies together; a run with more is
/// split into several passes (rare: a run needs more than eight factors that
/// each reach below the block).
const MAX_STREAMS: usize = 8;

/// The high (block-constant) qubits of a factor, each with the table bit it
/// sets: at most a factor's [`MAX_STACK_KERNEL_QUBITS`] of them, in a few
/// bytes (a state index has fewer than 256 bits).
#[derive(Debug, Clone, Copy)]
struct HiBits {
    bits: [(u8, u8); MAX_STACK_KERNEL_QUBITS],
    len: u8,
}

impl HiBits {
    /// Table index contributed by the high qubits at block base `base`.
    #[inline(always)]
    fn sub(&self, base: usize) -> usize {
        let mut sub = 0usize;
        for &(q, shift) in &self.bits[..self.len as usize] {
            sub |= ((base >> q) & 1) << shift;
        }
        sub
    }
}

/// A factor whose qubits all sit at or above the block: one value per block,
/// `table[hi.sub(base)]`.
#[derive(Debug, Clone)]
struct BlockFactor {
    table: Vec<Complex64>,
    hi: HiBits,
}

/// Steps of two amplitudes in one diagonal block.
const BLOCK_STEPS: usize = 1 << (DIAG_BLOCK_BITS - 1);

/// A factor that varies inside a block, laid out so
/// each two-amplitude step is one contiguous load: for block base `base` and
/// step `v` (amplitudes `2v, 2v + 1`) the two phases are
/// `table[hi.sub(base) + lane0[v]]` and the entry after it. The low
/// qubits index the table in ascending order with qubit 0 — or a duplicated
/// dummy bit when the factor does not depend on it — as bit 0, which is what
/// makes the pair adjacent.
#[derive(Debug, Clone)]
struct Stream {
    table: Vec<Complex64>,
    hi: HiBits,
    /// The first `block / 2` entries are the block's steps.
    lane0: [u8; BLOCK_STEPS],
    /// Entries per sub-table (one sub-table per assignment of the high
    /// qubits).
    width: usize,
    /// Bit `i` set: every entry of sub-table `i` (of at most 2^5) is
    /// exactly one, so the block skips it.
    identity: u32,
}

impl Stream {
    fn new(table: Vec<Complex64>, hi: HiBits, lane0: [u8; BLOCK_STEPS]) -> Self {
        let width = table.len() >> hi.len;
        let identity = (table.chunks_exact(width).enumerate())
            .filter(|(_, sub)| sub.iter().all(|&entry| entry == Complex64::ONE))
            .fold(0, |mask, (i, _)| mask | 1 << i);
        Self {
            table,
            hi,
            lane0,
            width,
            identity,
        }
    }
}

/// Widest sub-table the block phase is folded into (see
/// [`run_prepared_diagonal_amps`]): the stream of any factor the fusion
/// builders emit (at most [`MAX_STACK_KERNEL_QUBITS`] qubits) fits.
const MAX_FOLD_WIDTH: usize = 2 << MAX_STACK_KERNEL_QUBITS;

/// One sweep of a diagonal run: every amplitude is multiplied by the product
/// of the block's constant factors and of at most [`MAX_STREAMS`] streams.
#[derive(Debug, Clone)]
struct DiagPass {
    constant: Vec<BlockFactor>,
    streams: Vec<Stream>,
}

/// A diagonal run classified for the block sweep. Built once per
/// [`FusedCircuit`] (so a plan's repeated sweeps never re-derive it), or
/// per rank translation in the mapped path.
#[derive(Debug, Clone)]
struct PreparedDiagonal {
    block_bits: usize,
    passes: Vec<DiagPass>,
}

/// Classify a diagonal run's factors for the block sweep over states of
/// `state_qubits` qubits, optionally translating qubits through `map` first
/// (the per-rank path). Factors entirely above the block become per-block
/// constants; every other factor becomes one stream.
fn prepare_diagonal(
    factors: &[DiagonalFactor],
    map: Option<&[Qubit]>,
    state_qubits: usize,
) -> PreparedDiagonal {
    let block_bits = DIAG_BLOCK_BITS.min(state_qubits).max(1);
    let block = 1usize << block_bits;
    let mut constant = Vec::new();
    let mut streams = Vec::new();
    for factor in factors {
        // (translated qubit, factor table bit), ascending by qubit.
        let mut bits = [(0, 0); MAX_STACK_KERNEL_QUBITS];
        let bits = &mut bits[..factor.qubits.len()];
        for (b, (slot, &q)) in bits.iter_mut().zip(&factor.qubits).enumerate() {
            *slot = (map.map_or(q, |m| m[q]), b);
        }
        bits.sort_unstable();
        let split = bits.partition_point(|&(q, _)| q < block_bits);
        let (low, high) = bits.split_at(split);
        // Bit 0 of a stream index is qubit 0, or a dummy when the factor
        // does not touch it (a constant factor has neither).
        let dummy = low.first().is_some_and(|&(q, _)| q != 0) as usize;
        // Position of qubit number `n` of `low ++ high` in the new index.
        let position = |n: usize| n + dummy;
        // The factor's entry for every new-order index: the table bits an
        // index sets, each index from the one with its lowest bit cleared.
        let index_bits = dummy + bits.len();
        let mut subs = [0usize; 2 << MAX_STACK_KERNEL_QUBITS];
        for e in 1..1usize << index_bits {
            let lowest = e.trailing_zeros() as usize;
            let bit = lowest.checked_sub(dummy).map_or(0, |n| 1 << bits[n].1);
            subs[e] = subs[e & (e - 1)] | bit;
        }
        let table = (subs[..1 << index_bits].iter())
            .map(|&sub| factor.diag[sub])
            .collect();
        let mut hi = HiBits {
            bits: [(0, 0); MAX_STACK_KERNEL_QUBITS],
            len: high.len() as u8,
        };
        for (n, (slot, &(q, _))) in hi.bits.iter_mut().zip(high).enumerate() {
            let q = u8::try_from(q).expect("a state index has fewer than 256 bits");
            *slot = (q, position(low.len() + n) as u8);
        }
        if low.is_empty() {
            constant.push(BlockFactor { table, hi });
            continue;
        }
        // Stream index of the even amplitude of every step of a block: bit
        // `t` of the step is bit `t + 1` of the amplitude.
        let mut step_bit = [0u8; DIAG_BLOCK_BITS];
        for (n, &(q, _)) in low.iter().enumerate().filter(|(_, &(q, _))| q > 0) {
            step_bit[q - 1] = 1 << position(n);
        }
        let mut lane0 = [0u8; BLOCK_STEPS];
        for v in 1..block / 2 {
            lane0[v] = lane0[v & (v - 1)] | step_bit[v.trailing_zeros() as usize];
        }
        streams.push(Stream::new(table, hi, lane0));
    }
    // Narrowest first: the block phase folds into the first active stream.
    // A plan keeps these for as long as it is cached, so they keep no slack.
    streams.sort_by_key(|stream| stream.width);
    streams.shrink_to_fit();
    constant.shrink_to_fit();
    let mut passes = vec![DiagPass { constant, streams }];
    while let Some(last) = passes
        .last_mut()
        .filter(|pass| pass.streams.len() > MAX_STREAMS)
    {
        let streams = last.streams.split_off(MAX_STREAMS);
        passes.push(DiagPass {
            constant: Vec::new(),
            streams,
        });
    }
    PreparedDiagonal { block_bits, passes }
}

/// Apply a run of diagonal factors as streaming passes: every amplitude is
/// read and written at most once per pass (one pass unless the run has more
/// than [`MAX_STREAMS`] streams), multiplied by the product of its factors.
///
/// Per block, streams whose sub-table is all ones drop out, the constant
/// factors' product folds into the narrowest remaining sub-table (a stack
/// copy of at most [`MAX_FOLD_WIDTH`] entries), and a block left with
/// nothing but ones is not touched at all — the controlled-phase cascades of
/// the QFT leave half their blocks alone.
///
/// `amps.len()` must be a multiple of the prepared block and `offset` (the
/// slice's absolute start index in the full state — tiles pass their
/// [`TILE`]-aligned base, whole-state callers pass 0) must be block-aligned,
/// so every block's classification sees the same absolute base as the
/// untiled sweep and results stay bit-identical.
fn run_prepared_diagonal_amps(
    amps: &mut [Complex64],
    offset: usize,
    prepared: &PreparedDiagonal,
    opts: &ApplyOptions,
) {
    let len = amps.len();
    let block = 1usize << prepared.block_bits;
    assert!(
        len >= block && offset.is_multiple_of(block),
        "diagonal run prepared for a larger state"
    );
    let blocks = len >> prepared.block_bits;
    let simd = opts.use_simd();
    let amps_ptr = SharedAmpsSlice::new(amps);
    for pass in &prepared.passes {
        for_each_range(blocks, opts.go_parallel(len), |range| {
            let mut folded = [Complex64::ZERO; MAX_FOLD_WIDTH];
            for index in range {
                let rel = index << prepared.block_bits;
                let base = offset + rel;
                let mut block_phase = pass.constant.iter().fold(Complex64::ONE, |phase, factor| {
                    phase * factor.table[factor.hi.sub(base)]
                });
                let mut active =
                    [(std::ptr::null::<Complex64>(), std::ptr::null::<u8>()); MAX_STREAMS];
                let mut count = 0;
                for stream in &pass.streams {
                    let start = stream.hi.sub(base);
                    if stream.identity >> (start / stream.width) & 1 == 1 {
                        continue;
                    }
                    let sub = &stream.table[start..start + stream.width];
                    active[count] = (sub.as_ptr(), stream.lane0.as_ptr());
                    if count == 0 && block_phase != Complex64::ONE && sub.len() <= MAX_FOLD_WIDTH {
                        for (slot, &entry) in folded.iter_mut().zip(sub) {
                            *slot = block_phase * entry;
                        }
                        active[0].0 = folded.as_ptr();
                        block_phase = Complex64::ONE;
                    }
                    count += 1;
                }
                let block_phase = (block_phase != Complex64::ONE).then_some(block_phase);
                if count == 0 && block_phase.is_none() {
                    continue;
                }
                // SAFETY: blocks are disjoint contiguous ranges; every
                // stream's `lane0` holds `block / 2` even indices whose pair
                // lies inside the sub-table beside it (or its same-size
                // folded copy); `simd` comes from the dispatch resolution.
                unsafe {
                    let amps = amps_ptr.slice_mut(rel, block);
                    diag_block_on(simd, amps, block_phase, &active[..count]);
                }
            }
        });
    }
}

/// A stream as one block sees it: its sub-table and its `lane0` indices.
type ActiveStream = (*const Complex64, *const u8);

lanes_dispatch! {
    /// Pick the lane instantiation of [`diag_block`].
    unsafe fn diag_block_on(
        amps: &mut [Complex64],
        block_phase: Option<Complex64>,
        streams: &[ActiveStream],
    ) => diag_block
}

/// One block of a diagonal pass, two amplitudes per step: the step's phase
/// is the block phase (when there is one) times each stream's entry pair, in
/// stream order, and multiplies the amplitudes last — the same
/// multiplication order under either instantiation.
///
/// # Safety
/// Each stream's `lane0` must hold `amps.len() / 2` indices `e` with `e` and
/// `e + 1` inside its sub-table, and there must be a block phase or a
/// stream; AVX2 must be available for that instantiation.
#[inline(always)]
unsafe fn diag_block<L: Lanes>(
    amps: &mut [Complex64],
    block_phase: Option<Complex64>,
    streams: &[ActiveStream],
) {
    let entry =
        |&(table, lane0): &ActiveStream, v: usize| L::load(table.add(*lane0.add(v) as usize));
    let (first, rest) = match block_phase {
        Some(_) => (None, streams),
        None => (streams.first(), &streams[1..]),
    };
    let ptr = amps.as_mut_ptr();
    for v in 0..amps.len() / 2 {
        let mut phase = match (block_phase, first) {
            (Some(phase), _) => L::splat(phase),
            (None, Some(stream)) => entry(stream, v),
            (None, None) => unreachable!("caller passes a block phase or a stream"),
        };
        for stream in rest {
            phase = phase.cmul(entry(stream, v));
        }
        L::load(ptr.add(2 * v)).cmul(phase).store(ptr.add(2 * v));
    }
}

/// A `Sync` wrapper handing out disjoint mutable sub-slices of the amplitude
/// buffer to parallel block workers.
#[derive(Clone, Copy)]
struct SharedAmpsSlice {
    ptr: *mut Complex64,
    len: usize,
}

unsafe impl Sync for SharedAmpsSlice {}
unsafe impl Send for SharedAmpsSlice {}

impl SharedAmpsSlice {
    fn new(slice: &mut [Complex64]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// Ranges handed out concurrently must be disjoint and in bounds.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [Complex64] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// A circuit compiled for fused execution: the first-class form every engine
/// executes. Construction pays the fusion cost once (greedy grouping plus the
/// small matrix products); `apply` then sweeps the state once per op with the
/// width-specialised, allocation-free kernels.
#[derive(Debug, Clone)]
pub struct FusedCircuit {
    num_qubits: usize,
    ops: Vec<FusedOp>,
    /// Per-op derived data (a dense matrix's zero masks, a diagonal run's
    /// block classification), index-aligned with `ops`; built once so
    /// `apply` never re-derives it.
    prepared: Vec<PreparedOp>,
    fusion_width: usize,
    source_gates: usize,
}

impl FusedCircuit {
    /// Fuse `circuit` at the given width (≥ 1) by covering its
    /// gate-dependency DAG with antichain groups (see
    /// [`FusedCircuit::from_part`]). Dense groups are capped at
    /// `max_fused_qubits`; runs of diagonal gates collapse into single
    /// streaming passes with no width limit. The fused form is a pure
    /// function of circuit and width — the property the plan cache, the SPMD
    /// engines and the process workers all rely on.
    pub fn new(circuit: &Circuit, max_fused_qubits: usize) -> Self {
        let every_gate: Vec<usize> = (0..circuit.num_gates()).collect();
        let every_qubit: Vec<Qubit> = (0..circuit.num_qubits()).collect();
        Self::from_part(
            circuit,
            &CircuitDag::from_circuit(circuit),
            &every_gate,
            &every_qubit,
            max_fused_qubits,
        )
    }

    /// [`FusedCircuit::new`]; see [`FusionStrategy`] for why the strategy
    /// parameter is still here.
    pub fn with_strategy(
        circuit: &Circuit,
        max_fused_qubits: usize,
        _strategy: FusionStrategy,
    ) -> Self {
        Self::new(circuit, max_fused_qubits)
    }

    /// Fuse the gates `gates` of `circuit` (ascending: every gate, or one
    /// part of a validated partition) over `dag`, the circuit's DAG, as the
    /// circuit of those gates alone with outer qubit `working_set[j]` as
    /// fused qubit `j`: `working_set` ascends and holds every qubit they
    /// touch. The result is [`FusedCircuit::new`] of that materialized
    /// circuit, op for op and bit for bit, built without materializing it.
    ///
    /// The DAG is covered with antichain groups
    /// ([`hisvsim_dag::antichain_fusion_groups`]). Gates with no dependency
    /// path between them commute structurally, so no matrix commutation
    /// check is needed, and mergeable gates arbitrarily far apart in program
    /// order still land in one group. A per-amplitude cost model and the
    /// width cap gate group growth.
    pub fn from_part(
        circuit: &Circuit,
        dag: &CircuitDag,
        gates: &[usize],
        working_set: &[Qubit],
        max_fused_qubits: usize,
    ) -> Self {
        assert!(max_fused_qubits >= 1, "fusion width must be at least 1");
        let classes: Vec<GateClass> = (gates.iter())
            .map(|&index| {
                let gate = &circuit.gates()[index];
                GateClass {
                    diagonal: gate.kind.is_diagonal(),
                    widen_allowance: solo_cost(gate),
                }
            })
            .collect();
        let mut fuse = Fuse {
            circuit,
            working_set,
            scratch: [Complex64::ZERO; _],
        };
        let mut ops = Vec::new();
        antichain_fusion_groups(
            dag,
            gates,
            &classes,
            max_fused_qubits,
            |group| match group.diagonal {
                true => ops.push(fuse.diagonal_run(&group.gates)),
                false => fuse.emit_dense_group(&group.gates, &group.qubits, &mut ops),
            },
        );
        ops.shrink_to_fit();
        let prepared = (ops.iter())
            .map(|op| prepare_op(op, working_set.len()))
            .collect();
        Self {
            num_qubits: working_set.len(),
            ops,
            prepared,
            fusion_width: max_fused_qubits,
            source_gates: gates.len(),
        }
    }

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
            self.apply_pass(state, pass, None, opts);
        }
    }

    /// Apply with a qubit translation: fused qubit `q` acts on state qubit
    /// `map[q]`. Lets the distributed engines share one fused circuit across
    /// every rank and layout: the fused matrices and their zero masks are
    /// never recomputed — only qubit references are translated (diagonal
    /// runs additionally re-classify their small tables per pass, since the
    /// block split depends on the translated positions).
    pub fn apply_mapped(&self, state: &mut StateVector, map: &[Qubit], opts: &ApplyOptions) {
        assert!(
            map.len() >= self.num_qubits,
            "qubit map covers {} qubits, fused circuit has {}",
            map.len(),
            self.num_qubits
        );
        for pass in self.passes(state.num_qubits(), Some(map)) {
            self.apply_pass(state, pass, Some(map), opts);
        }
    }

    /// The passes the circuit makes over a state of `state_qubits` qubits
    /// under the optional translation, in order, as ranges of
    /// [`ops`](Self::ops): the one segmentation every application walks.
    ///
    /// A state of at most one [`TILE`] is swept op by op, one op per pass.
    /// A larger one is swept in cache-blocked order: a run of ops is one
    /// pass while the union of their *mixing* qubits (the translated
    /// operands of dense and solo ops; a diagonal run mixes none) fits one
    /// tile shape ([`TileShape::of`]), so each 2^16-amplitude tile streams
    /// through the whole run while L2-resident instead of the run streaming
    /// the whole state from memory once per op. The run is extended until
    /// the next op would leave no shape: a seventh mixing qubit at or above
    /// the smallest chunk, or one that narrows the chunk below the qubits
    /// already taken. A run of one op gains nothing and is a whole-state
    /// sweep of its own. With the recorder on, a state above one tile
    /// leaves exactly one `kernel` span per pass.
    pub fn passes<'a>(
        &'a self,
        state_qubits: usize,
        map: Option<&'a [Qubit]>,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        let tiles = 1usize << state_qubits > TILE;
        let mut start = 0usize;
        std::iter::from_fn(move || {
            let rest = self.ops.get(start..).filter(|rest| !rest.is_empty())?;
            let mut mixing = 0u64;
            let run = match tiles {
                true => (rest.iter())
                    .take_while(|op| {
                        mixing |= op_mixing(op, map);
                        TileShape::of(mixing).is_some()
                    })
                    .count(),
                false => 0,
            };
            let pass = start..start + run.max(1);
            start = pass.end;
            Some(pass)
        })
    }

    /// Apply one pass of [`passes`](Self::passes) for this state's width
    /// and the same translation: a single op is one whole-state sweep, a
    /// longer range one cache-blocked run ([`Self::apply_tiled_run`]). The
    /// per-amplitude arithmetic is bit-identical either way.
    ///
    /// With the recorder enabled the pass leaves a sampled `kernel` span:
    /// full-size sweeps (≥ 2^16 amplitudes) are always recorded, and small
    /// sweeps 1-in-64, to keep the tracing overhead off the hot path.
    pub fn apply_pass(
        &self,
        state: &mut StateVector,
        pass: Range<usize>,
        map: Option<&[Qubit]>,
        opts: &ApplyOptions,
    ) {
        let tracing = hisvsim_obs::enabled();
        if pass.len() == 1 {
            let idx = pass.start;
            let (op, prep) = (&self.ops[idx], &self.prepared[idx]);
            if tracing && sample_sweep(state.len()) {
                // Amplitudes read + written once per sweep (2 × 16 bytes
                // each): the byte count the cost profiler turns into
                // effective GB/s.
                let _g = hisvsim_obs::span("kernel", op.span_name())
                    .detail(format!("{} gates, {} amps", op.fused_count(), state.len()))
                    .bytes(state.len() as u64 * 32);
                op.apply_inner(state, prep, map, opts);
            } else {
                op.apply_inner(state, prep, map, opts);
            }
            return;
        }
        assert!(
            state.len() > TILE,
            "a tiled pass needs a state above one tile"
        );
        let ops = &self.ops[pass.clone()];
        let mixing = ops.iter().fold(0, |mixing, op| mixing | op_mixing(op, map));
        let shape = TileShape::of(mixing).expect("the ops of a pass fit one tile");
        self.apply_tiled_run(state, pass, shape, map, opts, tracing);
    }

    /// Execute the ops of `run` tile by tile in `shape`. A tile is the
    /// 2^|high| chunks of 2^chunk_bits contiguous amplitudes that one
    /// assignment of the remaining bits selects. Dense and solo ops run on
    /// tile positions (a chunk's bits keep their place, the high qubits
    /// follow in order); a diagonal run is applied chunk by chunk at each
    /// chunk's absolute base, so its blocks classify exactly as in the
    /// whole-state sweep. A one-chunk tile is a contiguous range of the
    /// state and is swept where it lies; a strided one is copied into a
    /// worker's pooled tile buffer and back. Per-run translation and
    /// specialisation happen once up front; the per-tile loop allocates
    /// nothing.
    fn apply_tiled_run(
        &self,
        state: &mut StateVector,
        run: Range<usize>,
        shape: TileShape,
        map: Option<&[Qubit]>,
        opts: &ApplyOptions,
        tracing: bool,
    ) {
        let items: Vec<TileOp<'_>> = (run.clone())
            .map(|idx| {
                let (op, prep) = (&self.ops[idx], &self.prepared[idx]);
                tile_op(op, prep, map, Some(shape), state.num_qubits())
            })
            .collect();
        let len = state.len();
        let (chunk, chunks) = (1usize << shape.chunk_bits, shape.chunks());
        if chunks > 1 {
            STRIDED_PASSES.fetch_add(1, Ordering::Relaxed);
        }
        let _g = (tracing && sample_sweep(len)).then(|| {
            let gates: usize = self.ops[run.clone()].iter().map(FusedOp::fused_count).sum();
            hisvsim_obs::span("kernel", "sweep:tiled")
                .detail(format!(
                    "{} ops, {} gates, {} amps, {chunks} chunks of 2^{}",
                    run.len(),
                    gates,
                    len,
                    shape.chunk_bits
                ))
                // One streaming pass over the state carries the whole run.
                .bytes(len as u64 * 32)
        });
        // Within a tile the run is sequential; parallelism comes from the
        // disjoint tiles (nesting both would oversubscribe the pool).
        let tile_opts = ApplyOptions {
            parallel: false,
            parallel_threshold: usize::MAX,
            dispatch: opts.dispatch,
        };
        // Each chunk's base inside a tile, and the bits that pick the tile.
        let mut offsets = [0usize; 1 << (TILE_BITS - MIN_CHUNK_BITS)];
        for (h, offset) in offsets[..chunks].iter_mut().enumerate() {
            *offset = deposit(h, shape.high);
        }
        let offsets = &offsets[..chunks];
        let picks = (len as u64 - 1) & !(chunk as u64 - 1) & !shape.high;
        let sweep = |tile: &mut [Complex64], base: usize| {
            for item in &items {
                match item {
                    TileOp::Diag(_) => {
                        for (amps, &offset) in tile.chunks_exact_mut(chunk).zip(offsets) {
                            item.apply(amps, base + offset, &tile_opts);
                        }
                    }
                    _ => item.apply(tile, base, &tile_opts),
                }
            }
        };
        let amps_ptr = SharedAmpsSlice::new(state.amplitudes_mut());
        let work = |buffer: &mut TileBuffer, t: usize| {
            let base = deposit(t, picks);
            if chunks == 1 {
                // SAFETY: one-chunk tiles are disjoint contiguous ranges.
                return sweep(unsafe { amps_ptr.slice_mut(base, TILE) }, base);
            }
            // SAFETY: the chunks of distinct tiles are disjoint ranges of
            // the state, and only the worker that claimed tile `t` reads or
            // writes its chunks.
            let chunk_at = |offset: usize| unsafe { amps_ptr.slice_mut(base + offset, chunk) };
            let tile = buffer.amps();
            for (amps, &offset) in tile.chunks_exact_mut(chunk).zip(offsets) {
                amps.copy_from_slice(chunk_at(offset));
            }
            sweep(tile, base);
            for (amps, &offset) in tile.chunks_exact(chunk).zip(offsets) {
                chunk_at(offset).copy_from_slice(amps);
            }
        };
        // Each worker claims the next tile until none is left, so a worker
        // the host slows down takes fewer tiles, and holds one buffer.
        let tiles = len / TILE;
        let workers = match opts.go_parallel(len) {
            true => rayon::current_num_threads().clamp(1, tiles),
            false => 1,
        };
        let next = AtomicUsize::new(0);
        for_each_range(workers, workers > 1, |_| {
            let mut buffer = TileBuffer::default();
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tiles {
                    break;
                }
                work(&mut buffer, t);
            }
        });
    }

    /// Run from `|0…0⟩` and return the resulting state.
    pub fn run(&self, opts: &ApplyOptions) -> StateVector {
        let mut state = StateVector::zero_state(self.num_qubits);
        self.apply(&mut state, opts);
        state
    }
}

/// Sweep-span sampling decision: record every sweep over a full-size state
/// (the interesting ones for kernel optimisation), and of the small
/// sweeps the first on each thread plus 1-in-64 after, so runs over small
/// states still leave a kernel footprint in the trace without flooding the
/// ring buffers.
fn sample_sweep(amps: usize) -> bool {
    if amps >= (1 << 16) {
        return true;
    }
    thread_local! {
        static SWEEP_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    SWEEP_TICK.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n % 64 == 1
    })
}

/// Tile size of the cache-blocked sweep order: 2^16 amplitudes = 1 MiB of
/// `Complex64`, sized so a run's working set stays L2-resident (2 MiB L2 on
/// the reference Xeon) while keeping two more qubits inside a tile than a
/// 256 KiB tile would.
const TILE_BITS: usize = 16;
/// One tile of the cache-blocked sweep, in amplitudes: a state no larger
/// than this is swept op by op and stays L2-resident between the sweeps.
pub const TILE: usize = 1 << TILE_BITS;
/// Fewest index bits of one chunk of a strided tile: 2^10 amplitudes
/// (16 KiB), so a tile holds at most `TILE_BITS - MIN_CHUNK_BITS` = 6
/// mixing qubits at or above its chunks.
const MIN_CHUNK_BITS: usize = 10;

/// Where a cache-blocked pass's tiles lie: each is `2^|high|` chunks of
/// `2^chunk_bits` contiguous amplitudes, and its position bit
/// `chunk_bits + j` is the `j`-th qubit of `high`, ascending
/// (Häner & Steiger's cache blocking, without swapping the qubits in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileShape {
    /// Index bits of one chunk.
    chunk_bits: usize,
    /// The mixing qubits at or above the chunk, as a mask.
    high: u64,
}

impl TileShape {
    /// The widest chunk whose tile holds every qubit of the mask `mixing`:
    /// `2^b` contiguous amplitudes, `MIN_CHUNK_BITS ≤ b ≤ TILE_BITS`, such
    /// that `b` plus the mixing qubits at or above `b` is at most
    /// `TILE_BITS`. None when no chunk is that wide.
    fn of(mixing: u64) -> Option<Self> {
        (MIN_CHUNK_BITS..=TILE_BITS).rev().find_map(|chunk_bits| {
            let high = mixing >> chunk_bits << chunk_bits;
            let fits = chunk_bits + high.count_ones() as usize <= TILE_BITS;
            fits.then_some(Self { chunk_bits, high })
        })
    }

    /// Chunks per tile.
    fn chunks(self) -> usize {
        1 << self.high.count_ones()
    }

    /// The tile position of state qubit `q`, one below the chunk bits or
    /// in `high`.
    fn position(self, q: Qubit) -> Qubit {
        match q < self.chunk_bits {
            true => q,
            false => self.chunk_bits + (self.high & ((1u64 << q) - 1)).count_ones() as usize,
        }
    }
}

/// The mixing qubits of an op (its translated operands; a diagonal run
/// only scales amplitudes where they lie) as a mask.
fn op_mixing(op: &FusedOp, map: Option<&[Qubit]>) -> u64 {
    let qubits: &[Qubit] = match op {
        FusedOp::Dense(g) => &g.qubits,
        FusedOp::Solo(gate, _) => &gate.qubits,
        FusedOp::Diagonal { .. } => &[],
    };
    (qubits.iter()).fold(0, |mask, &q| mask | 1u64 << map.map_or(q, |m| m[q]))
}

/// Bits of `value`, lowest first, placed at the set bits of `mask`, lowest
/// first.
fn deposit(mut value: usize, mut mask: u64) -> usize {
    let mut out = 0;
    while mask != 0 && value != 0 {
        if value & 1 == 1 {
            out |= 1usize << mask.trailing_zeros();
        }
        value >>= 1;
        mask &= mask - 1;
    }
    out
}

/// One worker's tile buffer: taken from the process's buffer pool when a
/// strided tile first needs it, given back on drop.
#[derive(Default)]
struct TileBuffer(Vec<Complex64>);

impl TileBuffer {
    fn amps(&mut self) -> &mut [Complex64] {
        if self.0.is_empty() {
            // Every chunk is copied in before it is read.
            self.0 = crate::buffers::take(TILE);
            self.0.resize(TILE, Complex64::ZERO);
        }
        &mut self.0[..TILE]
    }
}

impl Drop for TileBuffer {
    fn drop(&mut self) {
        if self.0.capacity() > 0 {
            crate::buffers::give(std::mem::take(&mut self.0));
        }
    }
}

/// Process-wide count of strided passes: cache-blocked runs whose tiles
/// gather chunks from above [`TILE`]'s bits.
static STRIDED_PASSES: AtomicU64 = AtomicU64::new(0);

/// How many strided passes this process has applied: runs whose tiles are
/// several chunks apart, copied into a tile buffer and back. Monotonic.
pub fn strided_passes() -> u64 {
    STRIDED_PASSES.load(Ordering::Relaxed)
}

/// One op aimed at a concrete state layout: operands translated, prepared
/// data resolved, so applying it (to the whole state, or to every tile of a
/// tiled run) does no allocation or qubit translation.
enum TileOp<'a> {
    Dense {
        qubits: Operands,
        matrix: &'a UnitaryMatrix,
        masks: &'a DenseMasks,
    },
    Solo {
        kind: &'a hisvsim_circuit::GateKind,
        qubits: Operands,
        matrix: Option<&'a UnitaryMatrix>,
    },
    Diag(std::borrow::Cow<'a, PreparedDiagonal>),
}

/// Resolve one fused op for execution on a state of `state_qubits` qubits
/// under the optional translation, on the whole state or on the tiles of
/// `shape`. Whole-state and tiled sweeps both go through this, which is why
/// they agree bitwise.
fn tile_op<'a>(
    op: &'a FusedOp,
    prep: &'a PreparedOp,
    map: Option<&[Qubit]>,
    shape: Option<TileShape>,
    state_qubits: usize,
) -> TileOp<'a> {
    match (op, prep) {
        (FusedOp::Dense(g), PreparedOp::Dense(masks)) => TileOp::Dense {
            qubits: Operands::translate(&g.qubits, map, shape),
            matrix: &g.matrix,
            masks,
        },
        (FusedOp::Solo(gate, matrix), _) => TileOp::Solo {
            kind: &gate.kind,
            qubits: Operands::translate(&gate.qubits, map, shape),
            matrix: matrix.as_ref(),
        },
        (FusedOp::Diagonal { factors, .. }, prep) => match (map, prep) {
            (None, PreparedOp::Diagonal(prepared)) => {
                TileOp::Diag(std::borrow::Cow::Borrowed(prepared))
            }
            // The block classification depends on translated positions;
            // re-derived once per application (once per rank per part),
            // shared by every tile.
            _ => TileOp::Diag(std::borrow::Cow::Owned(prepare_diagonal(
                factors,
                map,
                state_qubits,
            ))),
        },
        (FusedOp::Dense(_), _) => {
            unreachable!("prepared data is derived from the op it is paired with")
        }
    }
}

impl TileOp<'_> {
    /// Apply this op to `amps`: the whole state (`base` 0), a tile, or —
    /// for a diagonal run — one contiguous chunk starting at absolute
    /// amplitude index `base`. Dense and solo operands are already aimed at
    /// `amps`' positions; a diagonal run classifies its factors against the
    /// same absolute block bases as the whole-state sweep.
    fn apply(&self, amps: &mut [Complex64], base: usize, opts: &ApplyOptions) {
        match self {
            TileOp::Dense {
                qubits,
                matrix,
                masks,
            } => apply_dense_amps(amps, qubits.as_slice(), matrix, masks, opts),
            TileOp::Solo {
                kind,
                qubits,
                matrix,
            } => apply_kind_amps(amps, kind, qubits.as_slice(), *matrix, opts),
            TileOp::Diag(prepared) => run_prepared_diagonal_amps(amps, base, prepared, opts),
        }
    }
}

/// Estimated cost of streaming the state through the cache hierarchy
/// once, relative to one complex multiply-add per amplitude.
const PASS: f64 = 2.0;

/// Process-wide count of fused groups demoted back to their member gates
/// because the modelled fused sweep cost exceeded the sum of the members'
/// solo costs (see [`emit_dense_group`]). Monotonic; the service layer syncs
/// it into the metrics registry at scrape time.
static FUSION_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many fused groups have been demoted to their solo form process-wide
/// because fusing them modelled *slower* than not fusing them. A steadily
/// growing value is expected on interleaved circuits (the group builders can
/// pair cheap fast-path gates whose dense form costs more than two sweeps);
/// it is exported as `hisvsim_fusion_fallback_total`.
pub fn fusion_fallback_count() -> u64 {
    FUSION_FALLBACKS.load(Ordering::Relaxed)
}

/// Per-amplitude cost (in complex multiply-add units) of applying a gate
/// through its standalone specialised kernel, including an estimated sweep
/// (memory-traffic) term. Only relative magnitudes matter: the fusion
/// builder compares this against the arithmetic a wider dense group adds.
fn solo_cost(gate: &Gate) -> f64 {
    use hisvsim_circuit::GateKind::*;
    match (&gate.kind, gate.arity()) {
        (I, _) => 0.0,
        (X, 1) => PASS,
        // Permutations: half the amplitudes move (`apply_kind_amps` runs
        // Toffoli and CSWAP as swaps of index patterns too).
        (Cx, 2) | (Swap, 2) | (Ccx, 3) | (Cswap, 3) => 0.5 * PASS + 0.5,
        (Cz, 2) => PASS + 0.5,
        (kind, 1) if kind.is_diagonal() => PASS + 1.0,
        (_, 1) => PASS + 2.0,
        (kind, 2) if kind.num_controls() == 1 => 0.5 * PASS + 1.0,
        (kind, 2) if kind.is_diagonal() => PASS + 1.0,
        (_, 2) => PASS + 4.0,
        (_, k) => PASS + (1u64 << k) as f64,
    }
}

/// The gates of one circuit being fused as the circuit of some of them
/// alone, whose qubit `j` is outer qubit `working_set[j]`.
struct Fuse<'a> {
    circuit: &'a Circuit,
    working_set: &'a [Qubit],
    scratch: GroupScratch,
}

impl Fuse<'_> {
    /// The fused qubit of outer qubit `q`.
    fn inner(&self, q: Qubit) -> Qubit {
        (self.working_set.binary_search(&q)).expect("the working set holds every qubit of the part")
    }

    /// Gate `index` of the circuit with its qubits translated.
    fn solo(&self, index: usize) -> FusedOp {
        let gate = &self.circuit.gates()[index];
        let matrix = crate::kernels::uses_dense_matrix(gate).then(|| gate.matrix());
        let qubits = gate.qubits.iter().map(|&q| self.inner(q)).collect();
        FusedOp::Solo(
            Gate {
                kind: gate.kind,
                qubits,
            },
            matrix,
        )
    }

    /// A diagonal run of the gates `indices`, in order, as factors: each
    /// gate joins the youngest factor while the factor's qubit union stays
    /// within [`MAX_STACK_KERNEL_QUBITS`] (bounded arithmetic per amplitude),
    /// and opens a new one otherwise. A factor's table is the product of its
    /// gates' diagonals in gate order (the first one copied), formed at its
    /// final size.
    fn diagonal_run(&self, indices: &[usize]) -> FusedOp {
        let gates = self.circuit.gates();
        let mut factors = Vec::new();
        let mut rest = indices;
        while !rest.is_empty() {
            let mut stack = [0; MAX_STACK_KERNEL_QUBITS];
            let mut len = 0;
            let mut taken = 0;
            for &index in rest {
                let gate = &gates[index];
                let new = |&&q: &&Qubit| !stack[..len].contains(&self.inner(q));
                let extra = gate.qubits.iter().filter(new).count();
                if taken > 0 && len + extra > MAX_STACK_KERNEL_QUBITS.max(gate.arity()) {
                    break;
                }
                for &q in &gate.qubits {
                    let q = self.inner(q);
                    if !stack[..len].contains(&q) {
                        stack[len] = q;
                        len += 1;
                    }
                }
                taken += 1;
            }
            let qubits = stack[..len].to_vec();
            let mut diag = vec![Complex64::ZERO; 1 << qubits.len()];
            for (nth, &index) in rest[..taken].iter().enumerate() {
                let gate = &gates[index];
                let matrix = gate.matrix();
                let mut bits = [0usize; MAX_GATE_QUBITS];
                for (bit, &q) in bits.iter_mut().zip(&gate.qubits) {
                    let q = self.inner(q);
                    *bit = (qubits.iter().position(|&f| f == q))
                        .expect("a factor's qubits hold every qubit of its gates");
                }
                for (i, slot) in diag.iter_mut().enumerate() {
                    let sub = (0..gate.arity()).fold(0, |sub, j| sub | ((i >> bits[j]) & 1) << j);
                    let entry = matrix.get(sub, sub);
                    match nth {
                        0 => *slot = entry,
                        _ => *slot *= entry,
                    }
                }
            }
            factors.push(DiagonalFactor { qubits, diag });
            rest = &rest[taken..];
        }
        factors.shrink_to_fit();
        FusedOp::Diagonal {
            factors,
            fused_count: indices.len(),
        }
    }

    /// Emit a dense group (outer `qubits`, gates in `indices`) as a fused
    /// op: a lone gate keeps its specialised fast path ([`FusedOp::Solo`]),
    /// multi-gate groups multiply into one matrix.
    ///
    /// Cost guard: a group the model says is *slower* fused than unfused
    /// (e.g. two fast-path CX gates whose dense 4×4 form costs `PASS + 4`
    /// against two half-sweeps) is demoted back to its member gates, in the
    /// same product order the group matrix would have applied them — the
    /// demotion is operator-identical, it only changes how many sweeps carry
    /// it. Demotions are counted in [`fusion_fallback_count`].
    fn emit_dense_group(&mut self, indices: &[usize], qubits: &[Qubit], ops: &mut Vec<FusedOp>) {
        if indices.len() == 1 {
            // A lone gate gains nothing from the dense-matrix form and would
            // lose its fast path (SWAP/CX/controlled); keep it as written.
            ops.push(self.solo(indices[0]));
            return;
        }
        let fused_cost = PASS + (1u64 << qubits.len()) as f64;
        let unfused_cost: f64 = (indices.iter())
            .map(|&i| solo_cost(&self.circuit.gates()[i]))
            .sum();
        if fused_cost > unfused_cost {
            FUSION_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            ops.extend(indices.iter().map(|&i| self.solo(i)));
            return;
        }
        ops.push(FusedOp::Dense(FusedGate {
            qubits: qubits.iter().map(|&q| self.inner(q)).collect(),
            matrix: build_group_matrix(self.circuit, indices, qubits, &mut self.scratch),
            fused_count: indices.len(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_circuit;
    use crate::kernels::tests::{assert_bitwise, random_state};
    use hisvsim_circuit::generators;

    #[test]
    fn fused_execution_matches_unfused_across_suite() {
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 8);
            let expected = run_circuit(&circuit);
            for width in [2usize, 3, 4] {
                let got = run_fused(&circuit, width, &ApplyOptions::sequential());
                assert!(
                    got.approx_eq(&expected, 1e-9),
                    "{name} fused at width {width} diverges (max diff {})",
                    got.max_abs_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn fusion_reduces_the_operation_count() {
        let circuit = generators::by_name("qft", 10);
        let fused = fuse_circuit(&circuit, 4);
        assert!(
            fused.len() < circuit.num_gates() / 2,
            "fusion produced {} ops for {} gates",
            fused.len(),
            circuit.num_gates()
        );
        let total: usize = fused.iter().map(|f| f.fused_count).sum();
        assert_eq!(
            total,
            circuit.num_gates(),
            "every gate must be fused exactly once"
        );
    }

    #[test]
    fn fused_matrices_are_unitary_and_within_width() {
        let circuit = generators::random_circuit(7, 60, 5);
        for op in fuse_circuit(&circuit, 3) {
            assert!(op.qubits.len() <= 3);
            assert_eq!(op.matrix.dim(), 1 << op.qubits.len());
            assert!(op.matrix.is_unitary(1e-9));
        }
    }

    #[test]
    fn oversized_gates_pass_through_unfused() {
        let circuit = generators::adder(8); // contains 3-qubit Toffolis
        let fused = fuse_circuit(&circuit, 2);
        assert!(fused
            .iter()
            .any(|f| f.qubits.len() == 3 && f.fused_count == 1));
        let expected = run_circuit(&circuit);
        let got = run_fused(&circuit, 2, &ApplyOptions::sequential());
        assert!(got.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn width_one_fusion_merges_single_qubit_runs() {
        let mut circuit = hisvsim_circuit::Circuit::new(2);
        circuit.h(0).t(0).h(0).s(1).h(1);
        let fused = fuse_circuit(&circuit, 1);
        // Two groups: the run on qubit 0 and the run on qubit 1.
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].fused_count, 3);
        assert_eq!(fused[1].fused_count, 2);
        let got = run_fused(&circuit, 1, &ApplyOptions::sequential());
        assert!(got.approx_eq(&run_circuit(&circuit), 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_width_is_rejected() {
        let circuit = generators::cat_state(4);
        let _ = fuse_circuit(&circuit, 0);
    }

    // -- FusedCircuit (the engine-facing pipeline) --------------------------

    #[test]
    fn fused_circuit_matches_unfused_across_suite_and_widths() {
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 8);
            let expected = run_circuit(&circuit);
            for width in [1usize, 2, 3, 4, 5] {
                let fused = FusedCircuit::new(&circuit, width);
                for opts in [ApplyOptions::sequential(), ApplyOptions::default()] {
                    let got = fused.run(&opts);
                    assert!(
                        got.approx_eq(&expected, 1e-9),
                        "{name} fused-circuit at width {width} (parallel={}) diverges (max diff {})",
                        opts.parallel,
                        got.max_abs_diff(&expected)
                    );
                }
            }
        }
    }

    #[test]
    fn fused_circuit_accounts_for_every_gate_once() {
        for name in ["qft", "adder", "qaoa"] {
            let circuit = generators::by_name(name, 9);
            let fused = FusedCircuit::new(&circuit, 3);
            let total: usize = fused.ops().iter().map(|op| op.fused_count()).sum();
            assert_eq!(total, circuit.num_gates(), "{name}: gates lost in fusion");
            assert_eq!(fused.source_gates(), circuit.num_gates());
        }
    }

    #[test]
    fn diagonal_runs_collapse_into_streaming_passes() {
        // The QFT is mostly controlled-phase cascades (diagonal); the fused
        // form must execute far fewer sweeps than it has gates, and the
        // diagonal runs must absorb multi-gate cascades wider than the
        // fusion width.
        let circuit = generators::by_name("qft", 10);
        let fused = FusedCircuit::new(&circuit, 2);
        assert!(
            fused.num_ops() < circuit.num_gates() / 2,
            "{} ops for {} gates",
            fused.num_ops(),
            circuit.num_gates()
        );
        let wide_run = fused.ops().iter().any(|op| match op {
            FusedOp::Diagonal {
                factors,
                fused_count,
            } => {
                *fused_count > 2
                    && factors
                        .iter()
                        .flat_map(|f| f.qubits.iter())
                        .collect::<std::collections::HashSet<_>>()
                        .len()
                        > 2
            }
            _ => false,
        });
        assert!(wide_run, "no width-unlimited diagonal run found in the QFT");
    }

    #[test]
    fn pure_diagonal_circuit_is_a_single_pass() {
        // An H layer puts the register in superposition (so the diagonal
        // phases are observable), then a run of diagonal gates of assorted
        // widths must collapse to exactly one streaming op.
        let mut prefix = hisvsim_circuit::Circuit::new(6);
        for q in 0..6 {
            prefix.h(q);
        }
        let mut diagonals = hisvsim_circuit::Circuit::new(6);
        diagonals
            .rz(0.3, 0)
            .cz(0, 5)
            .cp(0.7, 2, 4)
            .t(3)
            .rzz(0.2, 1, 5)
            .s(2);
        let fused = FusedCircuit::new(&diagonals, 3);
        assert_eq!(fused.num_ops(), 1, "diagonal run must be one streaming op");

        let mut full = prefix.clone();
        full.extend(&diagonals);
        let expected = run_circuit(&full);
        let mut state = run_circuit(&prefix);
        fused.apply(&mut state, &ApplyOptions::sequential());
        assert!(state.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn apply_mapped_translates_qubits() {
        // Fuse a 3-qubit circuit, then run it on qubits (4, 1, 3) of a
        // 5-qubit register and compare against the remapped original.
        let mut small = hisvsim_circuit::Circuit::new(3);
        small.h(0).cx(0, 1).t(2).cp(0.4, 2, 0).ry(0.7, 1);
        let fused = FusedCircuit::new(&small, 2);
        let map = [4usize, 1, 3];

        let mut big = hisvsim_circuit::Circuit::new(5);
        for gate in small.gates() {
            let qubits: Vec<usize> = gate.qubits.iter().map(|&q| map[q]).collect();
            big.push(hisvsim_circuit::Gate::new(gate.kind, qubits));
        }
        let expected = run_circuit(&big);

        let mut state = StateVector::zero_state(5);
        fused.apply_mapped(&mut state, &map, &ApplyOptions::sequential());
        assert!(state.approx_eq(&expected, 1e-10));
    }

    // -- DAG-driven fusion --------------------------------------------------

    /// Every gate of `circuit` fused over a prebuilt DAG.
    fn whole(circuit: &Circuit, dag: &CircuitDag, width: usize) -> FusedCircuit {
        let gates: Vec<usize> = (0..circuit.num_gates()).collect();
        let qubits: Vec<Qubit> = (0..circuit.num_qubits()).collect();
        FusedCircuit::from_part(circuit, dag, &gates, &qubits, width)
    }

    #[test]
    fn dag_fusion_matches_unfused_across_suite_and_widths() {
        // Every width the fused form takes, 1 to 5, on one prebuilt DAG per
        // circuit: the engines fuse at DEFAULT_FUSION_WIDTH only, so this is
        // where the other widths stay covered.
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 8);
            let dag = CircuitDag::from_circuit(&circuit);
            let expected = run_circuit(&circuit);
            for width in 1usize..=5 {
                let fused = whole(&circuit, &dag, width);
                let total: usize = fused.ops().iter().map(|op| op.fused_count()).sum();
                assert_eq!(total, circuit.num_gates(), "{name}: gates lost");
                for opts in [ApplyOptions::sequential(), ApplyOptions::default()] {
                    let got = fused.run(&opts);
                    assert!(
                        got.approx_eq(&expected, 1e-9),
                        "{name} dag-fused at width {width} diverges (max diff {})",
                        got.max_abs_diff(&expected)
                    );
                }
            }
        }
    }

    #[test]
    fn dag_fusion_random_interleaved_circuits_match() {
        for seed in 0..8 {
            let circuit = generators::random_circuit(7, 90, seed);
            let dag = CircuitDag::from_circuit(&circuit);
            let expected = run_circuit(&circuit);
            for width in [2usize, 3, 4] {
                let got = whole(&circuit, &dag, width).run(&ApplyOptions::sequential());
                assert!(
                    got.approx_eq(&expected, 1e-9),
                    "seed {seed} width {width}: max diff {}",
                    got.max_abs_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn dag_fusion_needs_fewer_sweeps_on_interleaved_circuits() {
        // On deep interleaved circuits, fusing only adjacent gates strands
        // mergeable gates in separate groups; the dependency frontier does
        // not.
        let circuit = generators::random_circuit(16, 400, 0x5EED);
        let adjacent = fuse_circuit(&circuit, 3);
        let dag = FusedCircuit::new(&circuit, 3);
        assert!(
            dag.num_ops() < adjacent.len(),
            "dag {} ops vs adjacent-only {} ops",
            dag.num_ops(),
            adjacent.len()
        );
    }

    #[test]
    fn from_dag_reuses_a_prebuilt_dag() {
        let circuit = generators::random_circuit(7, 60, 11);
        let dag = CircuitDag::from_circuit(&circuit);
        let via_dag = whole(&circuit, &dag, 3);
        let fresh = FusedCircuit::new(&circuit, 3);
        assert_eq!(via_dag.num_ops(), fresh.num_ops());
        let expected = run_circuit(&circuit);
        assert!(via_dag
            .run(&ApplyOptions::sequential())
            .approx_eq(&expected, 1e-9));
    }

    #[test]
    fn fused_circuit_random_circuits_match() {
        for seed in 0..6 {
            let circuit = generators::random_circuit(7, 70, seed);
            let expected = run_circuit(&circuit);
            for width in [2usize, 4] {
                let got = FusedCircuit::new(&circuit, width).run(&ApplyOptions::sequential());
                assert!(
                    got.approx_eq(&expected, 1e-9),
                    "seed {seed} width {width}: max diff {}",
                    got.max_abs_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn tiled_execution_matches_untiled_bitwise() {
        use crate::simd::KernelDispatch;
        // 17 qubits = two tiles, so `passes` segments the ops into tiled
        // runs; the per-op reference below never tiles. The hand-built
        // circuit puts every op class in and around tiled runs: dense groups
        // and solo permutation / phase / dense gates below, straddling and
        // above TILE_BITS, and diagonal runs whose factors sit below the
        // diagonal block, above the tile, and across both boundaries.
        let n = TILE_BITS + 1;
        let top = n - 1;
        let mut mixed = Circuit::new(n);
        mixed
            .h(0)
            .ry(0.3, 1)
            .cx(0, 1)
            .ry(0.2, 3)
            .cx(1, 3)
            .h(3)
            .x(0)
            .cx(5, 0)
            .cx(2, 14)
            .swap(0, 9)
            .ccx(3, 0, 12)
            .t(4)
            .cz(0, 15)
            .cp(0.4, 6, 11)
            .h(15)
            .cx(15, top)
            .h(top)
            .cp(0.7, 2, top)
            .cp(0.2, 9, top)
            .rz(0.9, 0)
            .rzz(0.3, 7, 15)
            .cp(0.5, 15, top)
            .h(7)
            .swap(3, top)
            .rx(0.6, 8)
            .cx(1, 2)
            .y(1);
        for circuit in [
            generators::random_circuit(n, 170, 0xA11CE),
            generators::by_name("qft", n),
            mixed,
        ] {
            let fused = FusedCircuit::new(&circuit, 3);
            let init = random_state(n, 0x711E);
            let what = &circuit.name;
            // The passes cover every op once, in order; only a state above
            // one tile has runs.
            let passes: Vec<Range<usize>> = fused.passes(n, None).collect();
            assert!(passes.iter().any(|pass| pass.len() > 1), "{what}");
            let ends = passes.iter().map(|pass| pass.end);
            let starts = std::iter::once(0).chain(ends);
            assert!(passes.iter().zip(starts).all(|(pass, at)| pass.start == at));
            assert_eq!(passes.last().map(|pass| pass.end), Some(fused.num_ops()));
            assert!(fused.passes(TILE_BITS, None).all(|pass| pass.len() == 1));
            let mut tiled = init.clone();
            fused.apply(&mut tiled, &ApplyOptions::default());
            for opts in [ApplyOptions::default(), ApplyOptions::sequential()] {
                let mut untiled = init.clone();
                for op in fused.ops() {
                    op.apply(&mut untiled, &opts);
                }
                assert_bitwise(&tiled, &untiled, &format!("{what}: tiled vs untiled"));
                let mut scalar = init.clone();
                fused.apply(&mut scalar, &opts.with_dispatch(KernelDispatch::Scalar));
                assert_bitwise(&tiled, &scalar, &format!("{what}: auto vs scalar"));
            }
        }
    }

    /// The union of the mixing qubits of `ops` under `map`.
    fn mixing_of(ops: &[FusedOp], map: Option<&[Qubit]>) -> u64 {
        ops.iter().fold(0, |mixing, op| mixing | op_mixing(op, map))
    }

    #[test]
    fn strided_runs_match_op_by_op_sweeps_bitwise() {
        use crate::simd::KernelDispatch;
        // One case per count of high qubits, 1 to 6 (the smallest chunk,
        // 2^MIN_CHUNK_BITS), on 17- to 20-qubit states. Every qubit an op
        // mixes is one of `high` or below the chunk, so the whole circuit
        // is one strided pass; the diagonal gates sit on high qubits, on
        // in-chunk ones and on the other bits, which pick the tile.
        let cases: [(usize, &[Qubit]); 6] = [
            (17, &[16]),
            (18, &[15, 17]),
            (19, &[14, 16, 18]),
            (20, &[13, 15, 17, 19]),
            (19, &[12, 14, 16, 17, 18]),
            (20, &[11, 13, 15, 17, 18, 19]),
        ];
        for (n, high) in cases {
            let chunk_bits = TILE_BITS - high.len();
            let other: Vec<Qubit> = (chunk_bits..n).filter(|q| !high.contains(q)).collect();
            let (first, top) = (high[0], high[high.len() - 1]);
            let mut circuit = Circuit::new(n);
            circuit.h(0).ry(0.3, 1).cx(0, 2).h(chunk_bits - 1);
            for (i, &q) in high.iter().enumerate() {
                circuit.h(q).cx(q, i).ry(0.2 + 0.1 * i as f64, q);
            }
            circuit
                .cp(0.4, top, 3)
                .cp(0.7, other[0], first)
                .rz(0.9, other[other.len() - 1])
                .rzz(0.3, 5, other[0])
                .t(chunk_bits - 1)
                .swap(1, top)
                .ccx(first, 2, 3)
                .cz(0, first)
                .rx(0.6, top)
                .cp(0.5, 7, 8);
            let fused = FusedCircuit::new(&circuit, 3);
            let what = format!("{n} qubits, high {high:?}");
            let shape = TileShape::of(mixing_of(fused.ops(), None)).expect("one tile");
            assert_eq!(
                (shape.chunk_bits, shape.chunks()),
                (chunk_bits, 1 << high.len())
            );
            let passes: Vec<Range<usize>> = fused.passes(n, None).collect();
            assert_eq!(passes.len(), 1, "{what}: {passes:?}");
            assert_eq!(passes[0], 0..fused.num_ops(), "{what}");
            // The low qubits reversed below the chunk: the same shape, every
            // low operand at another position.
            let map: Vec<Qubit> = (0..n)
                .map(|q| {
                    if q < chunk_bits {
                        chunk_bits - 1 - q
                    } else {
                        q
                    }
                })
                .collect();
            let mapped = TileShape::of(mixing_of(fused.ops(), Some(&map)));
            assert_eq!(mapped, Some(shape), "{what}");
            let init = random_state(n, 0x5171 + n as u64);
            for map in [None, Some(&map[..])] {
                let mut reference: Option<StateVector> = None;
                for opts in [ApplyOptions::default(), ApplyOptions::sequential()] {
                    for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                        let opts = opts.with_dispatch(dispatch);
                        let mut swept = init.clone();
                        for (op, prep) in fused.ops().iter().zip(&fused.prepared) {
                            op.apply_inner(&mut swept, prep, map, &opts);
                        }
                        let mut strided = init.clone();
                        match map {
                            None => fused.apply(&mut strided, &opts),
                            Some(map) => fused.apply_mapped(&mut strided, map, &opts),
                        }
                        let what = format!("{what}, mapped={}, {dispatch}", map.is_some());
                        assert_bitwise(&strided, &swept, &what);
                        match &reference {
                            None => reference = Some(strided),
                            Some(first) => assert_bitwise(first, &strided, &what),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn passes_cut_exactly_where_the_tile_shape_stops_fitting() {
        // Width 1 keeps every H on its own qubit a solo op of its own.
        let n = 20;
        let hs = |qubits: &[Qubit]| {
            let mut circuit = Circuit::new(n);
            for &q in qubits {
                circuit.h(q);
            }
            FusedCircuit::new(&circuit, 1)
        };
        // Six high qubits fill a tile of 2^10-amplitude chunks; a seventh
        // does not fit.
        let seventh = hs(&[14, 15, 16, 17, 18, 19, 13]);
        assert_eq!(seventh.num_ops(), 7);
        let passes: Vec<Range<usize>> = seventh.passes(n, None).collect();
        assert_eq!(passes, [0..6, 6..7]);
        let full = TileShape::of(mixing_of(&seventh.ops()[..6], None)).expect("fits");
        assert_eq!((full.chunk_bits, full.chunks()), (MIN_CHUNK_BITS, 64));
        // Three high qubits leave 2^13-amplitude chunks, so qubits 10–12
        // ride inside them; an op on qubit 14, in [13, 16), would narrow the
        // chunk until they are high too, and starts the next pass.
        let narrowing = hs(&[17, 18, 19, 10, 11, 12, 14]);
        let passes: Vec<Range<usize>> = narrowing.passes(n, None).collect();
        assert_eq!(passes, [0..6, 6..7]);
        let shape = TileShape::of(mixing_of(&narrowing.ops()[..6], None)).expect("fits");
        assert_eq!((shape.chunk_bits, shape.chunks()), (13, 8));
        assert_eq!(shape.position(12), 12);
        assert_eq!(shape.position(18), 14);
        // Narrowed by a qubit that leaves room, the run goes on.
        let room = hs(&[17, 18, 19, 14, 10]);
        let passes: Vec<Range<usize>> = room.passes(n, None).collect();
        assert_eq!((passes.len(), passes[0].clone()), (1, 0..5));
        let shape = TileShape::of(mixing_of(room.ops(), None)).expect("fits");
        assert_eq!((shape.chunk_bits, shape.chunks()), (12, 16));
        // Diagonal runs mix nothing: they never cut a pass, at any qubit.
        let mut diagonal = Circuit::new(n);
        diagonal.h(19).cp(0.3, 13, 12).h(18).rz(0.2, 11).h(17);
        let fused = FusedCircuit::new(&diagonal, 1);
        assert_eq!(fused.passes(n, None).count(), 1);
        // At most one tile, every op is a pass of its own.
        assert!(room.passes(TILE_BITS, None).all(|pass| pass.len() == 1));
    }

    #[test]
    fn diagonal_runs_conform_for_every_factor_placement() {
        use crate::simd::KernelDispatch;
        // One run per class of factor placement relative to the diagonal
        // block (DIAG_BLOCK_BITS): all below, all above, across, on qubit 0,
        // identity on half the blocks (a controlled-phase cascade), more
        // streams than one pass holds — on states smaller than, equal to and
        // larger than one block, with and without a qubit translation.
        let b = DIAG_BLOCK_BITS;
        // (name, register width, (angle, operands) of every gate of the run)
        type Run = (&'static str, usize, Vec<(f64, Vec<Qubit>)>);
        let runs: Vec<Run> = vec![
            ("one qubit", 1, vec![(0.3, vec![0])]),
            (
                "below the block",
                3,
                vec![(0.3, vec![0, 2]), (0.5, vec![1]), (0.2, vec![2, 1])],
            ),
            (
                "exactly one block",
                b,
                vec![(0.3, vec![0, b - 1]), (0.9, vec![3])],
            ),
            (
                "above the block",
                b + 3,
                vec![(0.4, vec![b, b + 2]), (0.1, vec![b + 1])],
            ),
            (
                "across the block",
                b + 3,
                vec![
                    (0.4, vec![0, b]),
                    (0.8, vec![b - 1, b + 2]),
                    (0.3, vec![3, 1]),
                ],
            ),
            (
                "cascade",
                b + 4,
                (0..b + 3)
                    .map(|c| (0.1 + c as f64 * 0.03, vec![c, b + 3]))
                    .collect(),
            ),
            // Two gates fill a factor (a third would make it six qubits), so
            // this is ten factors, each across the block.
            (
                "many streams",
                b + 6,
                (0..20)
                    .map(|i| (0.2 + i as f64 * 0.05, vec![i % b, b + i % 6]))
                    .collect(),
            ),
        ];
        for (name, n, gates) in runs {
            let mut circuit = Circuit::new(n);
            for (angle, qubits) in &gates {
                match qubits[..] {
                    [q] => circuit.rz(*angle, q),
                    [a, c] => circuit.cp(*angle, a, c),
                    _ => unreachable!(),
                };
            }
            let fused = FusedCircuit::new(&circuit, 3);
            assert_eq!(fused.num_ops(), 1, "{name}: a diagonal circuit is one run");
            if let (FusedOp::Diagonal { factors, .. }, "many streams") = (&fused.ops()[0], name) {
                assert!(prepare_diagonal(factors, None, n).passes.len() > 1);
            }
            // Identity map, and a reversal of the register onto a wider one.
            let wide = n + 2;
            let reversed: Vec<Qubit> = (0..n).map(|q| wide - 1 - q).collect();
            for (map, width) in [(None, n), (Some(&reversed), wide)] {
                let init = random_state(width, 0xD1A6 + n as u64);
                let mut target = Circuit::new(width);
                for gate in circuit.gates() {
                    let qubits = gate
                        .qubits
                        .iter()
                        .map(|&q| map.map_or(q, |m| m[q]))
                        .collect();
                    target.push(Gate::new(gate.kind, qubits));
                }
                let mut expected = init.clone();
                crate::kernels::apply_circuit_with(
                    &mut expected,
                    &target,
                    &ApplyOptions::sequential(),
                );
                let mut first: Option<StateVector> = None;
                for opts in [
                    ApplyOptions::sequential(),
                    ApplyOptions {
                        parallel_threshold: 1,
                        ..ApplyOptions::default()
                    },
                ] {
                    for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                        let mut got = init.clone();
                        let opts = opts.with_dispatch(dispatch);
                        match map {
                            None => fused.apply(&mut got, &opts),
                            Some(map) => fused.apply_mapped(&mut got, map, &opts),
                        }
                        let what = format!(
                            "{name} (mapped={}, parallel={}, {dispatch})",
                            map.is_some(),
                            opts.parallel
                        );
                        assert!(
                            got.approx_eq(&expected, 1e-12),
                            "{what}: max diff {}",
                            got.max_abs_diff(&expected)
                        );
                        match &first {
                            None => first = Some(got),
                            Some(first) => assert_bitwise(first, &got, &what),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn toffolis_keep_their_permutation_form() {
        // Priced as the permutations they run, the adder's Toffolis stay solo
        // instead of anchoring dense 3-qubit groups of 8×8 permutations.
        let fused = FusedCircuit::new(&generators::adder(16), 3);
        let mut forms = std::collections::BTreeMap::<String, usize>::new();
        for op in fused.ops() {
            let form = match op {
                FusedOp::Dense(g) => format!("dense{}", g.qubits.len()),
                FusedOp::Solo(gate, _) => format!("solo:{}", gate.kind.name()),
                FusedOp::Diagonal { .. } => "diagonal".to_string(),
            };
            *forms.entry(form).or_default() += 1;
        }
        let expected = [
            ("dense3", 3),
            ("solo:ccx", 14),
            ("solo:cx", 28),
            ("solo:x", 1),
        ];
        let expected = expected.map(|(form, count)| (form.to_string(), count));
        assert_eq!(forms, expected.into_iter().collect());
    }

    #[test]
    fn modelled_worse_groups_fall_back_to_their_solo_form() {
        // Two CXs over the same pair: the dense 4×4 form models PASS + 4
        // against two half-sweep fast paths (2 × (0.5·PASS + 0.5)), so the
        // group must demote to its members — and stay correct.
        let mut circuit = Circuit::new(3);
        circuit.cx(0, 1).cx(0, 1).cx(1, 2);
        let before = fusion_fallback_count();
        let fused = FusedCircuit::new(&circuit, 2);
        assert!(
            fused.ops().iter().all(|op| matches!(op, FusedOp::Solo(..))),
            "cheap fast-path gates must not stay in a dense group"
        );
        assert!(fusion_fallback_count() > before);
        let total: usize = fused.ops().iter().map(FusedOp::fused_count).sum();
        assert_eq!(total, circuit.num_gates());
        let expected = run_circuit(&circuit);
        assert!(fused
            .run(&ApplyOptions::sequential())
            .approx_eq(&expected, 1e-12));

        // A pair of dense single-qubit gates models cheaper fused
        // (PASS + 2 < 2 × (PASS + 2)) and must keep the dense form.
        let mut dense = Circuit::new(1);
        dense.h(0).h(0);
        let fused = FusedCircuit::new(&dense, 2);
        assert!(fused.ops().iter().any(|op| matches!(op, FusedOp::Dense(_))));
    }
}
