//! Grouping: the DAG walk that builds a [`FusedCircuit`], the fusion cost
//! model that gates it, and the adjacent-only reference scanner
//! [`fuse_circuit`].

use super::circuit::{DiagonalFactor, FusedCircuit, FusedGate, FusedOp, DEFAULT_FUSION_WIDTH};
use crate::kernels::{ApplyOptions, MAX_STACK_KERNEL_QUBITS};
use crate::state::StateVector;
use hisvsim_circuit::{Circuit, Complex64, Gate, Qubit, UnitaryMatrix};
use hisvsim_dag::{antichain_fusion_groups, CircuitDag, GateClass};
use std::sync::atomic::{AtomicU64, Ordering};

/// The most qubits one gate acts on (Toffoli, CSWAP).
const MAX_GATE_QUBITS: usize = 3;

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
            fused.push(FusedGate::new(qubits, matrix, group.len()));
            group.clear();
        };

    for (index, gate) in circuit.gates().iter().enumerate() {
        if gate.arity() > max_fused_qubits {
            // Emit the open group, then the oversized gate on its own.
            flush(&mut group, &mut group_qubits, &mut fused);
            fused.push(FusedGate::new(gate.qubits.clone(), gate.matrix(), 1));
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

    /// [`FusedCircuit::new`]; see [`FusionStrategy`](super::FusionStrategy)
    /// for why the strategy parameter is still here.
    pub fn with_strategy(
        circuit: &Circuit,
        max_fused_qubits: usize,
        _strategy: super::FusionStrategy,
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
        Self {
            num_qubits: working_set.len(),
            ops,
            fusion_width: max_fused_qubits,
            source_gates: gates.len(),
        }
    }
}

/// Estimated cost of streaming the state through the cache hierarchy
/// once, relative to one complex multiply-add per amplitude.
const PASS: f64 = 2.0;

/// Process-wide count of fused groups demoted back to their member gates
/// because the modelled fused sweep cost exceeded the sum of the members'
/// solo costs (see `Fuse::emit_dense_group`). Monotonic; the service layer
/// syncs it into the metrics registry at scrape time.
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
        let matrix = build_group_matrix(self.circuit, indices, qubits, &mut self.scratch);
        let qubits = qubits.iter().map(|&q| self.inner(q)).collect();
        ops.push(FusedOp::Dense(FusedGate::new(
            qubits,
            matrix,
            indices.len(),
        )));
    }
}
