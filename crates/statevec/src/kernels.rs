//! Gate-application kernels.
//!
//! The paper's Sec. III-A analysis: applying a gate is a sweep of "scoped"
//! small matrix–vector products over the state vector, with an operational
//! intensity of 7/16 FLOP/byte — firmly memory bound. The kernels here are
//! therefore organised around access pattern, and there is one algorithm per
//! op class:
//!
//! * **dense** gates on `k ≤ 5` qubits (optionally controlled) run the
//!   register-blocked kernel family `dense_range`: two index groups per
//!   work item, column-outer / row-inner accumulation, zero entries skipped;
//! * **permutation** gates (X, CX, CCX, SWAP, CSWAP) move contiguous runs of
//!   amplitudes and touch only the half or quarter that changes
//!   (`swap_patterns`);
//! * **phase** gates (Z, S, T, Rz, CZ, CP, CRz, Rzz, …) multiply only the
//!   amplitudes whose table entry is not exactly one, in contiguous runs
//!   (`scale_by_table`);
//! * gates wider than [`MAX_STACK_KERNEL_QUBITS`] fall back to a heap-scratch
//!   gather/apply/scatter loop.
//!
//! All parallel paths partition the amplitude indices into disjoint groups, so
//! they are data-race free by construction.
//!
//! Every kernel exists in two layers: a public `StateVector` entry point and
//! a `pub(crate)` `*_amps` core over a raw amplitude slice. The slice cores
//! are what the fused executor's cache-blocked sweep calls per tile (gate
//! qubits reinterpreted relative to the tile). The arithmetic kernels are
//! written once, generic over `simd::Lanes`, and instantiated for plain
//! `Complex64` pairs and for AVX2 registers; [`ApplyOptions::dispatch`]
//! picks the instantiation and both produce the same bits.

use crate::simd::{lanes_dispatch, KernelDispatch, Lanes};
use crate::state::StateVector;
use hisvsim_circuit::{Complex64, Gate, GateKind, Qubit, UnitaryMatrix};
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Controls how kernels execute.
#[derive(Debug, Clone, Copy)]
pub struct ApplyOptions {
    /// Use rayon data parallelism when the state is large enough.
    pub parallel: bool,
    /// Minimum number of amplitudes before the parallel path is taken;
    /// below this the sequential loop is faster than the fork/join overhead.
    /// The default is the crossover `BENCH_kernels.json` records
    /// (`thresholds`: the pool spawns and joins a thread per segment, 100–200 µs
    /// a sweep, so on two cores it takes 3.7–15× one thread's time at 2^14 and
    /// 1.3–4.7× at 2^16; at 2^18 dense sweeps win but streaming ones still
    /// lose 1.1–1.25×; 2^19 is the first width where no row loses); a
    /// persistent pool (ROADMAP item 2) lowers it again.
    /// `kernel_microbench --check` fails when the pool loses at this width.
    pub parallel_threshold: usize,
    /// Which kernel implementation to run (SIMD when available vs forced
    /// scalar). Both produce bit-identical amplitudes.
    pub dispatch: KernelDispatch,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        Self {
            parallel: true,
            parallel_threshold: 1 << 19,
            dispatch: KernelDispatch::Auto,
        }
    }
}

impl ApplyOptions {
    /// Fully sequential execution (used by the per-rank local engines, which
    /// already parallelise across ranks).
    pub fn sequential() -> Self {
        Self {
            parallel: false,
            parallel_threshold: usize::MAX,
            dispatch: KernelDispatch::Auto,
        }
    }

    /// Same options with an explicit kernel dispatch.
    pub fn with_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    #[inline]
    pub(crate) fn go_parallel(&self, len: usize) -> bool {
        self.parallel && len >= self.parallel_threshold
    }

    /// Whether this application runs the AVX2 kernels.
    #[inline]
    pub(crate) fn use_simd(&self) -> bool {
        self.dispatch.use_simd()
    }
}

/// Apply a gate to a state vector using the default options.
pub fn apply_gate(state: &mut StateVector, gate: &Gate) {
    apply_gate_with(state, gate, &ApplyOptions::default());
}

/// Apply a gate to a state vector with explicit execution options.
pub fn apply_gate_with(state: &mut StateVector, gate: &Gate, opts: &ApplyOptions) {
    apply_gate_with_matrix(state, gate, None, opts);
}

/// True when [`apply_gate_with`]'s dispatch consumes the gate's dense matrix
/// (as opposed to a matrix-free permutation path like X/CX/CCX/SWAP/CSWAP or
/// CZ's fixed phase table). Callers that apply the same gate many times (e.g.
/// once per virtual rank) use this to decide whether precomputing the matrix
/// is worthwhile.
pub fn uses_dense_matrix(gate: &Gate) -> bool {
    !matches!(
        (&gate.kind, gate.qubits.len()),
        (GateKind::I, _)
            | (GateKind::X, 1)
            | (GateKind::Cx, 2)
            | (GateKind::Cz, 2)
            | (GateKind::Swap, 2)
            | (GateKind::Ccx, 3)
            | (GateKind::Cswap, 3)
    )
}

/// Apply a gate, optionally supplying its precomputed dense matrix so hot
/// loops (per-rank remapped copies, fused pipelines) do not recompute
/// `gate.matrix()` on every application. `matrix`, when given, must equal
/// `gate.kind.matrix()`; the gate's qubit list is still what selects the
/// state indices, so a remapped gate can share the original's matrix.
pub fn apply_gate_with_matrix(
    state: &mut StateVector,
    gate: &Gate,
    matrix: Option<&UnitaryMatrix>,
    opts: &ApplyOptions,
) {
    let n = state.num_qubits();
    for &q in &gate.qubits {
        assert!(q < n, "gate touches qubit {q} but the state has {n} qubits");
    }
    apply_kind_amps(
        state.amplitudes_mut(),
        &gate.kind,
        &gate.qubits,
        matrix,
        opts,
    );
}

/// [`apply_gate_with_matrix`] over a raw amplitude slice — a whole state or
/// an aligned power-of-two tile of one, with the operand qubits interpreted
/// relative to the slice (and passed separately from the kind, so a
/// translated application needs no `Gate` of its own). The fused executor's
/// cache-blocked sweep relies on this to run whole op-runs tile-by-tile.
pub(crate) fn apply_kind_amps(
    amps: &mut [Complex64],
    kind: &GateKind,
    qubits: &[Qubit],
    matrix: Option<&UnitaryMatrix>,
    opts: &ApplyOptions,
) {
    debug_assert!(qubits.iter().all(|&q| 1usize << (q + 1) <= amps.len()));
    match (kind, qubits) {
        (GateKind::I, _) => return,
        // Permutations move amplitudes and never need a matrix.
        (GateKind::X, &[q]) => return apply_x_amps(amps, q, opts),
        (GateKind::Cx, &[c, t]) => return apply_cx_amps(amps, c, t, opts),
        (GateKind::Swap, &[a, b]) => return apply_swap_amps(amps, a, b, opts),
        (GateKind::Ccx, &[c0, c1, t]) => {
            let controls = (1usize << c0) | (1usize << c1);
            return swap_patterns(amps, qubits, controls, controls | (1usize << t), opts);
        }
        (GateKind::Cswap, &[c, a, b]) => {
            let control = 1usize << c;
            return swap_patterns(
                amps,
                qubits,
                control | (1usize << a),
                control | (1usize << b),
                opts,
            );
        }
        (GateKind::Cz, &[a, b]) => return apply_cz_amps(amps, a, b, opts),
        _ => {}
    }
    // Every remaining arm consumes the dense matrix.
    let computed;
    let m = match matrix {
        Some(m) => m,
        None => {
            computed = kind.matrix();
            &computed
        }
    };
    match *qubits {
        [q] if kind.is_diagonal() => {
            apply_diagonal_single_amps(amps, q, m.get(0, 0), m.get(1, 1), opts)
        }
        [q] => {
            let mat = [m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1)];
            apply_single_amps(amps, q, &mat, opts);
        }
        [a, b] if kind.is_diagonal() => {
            let diag = [m.get(0, 0), m.get(1, 1), m.get(2, 2), m.get(3, 3)];
            apply_diagonal_two_amps(amps, a, b, &diag, opts);
        }
        [c, t] if kind.num_controls() == 1 => {
            // Controlled single-qubit gate: the 2x2 block on the target,
            // restricted to the control=1 half.
            let mat = [m.get(1, 1), m.get(1, 3), m.get(3, 1), m.get(3, 3)];
            apply_controlled_single_amps(amps, c, t, &mat, opts);
        }
        [a, b] => apply_two_qubit_dense_amps(amps, a, b, m, opts),
        _ => apply_dense_amps(amps, qubits, m, &DenseMasks::of(m), opts),
    }
}

/// Apply every gate of a circuit to the state, in order.
pub fn apply_circuit(state: &mut StateVector, circuit: &hisvsim_circuit::Circuit) {
    apply_circuit_with(state, circuit, &ApplyOptions::default());
}

/// Apply every gate of a circuit with explicit execution options.
pub fn apply_circuit_with(
    state: &mut StateVector,
    circuit: &hisvsim_circuit::Circuit,
    opts: &ApplyOptions,
) {
    assert!(
        circuit.num_qubits() <= state.num_qubits(),
        "circuit needs {} qubits, state has {}",
        circuit.num_qubits(),
        state.num_qubits()
    );
    for gate in circuit.gates() {
        apply_gate_with(state, gate, opts);
    }
}

/// Run a circuit from `|0…0⟩` and return the resulting state.
///
/// This is the *flat* (non-hierarchical) reference simulator every other
/// engine in the workspace is validated against.
pub fn run_circuit(circuit: &hisvsim_circuit::Circuit) -> StateVector {
    run_circuit_with(circuit, &ApplyOptions::default())
}

/// Run a circuit from `|0…0⟩` with explicit options.
pub fn run_circuit_with(circuit: &hisvsim_circuit::Circuit, opts: &ApplyOptions) -> StateVector {
    let mut state = StateVector::zero_state(circuit.num_qubits());
    apply_circuit_with(&mut state, circuit, opts);
    state
}

// ---------------------------------------------------------------------------
// dense entry points
// ---------------------------------------------------------------------------

/// Apply a dense 2×2 matrix `[m00, m01, m10, m11]` on qubit `q`.
pub fn apply_single(state: &mut StateVector, q: Qubit, m: &[Complex64; 4], opts: &ApplyOptions) {
    apply_single_amps(state.amplitudes_mut(), q, m, opts);
}

pub(crate) fn apply_single_amps(
    amps: &mut [Complex64],
    q: Qubit,
    m: &[Complex64; 4],
    opts: &ApplyOptions,
) {
    dense_sweep(
        amps,
        &[q],
        None,
        m,
        DenseMasks::of_rows(m, 2).as_slice(),
        opts,
    );
}

/// Apply a 2×2 matrix on `target`, conditioned on `control` being 1.
pub fn apply_controlled_single(
    state: &mut StateVector,
    control: Qubit,
    target: Qubit,
    m: &[Complex64; 4],
    opts: &ApplyOptions,
) {
    apply_controlled_single_amps(state.amplitudes_mut(), control, target, m, opts);
}

pub(crate) fn apply_controlled_single_amps(
    amps: &mut [Complex64],
    control: Qubit,
    target: Qubit,
    m: &[Complex64; 4],
    opts: &ApplyOptions,
) {
    assert_ne!(control, target, "control and target must be distinct");
    let masks = DenseMasks::of_rows(m, 2);
    dense_sweep(amps, &[target], Some(control), m, masks.as_slice(), opts);
}

/// Apply a dense 4×4 unitary on qubits `(a, b)` where operand `a` is matrix
/// bit 0 and operand `b` is matrix bit 1 (the [`GateKind::matrix`]
/// convention).
pub fn apply_two_qubit_dense(
    state: &mut StateVector,
    a: Qubit,
    b: Qubit,
    matrix: &UnitaryMatrix,
    opts: &ApplyOptions,
) {
    apply_two_qubit_dense_amps(state.amplitudes_mut(), a, b, matrix, opts);
}

pub(crate) fn apply_two_qubit_dense_amps(
    amps: &mut [Complex64],
    a: Qubit,
    b: Qubit,
    matrix: &UnitaryMatrix,
    opts: &ApplyOptions,
) {
    assert_eq!(matrix.dim(), 4, "two-qubit kernel needs a 4x4 matrix");
    assert_ne!(a, b, "two-qubit gate operands must be distinct");
    let masks = DenseMasks::of(matrix);
    dense_sweep(
        amps,
        &[a, b],
        None,
        matrix.as_slice(),
        masks.as_slice(),
        opts,
    );
}

/// Apply an arbitrary `k`-qubit unitary to the given (distinct) qubits.
///
/// Operand `qubits[j]` corresponds to bit `j` of the matrix index, matching
/// [`GateKind::matrix`]'s convention. This convenience entry scans the
/// matrix for zeros on every call; the fused executor does that once per op
/// at build time instead.
pub fn apply_k_qubit(
    state: &mut StateVector,
    qubits: &[Qubit],
    matrix: &UnitaryMatrix,
    opts: &ApplyOptions,
) {
    apply_dense_amps(
        state.amplitudes_mut(),
        qubits,
        matrix,
        &DenseMasks::of(matrix),
        opts,
    );
}

/// Apply a dense matrix with its prepared zero masks to `qubits` of an
/// amplitude slice: the register-blocked family for `k ≤ 5`, the heap
/// fallback above that.
pub(crate) fn apply_dense_amps(
    amps: &mut [Complex64],
    qubits: &[Qubit],
    matrix: &UnitaryMatrix,
    masks: &DenseMasks,
    opts: &ApplyOptions,
) {
    let k = qubits.len();
    assert_eq!(matrix.dim(), 1 << k, "matrix dimension mismatch");
    assert!(amps.len() >= 1 << k, "state too small for a {k}-qubit gate");
    if k <= MAX_STACK_KERNEL_QUBITS {
        dense_sweep(
            amps,
            qubits,
            None,
            matrix.as_slice(),
            masks.as_slice(),
            opts,
        );
    } else {
        apply_k_qubit_heap(amps, qubits, matrix.as_slice(), opts);
    }
}

// ---------------------------------------------------------------------------
// the dense kernel family
// ---------------------------------------------------------------------------

/// Widest gate the register-blocked kernel handles without heap allocation.
/// Fused groups are kept at or below this width, so the fused execution
/// pipeline never allocates inside the sweep.
pub const MAX_STACK_KERNEL_QUBITS: usize = 5;
const STACK_DIM: usize = 1 << MAX_STACK_KERNEL_QUBITS;
/// Rows accumulated together: one register per row, so each input amplitude
/// (and its lane-swapped copy) is loaded once per column of the block.
const ROW_BLOCK: usize = 8;

/// Where a dense gate matrix has its zeros: one bit mask per (column, row
/// block), bit `r` of mask `c * blocks + b` set when entry (row
/// `b * ROW_BLOCK + r`, column `c`) is non-zero. Fused group matrices are
/// usually far from dense — controlled factors and permutation structure
/// leave most entries zero — so skipping zeros cuts the arithmetic directly.
/// Built once per fused op; it depends only on the matrix, never on where the
/// gate is applied, so every placement of an op skips the same terms. (The
/// entries themselves are read from the row-major matrix: each one is a
/// scalar broadcast, so their order in memory does not matter.)
///
/// Masks of up to three-qubit matrices (every per-call entry point, and every
/// fused group at the default width) sit inline, so taking them costs no
/// allocation; wider ones go to the heap.
#[derive(Debug, Clone)]
pub(crate) enum DenseMasks {
    Inline([u8; ROW_BLOCK], usize),
    Heap(Box<[u8]>),
}

impl DenseMasks {
    fn as_slice(&self) -> &[u8] {
        match self {
            DenseMasks::Inline(masks, len) => &masks[..*len],
            DenseMasks::Heap(masks) => masks,
        }
    }

    pub(crate) fn of(matrix: &UnitaryMatrix) -> Self {
        Self::of_rows(matrix.as_slice(), matrix.dim())
    }

    fn of_rows(rows: &[Complex64], dim: usize) -> Self {
        assert!(
            dim.is_power_of_two() && rows.len() == dim * dim,
            "gate matrices are 2^k square"
        );
        let block = dim.min(ROW_BLOCK);
        let blocks = dim / block;
        let mut inline = [0u8; ROW_BLOCK];
        let mut heap = Vec::new();
        let masks: &mut [u8] = if dim * blocks <= inline.len() {
            &mut inline[..dim * blocks]
        } else {
            heap.resize(dim * blocks, 0);
            &mut heap
        };
        for (i, &entry) in rows.iter().enumerate() {
            let (r, c) = (i / dim, i % dim);
            if entry != Complex64::ZERO {
                masks[c * blocks + r / block] |= 1 << (r % block);
            }
        }
        if heap.is_empty() {
            DenseMasks::Inline(inline, dim * blocks)
        } else {
            DenseMasks::Heap(heap.into())
        }
    }
}

/// Per-application index data of a dense sweep, derived once from the
/// operand placement.
struct Placement {
    /// Targets and control, ascending: the bits a group index skips.
    fixed: [Qubit; MAX_STACK_KERNEL_QUBITS + 1],
    nfixed: usize,
    /// How many of the lowest state bits are fixed (`fixed[i] == i`): bit
    /// `packed` is the lowest free one, so consecutive groups sit
    /// `1 << packed` amplitudes apart.
    packed: usize,
    /// `offsets[sub]` = state-index bits of matrix sub-index `sub`.
    offsets: [usize; STACK_DIM],
    /// Bits forced to one in every touched index (the control).
    ctrl_mask: usize,
    /// The state holds exactly one group; both lanes process it.
    single_group: bool,
}

/// Sweep a prepared `k ≤ 5` dense matrix over `targets` (operand `j` =
/// matrix bit `j`), restricted to `control = 1` when a control is given.
fn dense_sweep(
    amps: &mut [Complex64],
    targets: &[Qubit],
    control: Option<Qubit>,
    rows: &[Complex64],
    masks: &[u8],
    opts: &ApplyOptions,
) {
    let k = targets.len();
    let dim = 1usize << k;
    assert!((1..=MAX_STACK_KERNEL_QUBITS).contains(&k));
    // The kernels index these without bounds checks.
    assert_eq!(rows.len(), dim * dim);
    assert_eq!(masks.len(), dim * dim.div_ceil(ROW_BLOCK));

    let mut pl = Placement {
        fixed: [0; MAX_STACK_KERNEL_QUBITS + 1],
        nfixed: k + control.is_some() as usize,
        packed: 0,
        offsets: [0; STACK_DIM],
        ctrl_mask: control.map_or(0, |c| 1usize << c),
        single_group: false,
    };
    pl.fixed[..k].copy_from_slice(targets);
    if let Some(c) = control {
        pl.fixed[k] = c;
    }
    let len = amps.len();
    let fixed = &mut pl.fixed[..pl.nfixed];
    sort_operands(fixed, len);
    pl.packed = fixed
        .iter()
        .enumerate()
        .take_while(|&(i, &q)| i == q)
        .count();
    sub_offset_table(targets, &mut pl.offsets[..dim]);

    let groups = len >> pl.nfixed;
    pl.single_group = groups == 1;
    // A work item is a pair of index groups processed in the two lanes. When
    // bit 0 of the state index is free (no operand on qubit 0) the groups
    // `2p, 2p+1` are adjacent in memory and every sub-index is one
    // contiguous two-amplitude access. Otherwise — qubit 0 is an operand, or
    // the state holds a single group — the two lanes are loaded and stored
    // one amplitude each, which costs load and store slots but no shuffles.
    let contiguous = pl.packed == 0;
    let full = ((1u16 << dim.min(ROW_BLOCK)) - 1) as u8;
    let skip = masks.iter().any(|&mask| mask != full);
    let pairs = (groups / 2).max(1);
    let simd = opts.use_simd();
    let ptr = SharedAmps::new(amps);
    let pl = &pl;
    for_each_range(pairs, opts.go_parallel(len), |range| {
        // SAFETY: distinct pairs touch disjoint index groups, all below
        // `len`; `simd` comes from the dispatch resolution; the matrix
        // lengths were checked above.
        unsafe {
            dense_range_dyn(
                simd,
                (k, contiguous, skip),
                ptr.as_ptr(),
                range,
                pl,
                rows,
                masks,
            )
        }
    });
}

/// Monomorphise [`dense_range`] on the run-time `(k, contiguous, skip)`.
///
/// # Safety
/// As [`dense_range`]; `simd` must come from [`ApplyOptions::use_simd`].
unsafe fn dense_range_dyn(
    simd: bool,
    shape: (usize, bool, bool),
    ptr: *mut Complex64,
    pairs: Range<usize>,
    pl: &Placement,
    rows: &[Complex64],
    masks: &[u8],
) {
    macro_rules! arms {
        ($($k:literal)*) => {
            match shape {
                $(
                    ($k, true, false) => dense_range_on::<$k, true, false>(simd, ptr, pairs, pl, rows, masks),
                    ($k, true, true) => dense_range_on::<$k, true, true>(simd, ptr, pairs, pl, rows, masks),
                    ($k, false, false) => dense_range_on::<$k, false, false>(simd, ptr, pairs, pl, rows, masks),
                    ($k, false, true) => dense_range_on::<$k, false, true>(simd, ptr, pairs, pl, rows, masks),
                )*
                _ => unreachable!("dense_sweep checked k"),
            }
        };
    }
    arms!(1 2 3 4 5)
}

lanes_dispatch! {
    /// Pick the lane instantiation of [`dense_range`].
    unsafe fn dense_range_on<const K: usize, const CONTIG: bool, const SKIP: bool>(
        ptr: *mut Complex64,
        pairs: Range<usize>,
        pl: &Placement,
        rows: &[Complex64],
        masks: &[u8],
    ) => dense_range
}

/// The dense kernel over work items `pairs` (item `p` = groups `2p, 2p+1`).
/// `SKIP` says the matrix has zero entries worth testing the masks for.
/// (`rows` and `masks` arrive as plain shared slices so the optimiser knows
/// the stores through `ptr` cannot change them.)
///
/// # Safety
/// `ptr` must address the whole state [`dense_sweep`] derived `pl` for, with
/// exclusive access to the groups of `pairs`; `rows` must hold the `4^K`
/// row-major entries and `masks` their [`DenseMasks`]; for the AVX2
/// instantiation the CPU must support AVX2.
#[inline(always)]
unsafe fn dense_range<L: Lanes, const K: usize, const CONTIG: bool, const SKIP: bool>(
    ptr: *mut Complex64,
    pairs: Range<usize>,
    pl: &Placement,
    rows: &[Complex64],
    masks: &[u8],
) {
    // The lowest free bit is `packed`: that is how far apart the two groups
    // of a work item sit.
    let partner = if pl.single_group {
        0
    } else {
        1usize << pl.packed
    };
    for base in run_bases(2 * pairs.start, pairs.len(), 2, &pl.fixed[..pl.nfixed]) {
        let a = base | pl.ctrl_mask;
        dense_pair::<L, K, CONTIG, SKIP>(ptr, a, a + partner, pl, rows, masks);
    }
}

/// One work item: multiply the matrix into the groups based at `a` and `b`
/// (`b` is `a + 1`, and unused, when `CONTIG`).
///
/// Accumulation is column-outer, row-inner: for each input amplitude (a
/// column) every row of the block takes one multiply-accumulate into its own
/// register, so there is no dependent chain across a row's terms and the
/// lane-swapped input is made once per column. Each row still sums its
/// columns in ascending order — the order of the plain
/// `acc = acc.mul_add(m[row][col], amp[col])` loop — starting from zero when
/// zero entries are skipped and from the first column's product otherwise.
// The counters below index several arrays at once and are compile-time
// ranges the optimiser unrolls; iterator chains would hide both.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn dense_pair<L: Lanes, const K: usize, const CONTIG: bool, const SKIP: bool>(
    ptr: *mut Complex64,
    a: usize,
    b: usize,
    pl: &Placement,
    rows: &[Complex64],
    masks: &[u8],
) {
    let dim = 1usize << K;
    let block = if dim < ROW_BLOCK { dim } else { ROW_BLOCK };
    let blocks = dim / block;
    let off = &pl.offsets;
    let mut input = [MaybeUninit::<L>::uninit(); STACK_DIM];
    let mut output = [MaybeUninit::<L>::uninit(); STACK_DIM];
    for s in 0..dim {
        input[s].write(match CONTIG {
            true => L::load(ptr.add(a | off[s])),
            false => L::load2(ptr.add(a | off[s]), ptr.add(b | off[s])),
        });
    }

    for rb in 0..blocks {
        let mut acc = [L::zero(); ROW_BLOCK];
        for c in 0..dim {
            let v = input[c].assume_init();
            let vs = v.swapped();
            // Entry (row, c) of the block's rows, `dim` apart in memory.
            let entry = |r: usize| &*rows.as_ptr().add((rb * block + r) * dim + c);
            if !SKIP {
                // No zero entries: every row takes every column, and the
                // first column starts the sum instead of adding to zero.
                for r in 0..block {
                    acc[r] = match c {
                        0 => L::mul(entry(r), v, vs),
                        _ => acc[r].macc(entry(r), v, vs),
                    };
                }
                continue;
            }
            let mask = *masks.get_unchecked(c * blocks + rb);
            for r in 0..block {
                if mask >> r & 1 != 0 {
                    acc[r] = acc[r].macc(entry(r), v, vs);
                }
            }
        }
        for r in 0..block {
            output[rb * block + r].write(acc[r]);
        }
    }

    for s in 0..dim {
        let out = output[s].assume_init();
        match CONTIG {
            true => out.store(ptr.add(a | off[s])),
            false => out.store2(ptr.add(a | off[s]), ptr.add(b | off[s])),
        }
    }
}

/// Heap fallback for `k > 5`: one scratch buffer pair per range of groups
/// (per gate application in the sequential path), never one per group.
/// Same column-outer accumulation as the register-blocked family, in plain
/// `Complex64` arithmetic under either dispatch.
fn apply_k_qubit_heap(
    amps: &mut [Complex64],
    qubits: &[Qubit],
    rows: &[Complex64],
    opts: &ApplyOptions,
) {
    let k = qubits.len();
    let dim = 1usize << k;
    let len = amps.len();
    let groups = len >> k;

    let mut sorted: Vec<Qubit> = qubits.to_vec();
    sorted.sort_unstable();
    let mut offsets = vec![0usize; dim];
    sub_offset_table(qubits, &mut offsets);
    let sorted = &sorted;
    let offsets = &offsets;

    let amps_ptr = SharedAmps::new(amps);
    for_each_range(groups, opts.go_parallel(len), |range| {
        let mut input = vec![Complex64::ZERO; dim];
        let mut output = vec![Complex64::ZERO; dim];
        for g in range {
            let base = spread_sorted(g, sorted);
            for (slot, &off) in input.iter_mut().zip(offsets) {
                // SAFETY: groups are disjoint — all gate-qubit bits are fixed
                // per sub-index and the base enumerates the remaining bits
                // uniquely.
                *slot = unsafe { *amps_ptr.as_ptr().add(base | off) };
            }
            output.fill(Complex64::ZERO);
            for (c, &v) in input.iter().enumerate() {
                for (acc, row) in output.iter_mut().zip(rows.chunks_exact(dim)) {
                    if row[c] != Complex64::ZERO {
                        *acc = acc.mul_add(row[c], v);
                    }
                }
            }
            for (&value, &off) in output.iter().zip(offsets) {
                // SAFETY: as above.
                unsafe { *amps_ptr.as_ptr().add(base | off) = value };
            }
        }
    });
}

// ---------------------------------------------------------------------------
// permutation gates
// ---------------------------------------------------------------------------

/// Apply a Pauli-X on qubit `q` (pure swap of the two halves of every block).
pub fn apply_x(state: &mut StateVector, q: Qubit, opts: &ApplyOptions) {
    apply_x_amps(state.amplitudes_mut(), q, opts);
}

pub(crate) fn apply_x_amps(amps: &mut [Complex64], q: Qubit, opts: &ApplyOptions) {
    swap_patterns(amps, &[q], 0, 1usize << q, opts);
}

/// Apply a CNOT (control, target).
pub fn apply_cx(state: &mut StateVector, control: Qubit, target: Qubit, opts: &ApplyOptions) {
    apply_cx_amps(state.amplitudes_mut(), control, target, opts);
}

pub(crate) fn apply_cx_amps(
    amps: &mut [Complex64],
    control: Qubit,
    target: Qubit,
    opts: &ApplyOptions,
) {
    let c = 1usize << control;
    swap_patterns(amps, &[control, target], c, c | (1usize << target), opts);
}

/// Apply a SWAP between qubits `a` and `b`.
pub fn apply_swap(state: &mut StateVector, a: Qubit, b: Qubit, opts: &ApplyOptions) {
    apply_swap_amps(state.amplitudes_mut(), a, b, opts);
}

pub(crate) fn apply_swap_amps(amps: &mut [Complex64], a: Qubit, b: Qubit, opts: &ApplyOptions) {
    swap_patterns(amps, &[a, b], 1usize << a, 1usize << b, opts);
}

/// Longest contiguous stretch one work item of the run kernels handles
/// (64 KiB of amplitudes), so a gate on a high qubit still splits across
/// threads.
const PIECE: usize = 1 << 12;

/// The permutation kernel: for every assignment of the qubits *not* in
/// `qubits`, exchange the amplitude whose `qubits` bits read `set_a` with the
/// one whose bits read `set_b`. X, CX, CCX, SWAP and CSWAP are all this with
/// different patterns; only the half or quarter of the state named by the
/// patterns is touched, in contiguous runs of `2^min(qubits)` amplitudes
/// (every other amplitude when qubit 0 takes part).
fn swap_patterns(
    amps: &mut [Complex64],
    qubits: &[Qubit],
    set_a: usize,
    set_b: usize,
    opts: &ApplyOptions,
) {
    let mut fixed = [0 as Qubit; 3];
    let fixed = &mut fixed[..qubits.len()];
    fixed.copy_from_slice(qubits);
    let len = amps.len();
    sort_operands(fixed, len);
    // With qubit 0 fixed the partners alternate with untouched amplitudes:
    // enumerate runs over the remaining fixed bits and step by two.
    let (alternate, skip) = match fixed[0] {
        0 => (true, &fixed[1..]),
        _ => (false, &fixed[..]),
    };
    let simd = opts.use_simd();
    let ptr = SharedAmps::new(amps);
    for_each_run(len, skip, opts.go_parallel(len), |runs, run| {
        // SAFETY: a run base has the fixed bits clear and `run` does not
        // carry into them, so both ranges of a run are in bounds, the two
        // patterns never meet, and distinct runs are disjoint; `run` is even;
        // `simd` comes from the dispatch resolution.
        unsafe {
            let (pa, pb) = (ptr.as_ptr().add(set_a), ptr.as_ptr().add(set_b));
            swap_runs_on(simd, (pa, pb), alternate, runs, run, skip)
        }
    });
}

lanes_dispatch! {
    /// Pick the lane instantiation of [`swap_runs`].
    unsafe fn swap_runs_on(
        patterns: (*mut Complex64, *mut Complex64),
        alternate: bool,
        runs: Range<usize>,
        run: usize,
        skip: &[Qubit],
    ) => swap_runs
}

/// For each run of `runs` (see [`for_each_run`]) exchange the `run` (even)
/// amplitudes at `patterns.0 + base` with those at `patterns.1 + base` — every other one of
/// them when `alternate` is set, moved singly; two per step otherwise.
///
/// # Safety
/// Those ranges must be in bounds, disjoint and exclusively owned; AVX2 must
/// be available for that instantiation.
#[inline(always)]
unsafe fn swap_runs<L: Lanes>(
    patterns: (*mut Complex64, *mut Complex64),
    alternate: bool,
    runs: Range<usize>,
    run: usize,
    skip: &[Qubit],
) {
    for base in run_bases(runs.start * run, runs.len(), run, skip) {
        let (pa, pb) = (patterns.0.add(base), patterns.1.add(base));
        for j in (0..run).step_by(2) {
            if alternate {
                std::ptr::swap(pa.add(j), pb.add(j));
            } else {
                let (a, b) = (L::load(pa.add(j)), L::load(pb.add(j)));
                b.store(pa.add(j));
                a.store(pb.add(j));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// phase gates
// ---------------------------------------------------------------------------

/// Apply a diagonal single-qubit gate `diag(d0, d1)` on qubit `q`.
pub fn apply_diagonal_single(
    state: &mut StateVector,
    q: Qubit,
    d0: Complex64,
    d1: Complex64,
    opts: &ApplyOptions,
) {
    apply_diagonal_single_amps(state.amplitudes_mut(), q, d0, d1, opts);
}

pub(crate) fn apply_diagonal_single_amps(
    amps: &mut [Complex64],
    q: Qubit,
    d0: Complex64,
    d1: Complex64,
    opts: &ApplyOptions,
) {
    scale_by_table(amps, &[q], &[d0, d1], opts);
}

/// Apply a CZ (symmetric): flip the sign of amplitudes where both bits are 1.
pub fn apply_cz(state: &mut StateVector, a: Qubit, b: Qubit, opts: &ApplyOptions) {
    apply_cz_amps(state.amplitudes_mut(), a, b, opts);
}

pub(crate) fn apply_cz_amps(amps: &mut [Complex64], a: Qubit, b: Qubit, opts: &ApplyOptions) {
    let one = Complex64::ONE;
    scale_by_table(amps, &[a, b], &[one, one, one, -one], opts);
}

/// Apply a diagonal two-qubit gate `diag(d00, d01, d10, d11)` where the digit
/// order is (qubit `b`, qubit `a`) — i.e. `d01` multiplies states with a=1,
/// b=0, matching the operand-0-is-LSB matrix convention.
pub fn apply_diagonal_two(
    state: &mut StateVector,
    a: Qubit,
    b: Qubit,
    diag: &[Complex64; 4],
    opts: &ApplyOptions,
) {
    apply_diagonal_two_amps(state.amplitudes_mut(), a, b, diag, opts);
}

pub(crate) fn apply_diagonal_two_amps(
    amps: &mut [Complex64],
    a: Qubit,
    b: Qubit,
    diag: &[Complex64; 4],
    opts: &ApplyOptions,
) {
    scale_by_table(amps, &[a, b], diag, opts);
}

/// The phase kernel: multiply every amplitude by `table[sub]`, `sub` being
/// its bits at `qubits` (operand `j` = bit `j`). Entries that are exactly one
/// are skipped, so S/T/P touch half the state and CZ/CP a quarter; the rest
/// is scaled in contiguous runs, two amplitudes per step.
fn scale_by_table(
    amps: &mut [Complex64],
    qubits: &[Qubit],
    table: &[Complex64],
    opts: &ApplyOptions,
) {
    let k = qubits.len();
    debug_assert_eq!(table.len(), 1 << k);
    let mut fixed = [0 as Qubit; 2];
    let fixed = &mut fixed[..k];
    fixed.copy_from_slice(qubits);
    let len = amps.len();
    sort_operands(fixed, len);
    // When qubit 0 is an operand, neighbouring amplitudes take different
    // entries: the two lanes carry `table[sub]` and `table[sub | lane_bit]`
    // and the runs are enumerated over the other operand only.
    let (lane_bit, skip) = match fixed[0] {
        0 => (
            1usize << qubits.iter().position(|&q| q == 0).expect("sorted first"),
            &fixed[1..],
        ),
        _ => (0, &fixed[..]),
    };
    let mut offsets = [0usize; 4];
    sub_offset_table(qubits, &mut offsets[..1 << k]);
    // The (offset, lane phases) of every sub-index that changes anything.
    let mut scaled = [(0usize, [Complex64::ONE; 2]); 4];
    let mut count = 0;
    for sub in (0..1usize << k).filter(|sub| sub & lane_bit == 0) {
        let phases = [table[sub], table[sub | lane_bit]];
        if phases != [Complex64::ONE; 2] {
            scaled[count] = (offsets[sub], phases);
            count += 1;
        }
    }
    let scaled = &scaled[..count];
    let simd = opts.use_simd();
    let ptr = SharedAmps::new(amps);
    for_each_run(len, skip, opts.go_parallel(len), |runs, run| {
        // SAFETY: every `base | offset` starts `run` in-bounds amplitudes no
        // other (run, sub-index) touches; `run` is even; `simd` comes from
        // the dispatch resolution.
        unsafe { scale_runs_on(simd, ptr.as_ptr(), runs, run, skip, scaled) }
    });
}

lanes_dispatch! {
    /// Pick the lane instantiation of [`scale_runs`].
    unsafe fn scale_runs_on(
        ptr: *mut Complex64,
        runs: Range<usize>,
        run: usize,
        skip: &[Qubit],
        scaled: &[(usize, [Complex64; 2])],
    ) => scale_runs
}

/// For each run of `runs` (see [`for_each_run`]) and each `(offset, phases)`
/// of `scaled`, multiply the `run` (even) contiguous amplitudes at
/// `base | offset` by `phases` — lane 0's on the even ones, lane 1's on the
/// odd ones.
///
/// # Safety
/// Those ranges must be in bounds and exclusively owned; AVX2 must be
/// available for that instantiation.
#[inline(always)]
unsafe fn scale_runs<L: Lanes>(
    ptr: *mut Complex64,
    runs: Range<usize>,
    run: usize,
    skip: &[Qubit],
    scaled: &[(usize, [Complex64; 2])],
) {
    for base in run_bases(runs.start * run, runs.len(), run, skip) {
        for (offset, phases) in scaled {
            let phase = L::load(phases.as_ptr());
            let p = ptr.add(base | offset);
            for i in (0..run).step_by(2) {
                L::load(p.add(i)).cmul(phase).store(p.add(i));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// Sort `operands` ascending and check they are distinct qubits of a state of
/// `len` amplitudes — what every kernel's index arithmetic relies on.
fn sort_operands(operands: &mut [Qubit], len: usize) {
    operands.sort_unstable();
    assert!(
        operands.windows(2).all(|w| w[0] != w[1])
            && operands.last().is_some_and(|&q| 1usize << q < len),
        "operands must be distinct qubits of the state"
    );
}

/// Insert zero bits at every (ascending) position in `sorted`, producing a
/// state index whose gate-qubit bits are 0 and whose other bits enumerate `g`.
#[inline(always)]
fn spread_sorted(g: usize, sorted: &[Qubit]) -> usize {
    let mut base = g;
    for &q in sorted {
        let low = base & ((1usize << q) - 1);
        base = ((base >> q) << (q + 1)) | low;
    }
    base
}

/// Build the sub-index offset table `offsets[sub] = Σ_{bit b set in sub}
/// 2^{qubits[b]}` so the group loop indexes with a single OR instead of
/// re-spreading bits per amplitude. Computed once per gate application.
#[inline]
fn sub_offset_table(qubits: &[Qubit], offsets: &mut [usize]) {
    offsets[0] = 0;
    for sub in 1..offsets.len() {
        let low_bit = sub.trailing_zeros() as usize;
        offsets[sub] = offsets[sub & (sub - 1)] | (1usize << qubits[low_bit]);
    }
}

/// Run `body` over `0..items`: as one range when `parallel` is off, else as
/// contiguous sub-ranges on the rayon pool (a few per thread).
pub(crate) fn for_each_range(items: usize, parallel: bool, body: impl Fn(Range<usize>) + Sync) {
    if !parallel || items < 2 {
        return body(0..items);
    }
    let chunk = items.div_ceil(rayon::current_num_threads() * 4);
    (0..items.div_ceil(chunk))
        .into_par_iter()
        .for_each(|c| body(c * chunk..((c + 1) * chunk).min(items)));
}

/// Split the indices whose bits at `fixed` (ascending, none of them qubit 0)
/// are clear into contiguous runs and hand them out as `body(runs, run)`:
/// run `i` of `runs` covers `run` indices from the base numbered `i * run`
/// (see [`run_bases`]); `run` is a power of two, at least 2 and at most
/// [`PIECE`], and never carries into a fixed bit.
fn for_each_run(
    len: usize,
    fixed: &[Qubit],
    parallel: bool,
    body: impl Fn(Range<usize>, usize) + Sync,
) {
    let run = fixed.first().map_or(len, |&q| 1usize << q).min(PIECE);
    let runs = (len >> fixed.len()) / run;
    for_each_range(runs, parallel, |range| body(range, run));
}

/// Number the indices whose bits at `fixed` (ascending) are clear in
/// ascending order; yield `count` of them, starting with number `first` and
/// taking every `step`-th (a power of two). The bases are a counter over the
/// free bits: setting the fixed bits before adding lets the carry ripple
/// across them, clearing them after restores the base.
#[inline(always)]
fn run_bases(
    first: usize,
    count: usize,
    step: usize,
    fixed: &[Qubit],
) -> impl Iterator<Item = usize> {
    let fixed_mask = fixed.iter().fold(0usize, |mask, &q| mask | 1 << q);
    let step = spread_sorted(step, fixed);
    std::iter::successors(Some(spread_sorted(first, fixed)), move |&base| {
        Some(((base | fixed_mask).wrapping_add(step)) & !fixed_mask)
    })
    .take(count)
}

/// A `Sync` wrapper around the amplitude buffer for kernels whose write sets
/// are disjoint per work item but not expressible as slice chunks.
#[derive(Clone, Copy)]
pub(crate) struct SharedAmps(*mut Complex64);

// SAFETY: the wrapper only carries the pointer across threads; every kernel
// that dereferences it documents why its work items are disjoint.
unsafe impl Sync for SharedAmps {}
unsafe impl Send for SharedAmps {}

impl SharedAmps {
    pub(crate) fn new(slice: &mut [Complex64]) -> Self {
        Self(slice.as_mut_ptr())
    }

    /// Raw base pointer. Going through a method (rather than the field) keeps
    /// closures capturing the whole `Sync` wrapper, not the bare pointer.
    #[inline(always)]
    pub(crate) fn as_ptr(&self) -> *mut Complex64 {
        self.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hisvsim_circuit::{generators, Circuit};

    const SEQ: ApplyOptions = ApplyOptions {
        parallel: false,
        parallel_threshold: usize::MAX,
        dispatch: KernelDispatch::Auto,
    };
    const PAR: ApplyOptions = ApplyOptions {
        parallel: true,
        parallel_threshold: 1,
        dispatch: KernelDispatch::Auto,
    };

    /// Reference: apply a gate through the dense embedded-unitary definition.
    fn apply_gate_reference(state: &StateVector, gate: &Gate) -> StateVector {
        let n = state.num_qubits();
        let dim = 1usize << n;
        let g = gate.matrix();
        let mut out = vec![Complex64::ZERO; dim];
        for col in 0..dim {
            let amp_in = state.amp(col);
            if amp_in == Complex64::ZERO {
                continue;
            }
            let mut sub_col = 0usize;
            for (j, &q) in gate.qubits.iter().enumerate() {
                sub_col |= ((col >> q) & 1) << j;
            }
            for sub_row in 0..g.dim() {
                let m = g.get(sub_row, sub_col);
                if m == Complex64::ZERO {
                    continue;
                }
                let mut row = col;
                for (j, &q) in gate.qubits.iter().enumerate() {
                    let bit = (sub_row >> j) & 1;
                    row = (row & !(1 << q)) | (bit << q);
                }
                out[row] += m * amp_in;
            }
        }
        StateVector::from_amplitudes(out)
    }

    /// A normalised state with no zero amplitude, so no kernel gets away
    /// with skipping work.
    pub(crate) fn random_state(n: usize, seed: u64) -> StateVector {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut amps: Vec<Complex64> = (0..1 << n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        StateVector::from_amplitudes(amps)
    }

    fn check_gate_against_reference(gate: Gate, n: usize) {
        let init = random_state(
            n,
            0xFEED + n as u64 + gate.qubits.iter().sum::<usize>() as u64,
        );
        let expected = apply_gate_reference(&init, &gate);
        for opts in [SEQ, PAR] {
            let mut got = init.clone();
            apply_gate_with(&mut got, &gate, &opts);
            assert!(
                got.approx_eq(&expected, 1e-10),
                "kernel mismatch for {} on {:?} (parallel={})",
                gate.kind.name(),
                gate.qubits,
                opts.parallel
            );
            // Forced-scalar dispatch must agree with Auto bit-for-bit: the
            // SIMD kernels replay the scalar IEEE op sequence exactly.
            let mut scalar = init.clone();
            apply_gate_with(
                &mut scalar,
                &gate,
                &opts.with_dispatch(KernelDispatch::Scalar),
            );
            for i in 0..scalar.len() {
                let (s, g) = (scalar.amp(i), got.amp(i));
                assert!(
                    s.re.to_bits() == g.re.to_bits() && s.im.to_bits() == g.im.to_bits(),
                    "dispatch divergence for {} on {:?} at amp {i}: scalar {s:?} vs auto {g:?}",
                    gate.kind.name(),
                    gate.qubits
                );
            }
        }
    }

    #[test]
    fn hadamard_on_zero_state_gives_uniform_superposition() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let sv = run_circuit(&c);
        let expect = 1.0 / (8f64).sqrt();
        for i in 0..8 {
            assert!((sv.amp(i).re - expect).abs() < 1e-12);
            assert!(sv.amp(i).im.abs() < 1e-12);
        }
    }

    #[test]
    fn bell_state_amplitudes() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = run_circuit(&c);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sv.amp(0).re - r).abs() < 1e-12);
        assert!((sv.amp(3).re - r).abs() < 1e-12);
        assert!(sv.amp(1).norm() < 1e-12);
        assert!(sv.amp(2).norm() < 1e-12);
    }

    #[test]
    fn every_gate_kind_matches_reference_on_random_state() {
        use GateKind::*;
        let single = [
            H,
            X,
            Y,
            Z,
            S,
            T,
            Sx,
            Rx(0.3),
            Ry(0.7),
            Rz(-1.1),
            P(0.4),
            U3(0.2, 0.5, 0.9),
        ];
        for kind in single {
            for q in [0usize, 2, 4] {
                check_gate_against_reference(Gate::new(kind, vec![q]), 5);
            }
        }
        let double = [
            Cx,
            Cy,
            Cz,
            Ch,
            Cp(0.8),
            Crz(1.3),
            Crx(0.6),
            Swap,
            Rzz(0.9),
            Rxx(0.5),
        ];
        for kind in double {
            for (a, b) in [(0usize, 1usize), (1, 4), (4, 2), (3, 0)] {
                check_gate_against_reference(Gate::new(kind, vec![a, b]), 5);
            }
        }
        for (c0, c1, t) in [(0usize, 1usize, 2usize), (4, 2, 0), (1, 3, 4)] {
            check_gate_against_reference(Gate::new(Ccx, vec![c0, c1, t]), 5);
            check_gate_against_reference(Gate::new(Cswap, vec![c0, c1, t]), 5);
        }
    }

    // -- kernel conformance: every kernel × operand-placement class --------

    /// `out = M × gathered vector` per index group, restricted to
    /// `control = 1` when given — the definition the kernels implement.
    fn dense_reference(
        amps: &[Complex64],
        qubits: &[Qubit],
        control: Option<Qubit>,
        m: &UnitaryMatrix,
    ) -> Vec<Complex64> {
        let dim = m.dim();
        let mut out = amps.to_vec();
        for (i, slot) in out.iter_mut().enumerate() {
            if control.is_some_and(|c| (i >> c) & 1 == 0) {
                continue;
            }
            let row = (0..qubits.len()).fold(0, |row, j| row | ((i >> qubits[j]) & 1) << j);
            let base = qubits.iter().fold(i, |base, &q| base & !(1 << q));
            *slot = Complex64::ZERO;
            for col in 0..dim {
                let from =
                    (0..qubits.len()).fold(base, |from, j| from | ((col >> j) & 1) << qubits[j]);
                *slot += m.get(row, col) * amps[from];
            }
        }
        out
    }

    /// Dense (no zero), half-sparse (zeros scattered) and permutation
    /// matrices of one dimension; none needs to be unitary for a kernel test.
    fn test_matrices(dim: usize, seed: u64) -> Vec<(&'static str, UnitaryMatrix)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entry = || Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let dense: Vec<Complex64> = (0..dim * dim).map(|_| entry()).collect();
        let sparse = dense
            .iter()
            .enumerate()
            .map(|(i, &v)| match (i * 7 + i / dim) % 2 {
                0 => v,
                _ => Complex64::ZERO,
            })
            .collect();
        let mut permutation = vec![Complex64::ZERO; dim * dim];
        for row in 0..dim {
            permutation[row * dim + (row * 5 + 3) % dim] = Complex64::ONE;
        }
        vec![
            ("dense", UnitaryMatrix::from_rows(dense)),
            ("half-sparse", UnitaryMatrix::from_rows(sparse)),
            ("permutation", UnitaryMatrix::from_rows(permutation)),
        ]
    }

    /// Operand placements of a `k`-qubit gate on `n` qubits, one per class
    /// the kernels branch on: qubit 0 involved (as the first and as the last
    /// operand), lowest operand 1, adjacent, top qubit, unsorted.
    fn placements(k: usize, n: usize) -> Vec<Vec<Qubit>> {
        let mut all: Vec<Vec<Qubit>> = vec![
            (0..k).collect(),
            (0..k).rev().collect(),
            (n - k..n).collect(),
            (n - k..n).rev().collect(),
        ];
        if n > k {
            all.push((1..=k).collect());
            let spread: Vec<Qubit> = (0..k).map(|j| (j * (n - 1)) / k.max(2)).collect();
            if spread.windows(2).all(|w| w[0] < w[1]) {
                let mut rotated = spread.clone();
                rotated.rotate_left(1);
                all.push(spread);
                all.push(rotated);
            }
        }
        if n > k + 1 {
            all.push((0..k).map(|j| if j == 0 { 0 } else { j + 1 }).collect());
            all.push(
                (0..k)
                    .map(|j| if j + 1 == k { n - 1 } else { j + 1 })
                    .collect(),
            );
        }
        all.sort();
        all.dedup();
        all
    }

    pub(crate) fn assert_bitwise(a: &StateVector, b: &StateVector, what: &str) {
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: amplitude {i} differs, {x:?} vs {y:?}"
            );
        }
    }

    /// Run `apply` under {sequential, parallel} × {auto, scalar}: every
    /// variant must equal the first bit for bit, and the first must match
    /// `expected` to 1e-12.
    fn check_variants(
        init: &StateVector,
        expected: &[Complex64],
        what: &str,
        apply: impl Fn(&mut StateVector, &ApplyOptions),
    ) {
        let mut first: Option<StateVector> = None;
        for opts in [SEQ, PAR] {
            for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                let mut got = init.clone();
                apply(&mut got, &opts.with_dispatch(dispatch));
                match &first {
                    None => {
                        let reference = StateVector::from_amplitudes(expected.to_vec());
                        assert!(
                            got.approx_eq(&reference, 1e-12),
                            "{what}: max diff {}",
                            got.max_abs_diff(&reference)
                        );
                        first = Some(got);
                    }
                    Some(first) => assert_bitwise(
                        first,
                        &got,
                        &format!("{what} (parallel={}, {dispatch})", opts.parallel),
                    ),
                }
            }
        }
    }

    #[test]
    fn dense_family_conforms_for_every_width_matrix_and_placement() {
        for k in 1..=MAX_STACK_KERNEL_QUBITS {
            // One group, two groups (one work item), and many.
            for n in [k, k + 1, k + 2, 9] {
                let init = random_state(n, 0xC0F + (k * 31 + n) as u64);
                for (kind, matrix) in test_matrices(1 << k, (k * 100 + n) as u64) {
                    for qubits in placements(k, n) {
                        let what = format!("{kind} k={k} on {qubits:?} of {n} qubits");
                        let expected = dense_reference(init.amplitudes(), &qubits, None, &matrix);
                        check_variants(&init, &expected, &what, |state, opts| {
                            apply_k_qubit(state, &qubits, &matrix, opts)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn heap_fallback_conforms_above_the_stack_width() {
        let k = MAX_STACK_KERNEL_QUBITS + 1;
        for n in [k, k + 2] {
            let init = random_state(n, 0x4EA9 + n as u64);
            for (kind, matrix) in test_matrices(1 << k, n as u64) {
                let qubits: Vec<Qubit> = (0..k).map(|j| (j * 5 + 1) % n).collect();
                let mut distinct = qubits.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let qubits = if distinct.len() == k {
                    qubits
                } else {
                    (0..k).rev().collect()
                };
                let expected = dense_reference(init.amplitudes(), &qubits, None, &matrix);
                check_variants(&init, &expected, &format!("{kind} k={k} n={n}"), |s, o| {
                    apply_k_qubit(s, &qubits, &matrix, o)
                });
            }
        }
    }

    #[test]
    fn one_and_two_qubit_entry_points_conform_at_every_placement() {
        for n in [1usize, 2, 3, 8] {
            let init = random_state(n, 0x51 + n as u64);
            for (kind, matrix) in test_matrices(2, n as u64) {
                let m: [Complex64; 4] = matrix.as_slice().try_into().unwrap();
                for q in 0..n {
                    let expected = dense_reference(init.amplitudes(), &[q], None, &matrix);
                    check_variants(
                        &init,
                        &expected,
                        &format!("{kind} single q={q} n={n}"),
                        |s, o| apply_single(s, q, &m, o),
                    );
                    // Control above and below the target, and on qubit 0.
                    for c in (0..n).filter(|&c| c != q) {
                        let expected = dense_reference(init.amplitudes(), &[q], Some(c), &matrix);
                        check_variants(
                            &init,
                            &expected,
                            &format!("{kind} controlled c={c} t={q} n={n}"),
                            |s, o| apply_controlled_single(s, c, q, &m, o),
                        );
                    }
                }
            }
            for (kind, matrix) in test_matrices(4, 40 + n as u64) {
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let expected = dense_reference(init.amplitudes(), &[a, b], None, &matrix);
                        check_variants(
                            &init,
                            &expected,
                            &format!("{kind} two ({a},{b}) n={n}"),
                            |s, o| apply_two_qubit_dense(s, a, b, &matrix, o),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn permutation_and_phase_gates_conform_at_every_placement() {
        use GateKind::*;
        // Every ordered operand tuple of small registers: qubit 0 as any
        // operand, control above/below target, adjacent and top qubits, and
        // the single-group sizes (n = arity).
        for n in [1usize, 2, 3, 4, 6] {
            let init = random_state(n, 0x9E + n as u64);
            let mut gates = Vec::new();
            for a in 0..n {
                for kind in [X, Z, S, T, Rz(-1.1), P(0.4)] {
                    gates.push(Gate::new(kind, vec![a]));
                }
                for b in (0..n).filter(|&b| b != a) {
                    for kind in [Cx, Cz, Swap, Cp(0.8), Crz(1.3), Rzz(0.9)] {
                        gates.push(Gate::new(kind, vec![a, b]));
                    }
                    for c in (0..n).filter(|&c| c != a && c != b) {
                        gates.push(Gate::new(Ccx, vec![a, b, c]));
                        gates.push(Gate::new(Cswap, vec![a, b, c]));
                    }
                }
            }
            for gate in gates {
                let what = format!("{} on {:?} of {n} qubits", gate.kind.name(), gate.qubits);
                let expected =
                    dense_reference(init.amplitudes(), &gate.qubits, None, &gate.matrix());
                check_variants(&init, &expected, &what, |s, o| apply_gate_with(s, &gate, o));
            }
        }
    }

    #[test]
    fn run_kernels_split_long_runs_across_pieces() {
        // Gates on high qubits of a state longer than one PIECE per run, so
        // the piece split and the parallel ranges are both exercised.
        use GateKind::*;
        let n = 15;
        let init = random_state(n, 0x915CE);
        for gate in [
            Gate::new(X, vec![14]),
            Gate::new(Cx, vec![13, 14]),
            Gate::new(Cx, vec![14, 0]),
            Gate::new(Swap, vec![13, 14]),
            Gate::new(Ccx, vec![14, 0, 13]),
            Gate::new(T, vec![14]),
            Gate::new(Cp(0.3), vec![14, 13]),
            Gate::new(Rzz(0.3), vec![0, 14]),
            Gate::new(H, vec![14]),
            Gate::new(Ch, vec![14, 13]),
        ] {
            let what = format!("{} on {:?}", gate.kind.name(), gate.qubits);
            let expected = dense_reference(init.amplitudes(), &gate.qubits, None, &gate.matrix());
            check_variants(&init, &expected, &what, |s, o| apply_gate_with(s, &gate, o));
        }
    }

    #[test]
    fn top_qubit_gate_uses_split_parallel_path() {
        // Gate on the highest qubit exercises the single-block branch.
        let gate = Gate::new(GateKind::H, vec![7]);
        check_gate_against_reference(gate, 8);
    }

    #[test]
    fn scalar_and_auto_dispatch_agree_bitwise_on_whole_circuits() {
        for name in ["qft", "grover", "adder", "qaoa"] {
            let c = generators::by_name(name, 9);
            let auto = run_circuit_with(&c, &SEQ);
            let scalar = run_circuit_with(&c, &SEQ.with_dispatch(KernelDispatch::Scalar));
            assert_eq!(
                auto, scalar,
                "{name}: auto and forced-scalar dispatch diverged"
            );
            let auto_par = run_circuit_with(&c, &PAR);
            let scalar_par = run_circuit_with(&c, &PAR.with_dispatch(KernelDispatch::Scalar));
            assert_eq!(
                auto_par, scalar_par,
                "{name}: parallel auto and forced-scalar dispatch diverged"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree_on_whole_circuits() {
        for name in ["qft", "grover", "adder", "qaoa"] {
            let c = generators::by_name(name, 8);
            let seq = run_circuit_with(&c, &SEQ);
            let par = run_circuit_with(&c, &PAR);
            assert!(
                seq.approx_eq(&par, 1e-9),
                "{name}: parallel and sequential runs disagree"
            );
        }
    }

    #[test]
    fn circuit_followed_by_inverse_is_identity() {
        let c = generators::random_circuit(6, 60, 11);
        let mut sv = run_circuit(&c);
        apply_circuit(&mut sv, &c.inverse());
        let zero = StateVector::zero_state(6);
        assert!(sv.approx_eq(&zero, 1e-9));
    }

    #[test]
    fn unitarity_preserves_norm() {
        let c = generators::by_name("qpe", 9);
        let sv = run_circuit(&c);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        assert!(sv.is_finite());
    }

    #[test]
    fn spread_sorted_produces_disjoint_groups() {
        let fixed = [1usize, 3];
        let mut seen = std::collections::HashSet::new();
        for g in 0..16 {
            let base = spread_sorted(g, &fixed);
            assert_eq!(base & (1 << 1), 0);
            assert_eq!(base & (1 << 3), 0);
            assert!(seen.insert(base), "duplicate base {base}");
        }
    }

    #[test]
    #[should_panic(expected = "gate touches qubit")]
    fn gate_outside_register_panics() {
        let mut sv = StateVector::zero_state(2);
        apply_gate(&mut sv, &Gate::new(GateKind::H, vec![5]));
    }
}
