//! Tiling and pass segmentation: the tile shapes a run of ops fits, the
//! passes a [`FusedCircuit`] makes over a state, and the cache-blocked walk
//! that sweeps each pass tile by tile.

use super::circuit::{FusedCircuit, FusedOp};
use super::diagonal::{
    is_one_within, prepare_diagonal, run_prepared_diagonal_amps, PreparedDiagonal,
};
use crate::kernels::{
    apply_dense_amps, apply_kind_amps, deposit, for_each_range, ApplyOptions, DenseMasks,
    SharedAmps, MAX_STACK_KERNEL_QUBITS,
};
use crate::state::StateVector;
use hisvsim_circuit::{Complex64, GateKind, Qubit, UnitaryMatrix};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Tile size of the cache-blocked sweep order: 2^16 amplitudes = 1 MiB of
/// `Complex64`, sized so a run's working set stays L2-resident (2 MiB L2 on
/// the reference Xeon) while keeping two more qubits inside a tile than a
/// 256 KiB tile would.
pub(super) const TILE_BITS: usize = 16;
/// One tile of the cache-blocked sweep, in amplitudes: a state no larger
/// than this is swept op by op and stays L2-resident between the sweeps.
pub const TILE: usize = 1 << TILE_BITS;
/// Fewest index bits of one chunk of a strided tile: 2^10 amplitudes
/// (16 KiB), so a tile holds at most `TILE_BITS - MIN_CHUNK_BITS` = 6
/// mixing qubits at or above its chunks.
pub(super) const MIN_CHUNK_BITS: usize = 10;

impl FusedCircuit {
    /// The passes the circuit makes over a state of `state_qubits` qubits
    /// under the optional translation, in order, as ranges of
    /// [`ops`](Self::ops): the one segmentation every application walks.
    ///
    /// A state of at most one [`TILE`] is swept op by op, one op per pass.
    /// A larger one is swept in cache-blocked order: a run of ops is one
    /// pass while the union of their *mixing* qubits (the translated
    /// operands of dense and solo ops; a diagonal run mixes none) fits one
    /// tile shape (`TileShape::of`), so each 2^16-amplitude tile streams
    /// through the whole run while L2-resident instead of the run streaming
    /// the whole state from memory once per op. The run is extended until
    /// the next op would leave no shape: a seventh mixing qubit at or above
    /// the smallest chunk, or one that narrows the chunk below the qubits
    /// already taken. A run of one op gains nothing and is a whole-state
    /// sweep of its own. A run sweeps only the tiles its [`Support`] leaves
    /// live ([`apply_pass`](Self::apply_pass)); the segmentation does not
    /// depend on it. With the recorder on, a state above one tile leaves
    /// exactly one `kernel` span per pass.
    pub fn passes<'a>(
        &'a self,
        state_qubits: usize,
        map: Option<&'a [Qubit]>,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        let tiles = 1usize << state_qubits > TILE;
        let mut start = 0usize;
        std::iter::from_fn(move || {
            let rest = self.ops().get(start..).filter(|rest| !rest.is_empty())?;
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

    /// The state positions the ops of `pass` mix under the optional
    /// translation, as a mask: the only index bits the pass can set in a
    /// nonzero amplitude where every nonzero amplitude before it had them
    /// clear (a diagonal run mixes none). What a schedule folds into each
    /// later pass's [`Support`].
    pub fn mixing(&self, pass: Range<usize>, map: Option<&[Qubit]>) -> u64 {
        (self.ops()[pass].iter()).fold(0, |mixing, op| mixing | op_mixing(op, map))
    }

    /// Apply one pass of [`passes`](Self::passes) for this state's width
    /// and the same translation to a state whose nonzero amplitudes lie in
    /// `support` ([`Support::ANY`] when nothing is known): a single op is
    /// one whole-state sweep, a longer range one cache-blocked run over the
    /// tiles that can hold a nonzero amplitude, and a state that is all
    /// zero is not swept at all. Inside a live tile the run narrows the
    /// support op by op: a dense op, a phase gate or a diagonal run visits
    /// only the amplitudes that can be nonzero, and a diagonal run that multiplies
    /// only ones there is left out. A tile, group or state left out is
    /// exactly zero and a pass keeps it so; every nonzero amplitude comes
    /// out bit-identical either way, and a zero equal (a full sweep's
    /// arithmetic can turn a +0.0 into -0.0).
    /// [`swept_amplitudes`](Self::swept_amplitudes) counts what it sweeps:
    /// a live tile is streamed once however few of its groups an op visits.
    ///
    /// With the recorder enabled the pass leaves a sampled `kernel` span,
    /// skipped or not, whose bytes are the amplitudes it swept, read and
    /// written (32 bytes each): full-size sweeps (≥ 2^16 amplitudes) are
    /// always recorded, and small sweeps 1-in-64, to keep the tracing
    /// overhead off the hot path.
    pub fn apply_pass(
        &self,
        state: &mut StateVector,
        pass: Range<usize>,
        map: Option<&[Qubit]>,
        support: Support,
        opts: &ApplyOptions,
    ) {
        if pass.len() == 1 {
            let op = &self.ops()[pass.start];
            let swept = self.swept_amplitudes(state.num_qubits(), pass, map, support);
            let _g = (hisvsim_obs::enabled() && sample_sweep(state.len())).then(|| {
                hisvsim_obs::span("kernel", op.span_name())
                    .detail(format!("{} gates, {} amps", op.fused_count(), state.len()))
                    .bytes(swept as u64 * 32)
            });
            if swept > 0 {
                op.apply_inner(state, map, opts);
            }
            return;
        }
        assert!(
            state.len() > TILE,
            "a tiled pass needs a state above one tile"
        );
        let shape = TileShape::of(self.mixing(pass.clone(), map));
        let shape = shape.expect("the ops of a pass fit one tile");
        self.apply_tiled_run(state, pass, shape, map, support, opts);
    }

    /// The amplitudes [`apply_pass`](Self::apply_pass) sweeps for `pass` on
    /// a state of `state_qubits` qubits under `map` and `support`: none for
    /// a state that is all zero, the whole state for a single op (every op
    /// of a state of at most one tile), and one [`TILE`] per live tile of a
    /// cache-blocked run. What a schedule predicts a rank sweeps.
    pub fn swept_amplitudes(
        &self,
        state_qubits: usize,
        pass: Range<usize>,
        map: Option<&[Qubit]>,
        support: Support,
    ) -> usize {
        match (support, pass.len()) {
            (Support::Zero, _) => 0,
            (_, 1) => 1 << state_qubits,
            _ => {
                let shape = TileShape::of(self.mixing(pass, map));
                let shape = shape.expect("the ops of a pass fit one tile");
                shape.live_tiles(1 << state_qubits, support).1 * TILE
            }
        }
    }

    /// The ops of `run` a tiled pass applies to a state whose nonzero
    /// amplitudes set no position outside `live`, each with the positions
    /// it can find set in one: `live` and what every earlier op of the run
    /// mixed (the schedule's fold between passes, taken op by op). A
    /// diagonal run that is exactly one on every index those positions
    /// allow ([`is_one_within`]) changes no amplitude there, and is left
    /// out.
    pub(super) fn applied<'a>(
        &'a self,
        run: Range<usize>,
        map: Option<&'a [Qubit]>,
        mut live: u64,
    ) -> impl Iterator<Item = (&'a FusedOp, u64)> + 'a {
        self.ops()[run].iter().filter_map(move |op| {
            let seen = live;
            live |= op_mixing(op, map);
            match op {
                FusedOp::Diagonal { factors, .. } if is_one_within(factors, map, seen) => None,
                _ => Some((op, seen)),
            }
        })
    }

    /// Execute the ops of `run` tile by tile in `shape`, on the tiles
    /// `support` leaves live ([`TileShape::live_tiles`]). A tile is the
    /// 2^|high| chunks of 2^chunk_bits contiguous amplitudes that one
    /// assignment of the remaining bits selects. Dense and solo ops run on
    /// tile positions (a chunk's bits keep their place, the high qubits
    /// follow in order); a diagonal run is applied chunk by chunk at each
    /// chunk's absolute base, so its blocks classify exactly as in the
    /// whole-state sweep. A one-chunk tile is a contiguous range of the
    /// state and is swept where it lies; a strided one is copied into a
    /// worker's pooled tile buffer and back.
    ///
    /// The support folds op by op ([`applied`](Self::applied)): each op
    /// meets nonzero amplitudes only at the positions `support` allows and
    /// the earlier ops of the run mixed. What is decided from that, once
    /// per run and never per tile: a diagonal run that is exactly one on
    /// every such index is dropped, and every other op's tile positions
    /// outside them are dead, which the dense kernels fix to zero
    /// (`kernels::dense_sweep`) to visit only live groups, and a diagonal
    /// run kept and the phase kernels (`kernels::scale_by_table`) skip
    /// every amplitude that sets one. Permutation kernels (which move zeros
    /// onto zeros there) and the heap fallback sweep the whole tile.
    /// Per-run translation and classification happen once up front; the
    /// per-tile loop allocates nothing.
    fn apply_tiled_run(
        &self,
        state: &mut StateVector,
        run: Range<usize>,
        shape: TileShape,
        map: Option<&[Qubit]>,
        support: Support,
        opts: &ApplyOptions,
    ) {
        let len = state.len();
        let (chunk, chunks) = (1usize << shape.chunk_bits, shape.chunks());
        if chunks > 1 {
            STRIDED_PASSES.fetch_add(1, Ordering::Relaxed);
        }
        // Each live tile starts at `deposit(t, picks)`, `t < tiles`.
        let (picks, tiles) = shape.live_tiles(len, support);
        let live = match support {
            Support::Within(live) => live,
            Support::Zero => 0,
        };
        // Each worker claims the next tile until none is left, so a worker
        // the host slows down takes fewer tiles, and holds one buffer.
        let workers = match opts.go_parallel(len) {
            true => rayon::current_num_threads().min(tiles).max(1),
            false => 1,
        };
        // Each op with the tile positions that are zero in every nonzero
        // amplitude it meets; none when no tile is live.
        let items: Vec<(TileOp<'_>, usize)> = match tiles {
            0 => Vec::new(),
            _ => (self.applied(run.clone(), map, live))
                .map(|(op, seen)| {
                    let dead = !shape.within_tile(seen) & (TILE - 1);
                    (tile_op(op, map, Some(shape), state.num_qubits()), dead)
                })
                .collect(),
        };
        let _g = (hisvsim_obs::enabled() && sample_sweep(len)).then(|| {
            let gates: usize = self.ops()[run.clone()]
                .iter()
                .map(FusedOp::fused_count)
                .sum();
            hisvsim_obs::span("kernel", "sweep:tiled")
                .detail(format!(
                    "{} ops ({} applied), {} gates, {tiles} of {} tiles, {chunks} chunks of 2^{}, on {workers} threads",
                    run.len(),
                    items.len(),
                    gates,
                    len / TILE,
                    shape.chunk_bits
                ))
                // One streaming pass over the live tiles carries the run.
                .bytes((tiles * TILE) as u64 * 32)
        });
        if tiles == 0 {
            return;
        }
        // Within a tile the run is sequential; parallelism comes from the
        // disjoint tiles (nesting both would oversubscribe the pool).
        let tile_opts = ApplyOptions::sequential().with_dispatch(opts.dispatch);
        // Each chunk's base inside a tile.
        let mut offsets = [0usize; 1 << (TILE_BITS - MIN_CHUNK_BITS)];
        for (h, offset) in offsets[..chunks].iter_mut().enumerate() {
            *offset = deposit(h, shape.high);
        }
        let offsets = &offsets[..chunks];
        let sweep = |tile: &mut [Complex64], base: usize| {
            for (item, dead) in &items {
                match item {
                    // Chunk `h` sets the tile positions of `h << chunk_bits`;
                    // a chunk that sets a dead one is all zero.
                    TileOp::Diag(_) => {
                        let chunks = tile.chunks_exact_mut(chunk).zip(offsets).enumerate();
                        for (h, (amps, &offset)) in chunks {
                            if (h << shape.chunk_bits) & dead == 0 {
                                item.apply(amps, base + offset, dead & (chunk - 1), &tile_opts);
                            }
                        }
                    }
                    _ => item.apply(tile, base, *dead, &tile_opts),
                }
            }
        };
        let amps_ptr = SharedAmps::new(state.amplitudes_mut());
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

/// Where a cache-blocked pass's tiles lie: each is `2^|high|` chunks of
/// `2^chunk_bits` contiguous amplitudes, and its position bit
/// `chunk_bits + j` is the `j`-th qubit of `high`, ascending
/// (Häner & Steiger's cache blocking, without swapping the qubits in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct TileShape {
    /// Index bits of one chunk.
    pub(super) chunk_bits: usize,
    /// The mixing qubits at or above the chunk, as a mask.
    high: u64,
}

impl TileShape {
    /// The widest chunk whose tile holds every qubit of the mask `mixing`:
    /// `2^b` contiguous amplitudes, `MIN_CHUNK_BITS ≤ b ≤ TILE_BITS`, such
    /// that `b` plus the mixing qubits at or above `b` is at most
    /// `TILE_BITS`. None when no chunk is that wide.
    pub(super) fn of(mixing: u64) -> Option<Self> {
        (MIN_CHUNK_BITS..=TILE_BITS).rev().find_map(|chunk_bits| {
            let high = mixing >> chunk_bits << chunk_bits;
            let fits = chunk_bits + high.count_ones() as usize <= TILE_BITS;
            fits.then_some(Self { chunk_bits, high })
        })
    }

    /// Chunks per tile.
    pub(super) fn chunks(self) -> usize {
        1 << self.high.count_ones()
    }

    /// The index bits that pick one of this shape's tiles in a state of
    /// `len` amplitudes and can be set in a nonzero amplitude under
    /// `support`, and how many tiles they pick: every tile when nothing is
    /// known, none when the state is zero. Live tile `t` starts at
    /// `deposit(t, picks)`, `t < tiles`; every other tile is exactly zero.
    pub(super) fn live_tiles(self, len: usize, support: Support) -> (u64, usize) {
        let picks = (len as u64 - 1) & !((1u64 << self.chunk_bits) - 1) & !self.high;
        match support {
            Support::Zero => (0, 0),
            Support::Within(live) => (picks & live, 1 << (picks & live).count_ones()),
        }
    }

    /// The tile positions of the state positions in `mask`: those below the
    /// chunk stay where they are, those in `high` follow in order, and the
    /// ones that pick a tile have no tile position.
    pub(super) fn within_tile(self, mask: u64) -> usize {
        let inside = mask & (self.high | ((1 << self.chunk_bits) - 1));
        (0..u64::BITS as usize)
            .filter(|&q| inside >> q & 1 == 1)
            .fold(0, |tile, q| tile | 1 << self.position(q))
    }

    /// The tile position of state qubit `q`, one below the chunk bits or
    /// in `high`.
    pub(super) fn position(self, q: Qubit) -> Qubit {
        match q < self.chunk_bits {
            true => q,
            false => self.chunk_bits + (self.high & ((1u64 << q) - 1)).count_ones() as usize,
        }
    }
}

/// Which amplitudes of a state can be nonzero, as far as the caller knows:
/// what lets [`FusedCircuit::apply_pass`] skip the tiles of a cache-blocked
/// run that are exactly zero, and, inside a live tile, the groups of each
/// dense op, the zeros of each phase gate and diagonal run, and the diagonal
/// runs that only multiply ones (the mask widens op by op with what the run
/// mixes). A schedule that starts from `|0…0⟩` knows it exactly: a bit no earlier pass mixed is clear in every nonzero
/// amplitude. A pass of one op, every pass of a state of at most one
/// [`TILE`], ignores it but for [`Support::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Every amplitude is zero: a pass sweeps nothing.
    Zero,
    /// Only amplitudes whose index sets no bit outside the mask (of state
    /// positions) can be nonzero.
    Within(u64),
}

impl Support {
    /// Any amplitude can be nonzero: a pass sweeps the whole state.
    pub const ANY: Self = Self::Within(u64::MAX);
}

/// The mixing qubits of an op (its translated operands; a diagonal run
/// only scales amplitudes where they lie) as a mask.
pub(super) fn op_mixing(op: &FusedOp, map: Option<&[Qubit]>) -> u64 {
    let qubits: &[Qubit] = match op {
        FusedOp::Dense(g) => &g.qubits,
        FusedOp::Solo(gate, _) => &gate.qubits,
        FusedOp::Diagonal { .. } => &[],
    };
    (qubits.iter()).fold(0, |mask, &q| mask | 1u64 << map.map_or(q, |m| m[q]))
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
    /// Apply this op to the whole state with an optional qubit translation
    /// (`map[q]` = target qubit). The distributed engines use the map to aim
    /// one shared fused circuit at each rank's layout without re-fusing; a
    /// dense op's zero masks are matrix-shaped, so translation-invariant.
    pub(super) fn apply_inner(
        &self,
        state: &mut StateVector,
        map: Option<&[Qubit]>,
        opts: &ApplyOptions,
    ) {
        let item = tile_op(self, map, None, state.num_qubits());
        item.apply(state.amplitudes_mut(), 0, 0, opts);
    }
}

/// One op aimed at a concrete state layout: operands translated, a diagonal
/// run classified, so applying it (to the whole state, or to every tile of a
/// tiled run) does no allocation or qubit translation.
enum TileOp<'a> {
    Dense {
        qubits: Operands,
        matrix: &'a UnitaryMatrix,
        masks: &'a DenseMasks,
    },
    Solo {
        kind: &'a GateKind,
        qubits: Operands,
        matrix: Option<&'a UnitaryMatrix>,
    },
    Diag(PreparedDiagonal),
}

/// Resolve one fused op for execution on a state of `state_qubits` qubits
/// under the optional translation, on the whole state or on the tiles of
/// `shape`. Whole-state and tiled sweeps both go through this, which is why
/// they agree bitwise. A diagonal run's block classification depends on the
/// translated positions, so it is derived here, once per application of the
/// op (once per pass it runs in), and shared by every tile.
fn tile_op<'a>(
    op: &'a FusedOp,
    map: Option<&[Qubit]>,
    shape: Option<TileShape>,
    state_qubits: usize,
) -> TileOp<'a> {
    match op {
        FusedOp::Dense(g) => TileOp::Dense {
            qubits: Operands::translate(&g.qubits, map, shape),
            matrix: &g.matrix,
            masks: &g.masks,
        },
        FusedOp::Solo(gate, matrix) => TileOp::Solo {
            kind: &gate.kind,
            qubits: Operands::translate(&gate.qubits, map, shape),
            matrix: matrix.as_ref(),
        },
        FusedOp::Diagonal { factors, .. } => {
            TileOp::Diag(prepare_diagonal(factors, map, state_qubits))
        }
    }
}

impl TileOp<'_> {
    /// Apply this op to `amps`: the whole state (`base` 0), a tile, or —
    /// for a diagonal run — one contiguous chunk starting at absolute
    /// amplitude index `base`. Dense and solo operands are already aimed at
    /// `amps`' positions; a diagonal run classifies its factors against the
    /// same absolute block bases as the whole-state sweep. `dead` names
    /// positions of `amps` clear in every nonzero amplitude (0 when none
    /// are known), which the dense and phase kernels and a diagonal run
    /// skip.
    fn apply(&self, amps: &mut [Complex64], base: usize, dead: usize, opts: &ApplyOptions) {
        match self {
            TileOp::Dense {
                qubits,
                matrix,
                masks,
            } => apply_dense_amps(amps, qubits.as_slice(), matrix, masks, dead, opts),
            TileOp::Solo {
                kind,
                qubits,
                matrix,
            } => apply_kind_amps(amps, kind, qubits.as_slice(), *matrix, dead, opts),
            TileOp::Diag(prepared) => run_prepared_diagonal_amps(amps, base, prepared, dead, opts),
        }
    }
}
