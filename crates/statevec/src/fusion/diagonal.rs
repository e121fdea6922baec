//! The blocked streaming sweep of a diagonal run: its factors classified
//! against the positions the run lands on, then one pass over the amplitudes
//! per at most [`MAX_STREAMS`] per-amplitude tables.

use super::circuit::DiagonalFactor;
use crate::kernels::{
    for_each_range, live_pairs, ApplyOptions, SharedAmps, MAX_STACK_KERNEL_QUBITS,
};
use crate::simd::{lanes_dispatch, Lanes};
use hisvsim_circuit::{Complex64, Qubit};

/// Largest block of the diagonal streaming pass, in index bits: factors whose
/// qubits all sit at or above the block are constant across it and cost one
/// table lookup per block instead of one per amplitude. States smaller than
/// this are one block.
pub(super) const DIAG_BLOCK_BITS: usize = 8;
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

/// Steps of two amplitudes in one diagonal block.
const BLOCK_STEPS: usize = 1 << (DIAG_BLOCK_BITS - 1);

/// One factor of a run, classified against the block and laid out in the
/// run's tables from `at` on: one sub-table of `width` entries per
/// assignment of the high qubits, the one of block base `base` from
/// `at + hi.sub(base)`.
///
/// A factor whose qubits all sit at or above the block is a *constant*: its
/// sub-tables are one entry wide, one value per block. Any other factor is
/// a *stream*, laid out so each two-amplitude step is one contiguous load:
/// for step `v` (amplitudes `2v, 2v + 1`) the two phases are entry
/// `lane0[v]` of the sub-table and the entry after it. The low qubits index
/// the sub-table in ascending order with qubit 0 — or a duplicated dummy
/// bit when the factor does not depend on it — as bit 0, which is what makes
/// the pair adjacent.
struct Factor {
    at: usize,
    hi: HiBits,
    /// A stream's first `block / 2` entries are the block's steps.
    lane0: [u8; BLOCK_STEPS],
    /// Entries per sub-table: 1 for a constant, at least 2 for a stream.
    width: usize,
    /// Bit `i` set: every entry of sub-table `i` (of at most 2^5) is
    /// exactly one, so the block skips it.
    identity: u32,
}

/// Widest sub-table the block phase is folded into (see
/// [`run_prepared_diagonal_amps`]): the stream of any factor the fusion
/// builders emit (at most [`MAX_STACK_KERNEL_QUBITS`] qubits) fits.
const MAX_FOLD_WIDTH: usize = 2 << MAX_STACK_KERNEL_QUBITS;

/// A diagonal run classified for the block sweep at the positions it lands
/// on: derived where the run is swept, once per application, and shared by
/// every tile of it. Two allocations, whatever the run's length.
pub(super) struct PreparedDiagonal {
    block_bits: usize,
    /// Every factor's sub-tables, end to end.
    tables: Vec<Complex64>,
    /// The constants, in run order, then the streams, narrowest first (the
    /// block phase folds into the first active stream).
    factors: Vec<Factor>,
    constants: usize,
}

impl PreparedDiagonal {
    /// Sweeps the run makes: each multiplies in at most [`MAX_STREAMS`]
    /// streams, the first one the constants too.
    pub(super) fn passes(&self) -> usize {
        (self.factors.len() - self.constants)
            .div_ceil(MAX_STREAMS)
            .max(1)
    }

    /// The constants and the streams of sweep `pass`.
    fn pass(&self, pass: usize) -> (&[Factor], &[Factor]) {
        let (constant, streams) = self.factors.split_at(self.constants);
        let first = (pass * MAX_STREAMS).min(streams.len());
        let streams = &streams[first..(first + MAX_STREAMS).min(streams.len())];
        (if pass == 0 { constant } else { &[] }, streams)
    }
}

/// Whether every factor of a diagonal run is exactly one on each of its
/// entries whose factor qubits, translated through `map`, all lie in the
/// mask `live`: then the run changes no nonzero amplitude of a state whose
/// nonzero amplitudes set no position outside `live`.
pub(super) fn is_one_within(factors: &[DiagonalFactor], map: Option<&[Qubit]>, live: u64) -> bool {
    factors.iter().all(|factor| {
        let live_bits = (factor.qubits.iter().enumerate())
            .filter(|&(_, &q)| live >> map.map_or(q, |m| m[q]) & 1 == 1)
            .fold(0usize, |bits, (b, _)| bits | 1 << b);
        (factor.diag.iter().enumerate())
            .all(|(sub, &entry)| sub & !live_bits != 0 || entry == Complex64::ONE)
    })
}

/// Classify a diagonal run's factors for the block sweep over states of
/// `state_qubits` qubits, translating qubits through `map` first when there
/// is one (the per-rank path). Factors entirely above the block become
/// per-block constants; every other factor becomes one stream.
pub(super) fn prepare_diagonal(
    factors: &[DiagonalFactor],
    map: Option<&[Qubit]>,
    state_qubits: usize,
) -> PreparedDiagonal {
    let block_bits = DIAG_BLOCK_BITS.min(state_qubits).max(1);
    let block = 1usize << block_bits;
    // A factor's tables are its entries, doubled by the dummy bit at most.
    let mut tables = Vec::with_capacity(factors.iter().map(|f| 2 * f.diag.len()).sum());
    let mut classified = Vec::with_capacity(factors.len());
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
        let at = tables.len();
        tables.extend(subs[..1 << index_bits].iter().map(|&sub| factor.diag[sub]));
        let table = &tables[at..];
        let mut hi = HiBits {
            bits: [(0, 0); MAX_STACK_KERNEL_QUBITS],
            len: high.len() as u8,
        };
        for (n, (slot, &(q, _))) in hi.bits.iter_mut().zip(high).enumerate() {
            let q = u8::try_from(q).expect("a state index has fewer than 256 bits");
            *slot = (q, position(low.len() + n) as u8);
        }
        // Stream index of the even amplitude of every step of a block: bit
        // `t` of the step is bit `t + 1` of the amplitude.
        let mut step_bit = [0u8; DIAG_BLOCK_BITS];
        for (n, &(q, _)) in low.iter().enumerate().filter(|(_, &(q, _))| q > 0) {
            step_bit[q - 1] = 1 << position(n);
        }
        let mut lane0 = [0u8; BLOCK_STEPS];
        if !low.is_empty() {
            for v in 1..block / 2 {
                lane0[v] = lane0[v & (v - 1)] | step_bit[v.trailing_zeros() as usize];
            }
        }
        let width = table.len() >> hi.len;
        let identity = (table.chunks_exact(width).enumerate())
            .filter(|(_, sub)| sub.iter().all(|&entry| entry == Complex64::ONE))
            .fold(0, |mask, (i, _)| mask | 1 << i);
        classified.push(Factor {
            at,
            hi,
            lane0,
            width,
            identity,
        });
    }
    // Stable: constants (width 1) first in run order, then the streams.
    classified.sort_by_key(|factor| factor.width);
    let constants = classified.partition_point(|factor| factor.width == 1);
    PreparedDiagonal {
        block_bits,
        tables,
        factors: classified,
        constants,
    }
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
/// [`TILE`](super::TILE)-aligned base, whole-state callers pass 0) must be
/// block-aligned, so every block's classification sees the same absolute
/// base as the untiled sweep and results stay bit-identical.
///
/// `dead` names the positions of `amps` the caller knows are clear in every
/// nonzero amplitude (0 when nothing is known): an amplitude that sets one
/// is zero and is left as it is, so a block whose base sets one is skipped
/// and a block's steps visit only the live pairs — a dead position 0 keeps
/// each pair's odd amplitude as it was.
pub(super) fn run_prepared_diagonal_amps(
    amps: &mut [Complex64],
    offset: usize,
    prepared: &PreparedDiagonal,
    dead: usize,
    opts: &ApplyOptions,
) {
    let len = amps.len();
    let block = 1usize << prepared.block_bits;
    assert!(
        len >= block && offset.is_multiple_of(block),
        "diagonal run prepared for a larger state"
    );
    let blocks = len >> prepared.block_bits;
    // The dead positions inside a block.
    let inside = dead & (block - 1);
    let simd = opts.use_simd();
    let tables = &prepared.tables;
    let amps_ptr = SharedAmps::new(amps);
    for pass in 0..prepared.passes() {
        let (constant, streams) = prepared.pass(pass);
        for_each_range(blocks, opts.go_parallel(len), |range| {
            let mut folded = [Complex64::ZERO; MAX_FOLD_WIDTH];
            for index in range {
                let rel = index << prepared.block_bits;
                if rel & dead != 0 {
                    continue;
                }
                let base = offset + rel;
                let mut block_phase = constant.iter().fold(Complex64::ONE, |phase, factor| {
                    phase * tables[factor.at + factor.hi.sub(base)]
                });
                let mut active =
                    [(std::ptr::null::<Complex64>(), std::ptr::null::<u8>()); MAX_STREAMS];
                let mut count = 0;
                for stream in streams {
                    let start = stream.hi.sub(base);
                    if stream.identity >> (start / stream.width) & 1 == 1 {
                        continue;
                    }
                    let sub = &tables[stream.at + start..stream.at + start + stream.width];
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
                // folded copy); `inside` lies below the block; `simd` comes
                // from the dispatch resolution.
                unsafe {
                    let amps = amps_ptr.slice_mut(rel, block);
                    let streams = &active[..count];
                    match inside {
                        0 => diag_block_on::<false>(simd, amps, block_phase, streams, 0),
                        _ => diag_block_on::<true>(simd, amps, block_phase, streams, inside),
                    }
                }
            }
        });
    }
}

/// A stream as one block sees it: its sub-table and its `lane0` indices.
type ActiveStream = (*const Complex64, *const u8);

lanes_dispatch! {
    /// Pick the lane instantiation of [`diag_block`].
    unsafe fn diag_block_on<const MASKED: bool>(
        amps: &mut [Complex64],
        block_phase: Option<Complex64>,
        streams: &[ActiveStream],
        dead: usize,
    ) => diag_block
}

/// One block of a diagonal pass, two amplitudes per step: the step's phase
/// is the block phase (when there is one) times each stream's entry pair, in
/// stream order, and multiplies the amplitudes last — the same
/// multiplication order under either instantiation. When `MASKED`, an
/// amplitude whose index sets a bit of `dead` is left as it is
/// ([`live_pairs`]).
///
/// # Safety
/// Each stream's `lane0` must hold `amps.len() / 2` indices `e` with `e` and
/// `e + 1` inside its sub-table, `dead` must lie below `amps.len()`, and
/// there must be a block phase or a stream; AVX2 must be available for that
/// instantiation.
#[inline(always)]
unsafe fn diag_block<L: Lanes, const MASKED: bool>(
    amps: &mut [Complex64],
    block_phase: Option<Complex64>,
    streams: &[ActiveStream],
    dead: usize,
) {
    let (first, rest) = match block_phase {
        Some(_) => (None, streams),
        None => (streams.first(), &streams[1..]),
    };
    let ptr = amps.as_mut_ptr();
    let pairs = amps.len() / 2;
    if !MASKED {
        for v in 0..pairs {
            diag_pair::<L>(ptr, v, block_phase, first, rest);
        }
        return;
    }
    for v in live_pairs(pairs, dead) {
        let odd = *ptr.add(2 * v + 1);
        diag_pair::<L>(ptr, v, block_phase, first, rest);
        if dead & 1 == 1 {
            *ptr.add(2 * v + 1) = odd;
        }
    }
}

/// Step `v` of [`diag_block`]: amplitudes `2v` and `2v + 1` times the
/// block phase, or `first`'s entry pair, then each stream of `rest`'s.
///
/// # Safety
/// As [`diag_block`]'s, for step `v`.
#[inline(always)]
unsafe fn diag_pair<L: Lanes>(
    ptr: *mut Complex64,
    v: usize,
    block_phase: Option<Complex64>,
    first: Option<&ActiveStream>,
    rest: &[ActiveStream],
) {
    let entry = |&(table, lane0): &ActiveStream| L::load(table.add(*lane0.add(v) as usize));
    let mut phase = match (block_phase, first) {
        (Some(phase), _) => L::splat(phase),
        (None, Some(stream)) => entry(stream),
        (None, None) => unreachable!("caller passes a block phase or a stream"),
    };
    for stream in rest {
        phase = phase.cmul(entry(stream));
    }
    L::load(ptr.add(2 * v)).cmul(phase).store(ptr.add(2 * v));
}
