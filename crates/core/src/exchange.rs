//! The part-switch exchange of [`DistState::redistribute`] planned as a
//! permutation of index bits.
//!
//! A layout change moves every qubit from an old bit position to a new one.
//! The amplitudes a rank sends to one peer are those whose bits at the
//! *evicted* local positions (the ones that become rank bits) spell that
//! peer's id; every other local bit is free, so the message is a sub-cube of
//! the old slice, read in ascending offset order. It lands in a sub-cube of
//! the receiver's new slice: the positions that were rank bits are fixed by
//! the sender's id, and message bit `i` goes to wherever the `i`-th kept
//! position moved. Both directions are therefore the same operation — copy a
//! dense message from or to the slice offsets a short list of bit positions
//! spans — done in contiguous runs where the low message bits are the low
//! slice bits, and through two small offset tables (one lookup per half of the
//! remaining bits) above that.
//!
//! The message a rank sends itself is skipped when it would land on the
//! offsets it is read from: when the kept positions do not move and this
//! rank's own amplitudes are selected by the same bits before and after.
//! Every swap a plan's schedule or [`DistState::ensure_local`] makes is such
//! a change, so a rank packs, sends and unpacks only the sub-cubes that
//! change rank.
//!
//! [`DistState::redistribute`]: crate::dist::DistState::redistribute
//! [`DistState::ensure_local`]: crate::dist::DistState::ensure_local

use hisvsim_circuit::Complex64;
use hisvsim_statevec::buffers;

/// A leading run of in-place bits shorter than this is walked through the
/// tables instead: a `memcpy` call per few amplitudes costs more than it
/// saves.
const MIN_RUN_BITS: usize = 4;

/// Spread the low bits of `value` over `positions`: bit `i` of `value` lands
/// at bit `positions[i]` of the result.
fn deposit(value: usize, positions: &[usize]) -> usize {
    positions
        .iter()
        .enumerate()
        .fold(0, |at, (i, &pos)| at | ((value >> i) & 1) << pos)
}

/// Where a dense message of `2^m` amplitudes sits inside a slice: message bit
/// `i` is slice bit `positions[i]`, the slice bits outside `positions` are
/// given per copy as a base offset.
#[derive(Debug)]
struct SubcubeMap {
    /// Message bits `0..run_bits` are slice bits `0..run_bits`, so `2^run_bits`
    /// consecutive message amplitudes are consecutive in the slice.
    run_bits: usize,
    /// Slice offset of every value of the lower half of the message bits above
    /// the run.
    lo: Vec<usize>,
    /// The same for the upper half.
    hi: Vec<usize>,
}

impl SubcubeMap {
    fn new(positions: &[usize]) -> Self {
        let in_place = positions
            .iter()
            .enumerate()
            .take_while(|&(i, &pos)| i == pos)
            .count();
        let run_bits = if in_place < MIN_RUN_BITS { 0 } else { in_place };
        let (lo, hi) = positions[run_bits..].split_at((positions.len() - run_bits).div_ceil(2));
        let table = |bits: &[usize]| {
            (0..1usize << bits.len())
                .map(|v| deposit(v, bits))
                .collect()
        };
        Self {
            run_bits,
            lo: table(lo),
            hi: table(hi),
        }
    }

    /// A message is `rows()` rows of `lo.len()` runs each, one row per value
    /// of the upper table.
    fn rows(&self) -> usize {
        self.hi.len()
    }

    /// Append row `row` of the message read from `slice` at `base` to
    /// `message`.
    fn gather_row(
        &self,
        slice: &[Complex64],
        base: usize,
        row: usize,
        message: &mut Vec<Complex64>,
    ) {
        let run = 1usize << self.run_bits;
        let at = base | self.hi[row];
        if run == 1 {
            message.extend(self.lo.iter().map(|&lo| slice[at | lo]));
        } else {
            for &lo in &self.lo {
                message.extend_from_slice(&slice[at | lo..][..run]);
            }
        }
    }

    /// Write row `row` of `message` into `slice` at `base`.
    fn scatter_row(&self, message: &[Complex64], slice: &mut [Complex64], base: usize, row: usize) {
        let run = 1usize << self.run_bits;
        let at = base | self.hi[row];
        let amps = &message[row * self.lo.len() * run..][..self.lo.len() * run];
        if run == 1 {
            for (&lo, &amp) in self.lo.iter().zip(amps) {
                slice[at | lo] = amp;
            }
        } else {
            for (&lo, amps) in self.lo.iter().zip(amps.chunks_exact(run)) {
                slice[at | lo..][..run].copy_from_slice(amps);
            }
        }
    }
}

/// One rank's side of one layout change: which peers it sends to and hears
/// from, and where each message sits in the old and in the new slice.
#[derive(Debug)]
pub(crate) struct ExchangePlan {
    /// Amplitudes per message (`2^kept`), the same for every peer.
    message_len: usize,
    /// Message ↔ old slice.
    pack: SubcubeMap,
    /// Message ↔ new slice.
    unpack: SubcubeMap,
    /// `(destination rank, base offset in the old slice)` of every message
    /// sent, the message to this rank itself included unless it stays in
    /// place.
    outgoing: Vec<(usize, usize)>,
    /// `(source rank, base offset in the new slice)` of every message
    /// received, likewise.
    incoming: Vec<(usize, usize)>,
}

impl ExchangePlan {
    /// Plan the change from layout `old` to layout `new` (`layout[q]` = bit
    /// position of qubit `q`; positions below `local_bits` index the slice,
    /// the ones above spell the rank) as seen by `rank`.
    pub(crate) fn new(old: &[usize], new: &[usize], local_bits: usize, rank: usize) -> Self {
        let (n, l) = (old.len(), local_bits);
        assert_eq!(new.len(), n, "layouts of different widths");
        // to[old position] = new position.
        let mut to = vec![usize::MAX; n];
        let mut taken = vec![false; n];
        for (&from, &target) in old.iter().zip(new) {
            assert!(
                from < n && target < n && to[from] == usize::MAX && !taken[target],
                "a layout must be a permutation of the bit positions"
            );
            to[from] = target;
            taken[target] = true;
        }

        let kept: Vec<usize> = (0..l).filter(|&pos| to[pos] < l).collect();
        let evicted: Vec<usize> = (0..l).filter(|&pos| to[pos] >= l).collect();
        let arriving: Vec<usize> = (l..n).filter(|&pos| to[pos] < l).collect();
        let moved =
            |positions: &[usize]| -> Vec<usize> { positions.iter().map(|&pos| to[pos]).collect() };
        let rank_bits =
            |positions: &[usize]| -> Vec<usize> { positions.iter().map(|&pos| pos - l).collect() };

        // Rank bits that stay rank bits pin part of the peer's id on both
        // sides: they are this rank's own bits, moved.
        let mut destination_fixed = 0usize;
        let mut source_fixed = 0usize;
        for pos in (l..n).filter(|&pos| to[pos] >= l) {
            let (from, target) = (pos - l, to[pos] - l);
            destination_fixed |= ((rank >> from) & 1) << target;
            source_fixed |= ((rank >> target) & 1) << from;
        }

        // One message per value of the evicted bits (outgoing) and of the
        // arriving bits (incoming); there are as many of one as of the other.
        let evicted_to = rank_bits(&moved(&evicted));
        let arriving_from = rank_bits(&arriving);
        let arriving_to = moved(&arriving);
        let peers = 0..1usize << evicted.len();
        let mut outgoing: Vec<(usize, usize)> = peers
            .clone()
            .map(|v| {
                (
                    destination_fixed | deposit(v, &evicted_to),
                    deposit(v, &evicted),
                )
            })
            .collect();
        let mut incoming: Vec<(usize, usize)> = peers
            .map(|v| {
                (
                    source_fixed | deposit(v, &arriving_from),
                    deposit(v, &arriving_to),
                )
            })
            .collect();
        // The message to itself is read from and written to the same offsets
        // when the kept positions stay put and both ends put it at one base.
        let own_base = |messages: &[(usize, usize)]| {
            let own = messages.iter().find(|&&(peer, _)| peer == rank);
            own.map(|&(_, base)| base)
        };
        let kept_in_place = kept.iter().all(|&pos| to[pos] == pos);
        if kept_in_place && own_base(&outgoing) == own_base(&incoming) {
            outgoing.retain(|&(peer, _)| peer != rank);
            incoming.retain(|&(peer, _)| peer != rank);
        }
        Self {
            message_len: 1usize << kept.len(),
            pack: SubcubeMap::new(&kept),
            unpack: SubcubeMap::new(&moved(&kept)),
            outgoing,
            incoming,
        }
    }

    /// Amplitudes this rank packs, and unpacks: the slice less the sub-cube
    /// that stays in place.
    pub(crate) fn moved_amplitudes(&self) -> usize {
        self.outgoing.len() * self.message_len
    }

    /// The send buffers of `alltoallv` for a world of `size` ranks: each
    /// peer's amplitudes in ascending old-offset order, nothing for the ranks
    /// this one sends nothing to (itself, when its sub-cube stays in place).
    /// The buffers come from the process's pool ([`buffers::take`]).
    pub(crate) fn pack(&self, slice: &[Complex64], size: usize) -> Vec<Vec<Complex64>> {
        let mut send: Vec<Vec<Complex64>> = (0..size).map(|_| Vec::new()).collect();
        for &(peer, _) in &self.outgoing {
            send[peer] = buffers::take(self.message_len);
            send[peer].clear();
        }
        // Row by row across the peers: when the evicted bits are low, the
        // peers' rows interleave in the slice and share its cache lines.
        for row in 0..self.pack.rows() {
            for &(peer, base) in &self.outgoing {
                self.pack.gather_row(slice, base, row, &mut send[peer]);
            }
        }
        send
    }

    /// Write what `alltoallv` returned into the new slice.
    pub(crate) fn unpack(&self, received: &[Vec<Complex64>], slice: &mut [Complex64]) {
        for &(peer, _) in &self.incoming {
            assert_eq!(
                received[peer].len(),
                self.message_len,
                "rank {peer} sent a message of the wrong size"
            );
        }
        for row in 0..self.unpack.rows() {
            for &(peer, base) in &self.incoming {
                self.unpack.scatter_row(&received[peer], slice, base, row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(len: usize) -> Vec<Complex64> {
        (0..len).map(|i| Complex64::new(i as f64, -1.0)).collect()
    }

    #[test]
    fn subcube_copies_follow_the_bit_positions() {
        // Runs (long, and too short to be worth one), a hole at bit 0, an
        // unsorted list, a single bit, no bit at all.
        let l = 9;
        let cases: Vec<Vec<usize>> = vec![
            (0..l).collect(),
            (0..6).collect(),
            vec![0, 1, 2, 5, 8],
            (1..l).collect(),
            vec![0, 1, 2, 3, 4, 6, 5, 8],
            vec![7, 0, 3],
            vec![4],
            vec![],
        ];
        let slice = numbered(1 << l);
        for positions in cases {
            let map = SubcubeMap::new(&positions);
            let free: Vec<usize> = (0..l).filter(|pos| !positions.contains(pos)).collect();
            let mut rebuilt = vec![Complex64::ZERO; 1 << l];
            for v in 0..1usize << free.len() {
                let base = deposit(v, &free);
                let mut message = Vec::new();
                for row in 0..map.rows() {
                    map.gather_row(&slice, base, row, &mut message);
                }
                let expected: Vec<Complex64> = (0..1usize << positions.len())
                    .map(|j| slice[base | deposit(j, &positions)])
                    .collect();
                assert_eq!(message, expected, "positions {positions:?}, base {base}");
                for row in 0..map.rows() {
                    map.scatter_row(&message, &mut rebuilt, base, row);
                }
            }
            assert_eq!(rebuilt, slice, "positions {positions:?}");
        }
    }

    #[test]
    fn a_plan_names_each_peer_once_in_both_directions() {
        // 3 rank bits over 2 local bits: qubit 0 leaves for rank bit 1, rank
        // bits 0 and 2 trade places, qubit 3 (rank bit 1) comes in at
        // position 1, qubit 1 drops to position 0.
        let old = [0, 1, 2, 3, 4];
        let new = [3, 0, 4, 1, 2];
        for rank in 0..8usize {
            let plan = ExchangePlan::new(&old, &new, 2, rank);
            assert_eq!(plan.message_len, 2);
            let (b0, b2) = (rank & 1, (rank >> 2) & 1);
            let mut destinations: Vec<usize> = plan.outgoing.iter().map(|&(d, _)| d).collect();
            destinations.sort_unstable();
            assert_eq!(destinations, vec![b2 | b0 << 2, b2 | 2 | b0 << 2]);
            let mut sources: Vec<usize> = plan.incoming.iter().map(|&(s, _)| s).collect();
            sources.sort_unstable();
            assert_eq!(sources, vec![b2 | b0 << 2, b2 | 2 | b0 << 2]);
        }
    }

    #[test]
    fn a_swap_sends_only_what_changes_rank() {
        // 3 slice bits, 2 rank bits: slice bit 0 trades places with rank bit
        // 0, the kept bits stay, so every rank trades half its slice with its
        // partner and keeps the other half where it is.
        let old = [0, 1, 2, 3, 4];
        let swap = [3, 1, 2, 0, 4];
        for rank in 0..4usize {
            let plan = ExchangePlan::new(&old, &swap, 3, rank);
            assert_eq!(plan.outgoing, vec![(rank ^ 1, (!rank & 1))]);
            assert_eq!(plan.incoming, vec![(rank ^ 1, (!rank & 1))]);
            assert_eq!(plan.moved_amplitudes(), 4);
        }
        // Kept bits that trade places move the own sub-cube too.
        let crossed = [3, 2, 1, 0, 4];
        for rank in 0..4usize {
            let plan = ExchangePlan::new(&old, &crossed, 3, rank);
            assert!(plan.outgoing.iter().any(|&(peer, _)| peer == rank));
            assert!(plan.incoming.iter().any(|&(peer, _)| peer == rank));
            assert_eq!(plan.moved_amplitudes(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn a_layout_that_repeats_a_position_is_rejected() {
        let _ = ExchangePlan::new(&[0, 1, 2], &[0, 1, 1], 2, 0);
    }
}
