//! Fused execution plans: a partition plus the prefused inner circuits of
//! every part, built once and shared by every execution of the plan.
//!
//! Partitioning is a pure function of circuit structure (which is why the
//! runtime caches it); gate fusion is too. This module moves fusion to plan
//! time so it is amortised exactly like partitioning: a plan served from a
//! warm cache carries the fused matrices with it, and the engines execute
//! parts without touching `gate.matrix()` or the fusion grouping again.
//!
//! The fused inner circuits live in *working-set-relative* qubit space
//! (fused qubit `j` = `working_set[j]`), so every rank runs the same fused
//! matrices whatever its current layout: it aims fused qubit `j` at
//! `layout[working_set[j]]` and sweeps its slice in place through them.
//!
//! Both plan shapes compile, for one state width and world size, into one
//! [`PlanSchedule`] ([`FusedPlan::schedule`]): every part with the layout the
//! rank takes before it, the positions its qubits sit at and its passes (the
//! op ranges the rank sweeps one at a time, each a cache-blocked tile walk
//! when it holds several ops, with the index positions an amplitude can set
//! by then). That list is what the one rank body
//! ([`run_plan_rank`](crate::dist::run_plan_rank)) walks, and what the
//! runtime's cost verdict reads.

use crate::dist::local_layout;
use hisvsim_circuit::{Circuit, Qubit};
use hisvsim_dag::{CircuitDag, Partition, QubitSet};
use hisvsim_partition::MultilevelPartition;
use hisvsim_statevec::fusion::TILE;
use hisvsim_statevec::{FusedCircuit, FusionStrategy, Support, DEFAULT_FUSION_WIDTH};
use std::ops::Range;

/// One fused part: its working set and prefused gates. The parts of a
/// [`FusedSinglePlan`] and the second-level parts of a [`FusedTwoLevelPlan`]
/// alike.
#[derive(Debug, Clone)]
pub struct FusedPart {
    /// The part id: in the partition for a single-level part, in its
    /// first-level part's execution order for a second-level one.
    pub part: usize,
    /// Outer qubit backing each inner (fused) qubit position, ascending.
    pub working_set: Vec<Qubit>,
    /// The part's gates, remapped onto the working set and fused.
    pub inner: FusedCircuit,
}

/// A single-level partition plan with prefused parts, in execution order.
#[derive(Debug, Clone)]
pub struct FusedSinglePlan {
    /// The partition the plan executes.
    pub partition: Partition,
    /// Prefused parts in topological execution order (empty parts skipped).
    pub parts: Vec<FusedPart>,
}

impl FusedSinglePlan {
    /// Fuse every part of `partition` at [`DEFAULT_FUSION_WIDTH`].
    pub fn new(circuit: &Circuit, dag: &CircuitDag, partition: Partition) -> Self {
        Self::build_with_strategy(
            circuit,
            dag,
            partition,
            DEFAULT_FUSION_WIDTH,
            FusionStrategy::default(),
        )
    }

    /// Fuse every part of `partition` at `fusion_width` (≥ 1); see
    /// [`FusionStrategy`] for why the strategy parameter is still here.
    pub fn build_with_strategy(
        circuit: &Circuit,
        dag: &CircuitDag,
        partition: Partition,
        fusion_width: usize,
        _strategy: FusionStrategy,
    ) -> Self {
        let order = partition.execution_order(dag);
        let gates_by_part = partition.gates_by_part();
        let working_sets = partition.working_sets(dag);
        let parts = order
            .iter()
            .filter(|&&part| !gates_by_part[part].is_empty())
            .map(|&part| {
                let (gates, working_set) = (&gates_by_part[part], &working_sets[part]);
                fuse_part(circuit, dag, part, gates, working_set, fusion_width)
            })
            .collect();
        Self { partition, parts }
    }
}

/// Fuse one part's gates (ascending) in working-set-relative space, in
/// place on the circuit's DAG: a part of an acyclic partition is convex, so
/// its gates group exactly as they would as a circuit of their own.
fn fuse_part(
    circuit: &Circuit,
    dag: &CircuitDag,
    part: usize,
    part_gates: &[usize],
    working_set: &QubitSet,
    fusion_width: usize,
) -> FusedPart {
    let working_set: Vec<Qubit> = working_set.iter().collect();
    FusedPart {
        part,
        inner: FusedCircuit::from_part(circuit, dag, part_gates, &working_set, fusion_width),
        working_set,
    }
}

/// One first-level part of a [`FusedTwoLevelPlan`].
#[derive(Debug, Clone)]
pub struct FusedMlPart {
    /// The first-level part id.
    pub part: usize,
    /// The first-level working set (the qubits the rank must hold locally).
    pub working_set: Vec<Qubit>,
    /// Prefused second-level parts, in their topological order.
    pub second: Vec<FusedPart>,
}

/// A two-level partition plan with prefused second-level parts: the
/// multilevel comparator's (Fig. 10). The runtime neither caches, ships nor
/// runs one; it stays for the figure, the differential suites, and because
/// the benchmark adapter (`crates/bench/src/bin/hisvsim-bench/`) names it.
#[derive(Debug, Clone)]
pub struct FusedTwoLevelPlan {
    /// The two-level partition the plan executes.
    pub ml: MultilevelPartition,
    /// Prefused first-level parts in execution order.
    pub parts: Vec<FusedMlPart>,
}

impl FusedTwoLevelPlan {
    /// Fuse every second-level part of `ml` at [`DEFAULT_FUSION_WIDTH`].
    pub fn new(circuit: &Circuit, dag: &CircuitDag, ml: MultilevelPartition) -> Self {
        Self::build_with_strategy(
            circuit,
            dag,
            ml,
            DEFAULT_FUSION_WIDTH,
            FusionStrategy::default(),
        )
    }

    /// Fuse every second-level part of `ml` at `fusion_width` (≥ 1); see
    /// [`FusionStrategy`] for why the strategy parameter is still here.
    pub fn build_with_strategy(
        circuit: &Circuit,
        dag: &CircuitDag,
        ml: MultilevelPartition,
        fusion_width: usize,
        _strategy: FusionStrategy,
    ) -> Self {
        let first_order = ml.first.execution_order(dag);
        let first_parts = ml.first.gates_by_part();
        let working_sets = ml.first.working_sets(dag);
        let parts = first_order
            .iter()
            .filter(|&&part| !first_parts[part].is_empty())
            .map(|&part| {
                let second = ml
                    .second_level_gate_lists(dag, part)
                    .into_iter()
                    .filter(|gates| !gates.is_empty())
                    .enumerate()
                    .map(|(second, gates)| {
                        let mut working_set = QubitSet::new(circuit.num_qubits());
                        for &gate in &gates {
                            working_set.extend(&circuit.gates()[gate].qubits);
                        }
                        fuse_part(circuit, dag, second, &gates, &working_set, fusion_width)
                    })
                    .collect();
                FusedMlPart {
                    part,
                    working_set: working_sets[part].iter().collect(),
                    second,
                }
            })
            .collect();
        Self { ml, parts }
    }
}

/// A fused plan of either shape: what the one rank body runs.
#[derive(Debug, Clone, Copy)]
pub enum FusedPlan<'a> {
    /// A single-level plan (the hier and dist engines').
    Single(&'a FusedSinglePlan),
    /// A two-level plan (the multilevel comparator's). The runtime compiles
    /// only [`FusedPlan::Single`]; this variant stays for the figure, the
    /// differential suites and the benchmark adapter's two-level row.
    Two(&'a FusedTwoLevelPlan),
}

impl<'a> FusedPlan<'a> {
    /// (First-level) parts of the partition: the `num_parts` of a report.
    pub fn num_parts(self) -> usize {
        match self {
            FusedPlan::Single(plan) => plan.partition.num_parts(),
            FusedPlan::Two(plan) => plan.ml.num_first_level_parts(),
        }
    }

    /// Compile the plan for a `num_qubits`-qubit state on `ranks` ranks (a
    /// power of two): a function of these alone, so every rank, worker and
    /// repeat of a job runs the same schedule. The parts run in groups with
    /// no exchange between them: a two-level plan's first-level parts, a
    /// single-level plan's parts one by one on several ranks and all at once
    /// on a world of one. Before a group the ranks swap its working set into
    /// their slices (the swaps `DistState::ensure_local` makes), the first
    /// group's layout free, since `|0…0⟩` is the same in every layout. Each
    /// part's passes are listed here, once ([`FusedCircuit::passes`]), and
    /// everything that counts passes reads that list. So is each pass's
    /// [`Pass::live`]: the positions no earlier pass mixed are still clear in
    /// every nonzero amplitude, and an exchange moves the mask with the
    /// qubits.
    pub fn schedule(self, num_qubits: usize, ranks: usize) -> PlanSchedule<'a> {
        let local = (num_qubits.checked_sub(ranks.trailing_zeros() as usize))
            .filter(|_| ranks.is_power_of_two())
            .expect("a power-of-two rank count of at most 2^num_qubits");
        let groups: Vec<(&'a [Qubit], &'a [FusedPart])> = match self {
            FusedPlan::Single(plan) if ranks == 1 => vec![(&[], &plan.parts)],
            FusedPlan::Single(plan) => (plan.parts.iter())
                .map(|part| (&part.working_set[..], std::slice::from_ref(part)))
                .collect(),
            FusedPlan::Two(plan) => (plan.parts.iter())
                .map(|part| (&part.working_set[..], &part.second[..]))
                .collect(),
        };
        let mut layout: Vec<usize> = (0..num_qubits).collect();
        let mut entries: Vec<ScheduleEntry<'a>> = Vec::new();
        // Positions some nonzero amplitude can set: none in `|0…0⟩`.
        let mut live = 0u64;
        for (needed, parts) in groups {
            let mut exchange = local_layout(&layout, local, needed);
            if let Some(next) = &exchange {
                live = (0..num_qubits)
                    .filter(|&q| live >> layout[q] & 1 == 1)
                    .fold(0, |moved, q| moved | 1 << next[q]);
                layout.clone_from(next);
            }
            for part in parts {
                let positions: Vec<usize> = part.working_set.iter().map(|&q| layout[q]).collect();
                debug_assert!(positions.iter().all(|&pos| pos < local));
                let in_place = (part.inner.passes(local, Some(&positions)))
                    .map(|ops| {
                        let pass = Pass { live, ops };
                        live |= part.inner.mixing(pass.ops.clone(), Some(&positions));
                        pass
                    })
                    .collect();
                entries.push(ScheduleEntry {
                    part,
                    exchange: exchange.take(),
                    positions,
                    in_place,
                });
            }
        }
        // The first layout is the one the ranks start in, with no exchange.
        let first = entries.first_mut().and_then(|entry| entry.exchange.take());
        let start = first.unwrap_or_else(|| (0..num_qubits).collect());
        PlanSchedule {
            plan: self,
            num_qubits,
            ranks,
            start,
            entries,
        }
    }
}

/// A plan compiled for one state width and world size
/// ([`FusedPlan::schedule`]): what every rank walks, one entry per part.
#[derive(Debug, Clone)]
pub struct PlanSchedule<'a> {
    /// The plan it was compiled from.
    pub plan: FusedPlan<'a>,
    /// Qubits of the state.
    pub num_qubits: usize,
    /// Ranks of the world it runs on.
    pub ranks: usize,
    /// The layout the ranks start in (`start[q]` = position of qubit `q`).
    pub start: Vec<usize>,
    /// The parts in execution order.
    pub entries: Vec<ScheduleEntry<'a>>,
}

impl PlanSchedule<'_> {
    /// Qubits of each rank's slice.
    pub fn local_qubits(&self) -> usize {
        self.num_qubits - self.ranks.trailing_zeros() as usize
    }

    /// Circuit gates across every part: the total the engines report
    /// progress against.
    pub fn total_source_gates(&self) -> u64 {
        let gates = self.entries.iter().map(|e| e.part.inner.source_gates());
        gates.sum::<usize>() as u64
    }

    /// Redistributions every rank makes.
    pub fn exchanges(&self) -> usize {
        self.entries.iter().filter(|e| e.exchange.is_some()).count()
    }

    /// Passes over memory each rank makes.
    pub fn passes(&self) -> usize {
        self.entries.iter().map(|entry| entry.in_place.len()).sum()
    }

    /// The amplitudes rank `rank` sweeps in each pass, entry by entry and
    /// pass by pass ([`FusedCircuit::swept_amplitudes`] under the pass's
    /// [`Pass::support`]): a cache-blocked run's live tiles, a whole-slice
    /// sweep in full, and nothing while the rank's slice is zero. The bytes
    /// a pass streams are 32 per amplitude, read and written.
    pub fn swept_amplitudes(&self, rank: usize) -> Vec<usize> {
        let local = self.local_qubits();
        (self.entries.iter())
            .flat_map(|entry| {
                let (inner, map) = (&entry.part.inner, Some(&entry.positions[..]));
                (entry.in_place.iter()).map(move |pass| {
                    let support = pass.support(rank, local);
                    inner.swept_amplitudes(local, pass.ops.clone(), map, support)
                })
            })
            .collect()
    }
}

/// One part of a [`PlanSchedule`] and the passes it runs in.
#[derive(Debug, Clone)]
pub struct ScheduleEntry<'a> {
    /// The part.
    pub part: &'a FusedPart,
    /// The layout the ranks redistribute to before the part, if any.
    pub exchange: Option<Vec<usize>>,
    /// Slice position of each working-set qubit (of fused qubit `j`).
    pub positions: Vec<usize>,
    /// The part's passes over the slice in place, in order: ranges of its
    /// fused ops, one sweep each ([`FusedCircuit::passes`] under
    /// `positions`). What the rank body walks.
    pub in_place: Vec<Pass>,
}

/// One pass of a part over a rank's slice: the fused ops it sweeps
/// together, and which index positions can be 1 in a nonzero amplitude
/// when it starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    /// The index positions (of the whole state, the rank bits included, in
    /// the layout the pass runs in) that some nonzero amplitude can set: the
    /// positions every earlier pass of the job mixed. All ones when the
    /// state a pass starts from is not known.
    pub live: u64,
    /// The range of the part's fused ops the pass sweeps.
    pub ops: Range<usize>,
}

impl Pass {
    /// What rank `rank`'s `local_qubits`-qubit slice can hold nonzero when
    /// the pass starts: nothing if the rank's own index bits set a position
    /// outside [`live`](Self::live), else the amplitudes whose slice index
    /// sets no bit outside it. A slice of at most one [`TILE`] is swept in
    /// full either way.
    pub fn support(&self, rank: usize, local_qubits: usize) -> Support {
        let rank_bits = (rank as u64) << local_qubits;
        match 1usize << local_qubits > TILE {
            false => Support::ANY,
            true if rank_bits & !self.live == 0 => Support::Within(self.live),
            true => Support::Zero,
        }
    }

    /// How many of a world of `ranks` ranks with `local_qubits`-qubit
    /// slices hold a nonzero amplitude when the pass starts: the ranks
    /// whose index bits set only [`live`](Self::live) positions,
    /// `2^popcount(live ∩ rank positions)`, or every rank when a slice is
    /// at most one [`TILE`] (swept in full, see [`support`](Self::support)).
    /// The ranks a pass splits the world's cores among.
    pub fn live_ranks(&self, ranks: usize, local_qubits: usize) -> usize {
        if 1usize << local_qubits <= TILE {
            return ranks;
        }
        let rank_positions = (ranks as u64 - 1) << local_qubits;
        1 << (self.live & rank_positions).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;
    use hisvsim_partition::{MultilevelPartitioner, Strategy};

    #[test]
    fn single_plan_covers_every_gate_exactly_once() {
        let circuit = generators::by_name("qft", 9);
        let dag = CircuitDag::from_circuit(&circuit);
        let partition = Strategy::DagP.partition(&dag, 5).unwrap();
        let plan = FusedSinglePlan::new(&circuit, &dag, partition);
        let gates = FusedPlan::Single(&plan).schedule(9, 1).total_source_gates();
        assert_eq!(gates, circuit.num_gates() as u64);
        for part in &plan.parts {
            assert!(part.working_set.len() <= 5);
            assert_eq!(part.inner.num_qubits(), part.working_set.len());
        }
    }

    #[test]
    fn two_level_plan_covers_every_gate_exactly_once() {
        let circuit = generators::by_name("qaoa", 9);
        let dag = CircuitDag::from_circuit(&circuit);
        let ml = MultilevelPartitioner.partition(&dag, 6, 3).unwrap();
        let plan = FusedTwoLevelPlan::new(&circuit, &dag, ml);
        let gates = FusedPlan::Two(&plan).schedule(9, 2).total_source_gates();
        assert_eq!(gates, circuit.num_gates() as u64);
        for part in &plan.parts {
            for second in &part.second {
                // Second-level working sets are within the first-level one.
                assert!(second
                    .working_set
                    .iter()
                    .all(|q| part.working_set.contains(q)));
            }
        }
    }

    #[test]
    fn live_ranks_count_the_ranks_whose_bits_are_live() {
        let l = 17;
        let pass = |live: u64| Pass { live, ops: 0..2 };
        // A world of one: its one rank, whatever is live.
        for live in [0, 1 << 3, u64::MAX] {
            assert_eq!(pass(live).live_ranks(1, l), 1);
        }
        // Two ranks, one rank bit (position 17).
        assert_eq!(pass(0).live_ranks(2, l), 1);
        assert_eq!(pass((1 << l) - 1).live_ranks(2, l), 1);
        assert_eq!(pass(1 << l).live_ranks(2, l), 2);
        // Four ranks, rank bits 17 and 18: each live one doubles the count,
        // and positions above the world's do not count.
        assert_eq!(pass(1 << 5).live_ranks(4, l), 1);
        assert_eq!(pass(1 << (l + 1)).live_ranks(4, l), 2);
        assert_eq!(pass(1 << l | 1 << (l + 2)).live_ranks(4, l), 2);
        assert_eq!(pass(u64::MAX).live_ranks(4, l), 4);
        // The count is the ranks `support` leaves sweeping.
        for ranks in [1usize, 2, 4] {
            for live in [0, 1 << l, 1 << (l + 1), 3 << l, u64::MAX] {
                let sweeping = (0..ranks)
                    .filter(|&rank| pass(live).support(rank, l) != Support::Zero)
                    .count();
                assert_eq!(
                    pass(live).live_ranks(ranks, l),
                    sweeping,
                    "{ranks} {live:#x}"
                );
            }
        }
        // A slice of one tile is swept in full on every rank.
        assert_eq!(pass(0).live_ranks(4, TILE.trailing_zeros() as usize), 4);
    }

    #[test]
    fn the_schedule_follows_the_plan_and_the_world_size() {
        let circuit = generators::by_name("qaoa", 9);
        let dag = CircuitDag::from_circuit(&circuit);
        let partition = Strategy::DagP.partition(&dag, 5).unwrap();
        let single = FusedSinglePlan::new(&circuit, &dag, partition);
        assert!(single.parts.len() > 1);
        // A world of one: every qubit local, no layout change at all.
        let one = FusedPlan::Single(&single).schedule(9, 1);
        assert_eq!(one.entries.len(), single.parts.len());
        assert_eq!(one.start, (0..9).collect::<Vec<_>>());
        assert_eq!(one.exchanges(), 0);
        for (entry, part) in one.entries.iter().zip(&single.parts) {
            assert_eq!(entry.positions, part.working_set);
        }
        // Four ranks: one part at a time, every working set local under its
        // layout, and the first layout free.
        let many = FusedPlan::Single(&single).schedule(9, 4);
        assert_eq!(many.local_qubits(), 7);
        assert!(many.entries[0].exchange.is_none());
        let mut layout = many.start.clone();
        for (entry, part) in many.entries.iter().zip(&single.parts) {
            if let Some(next) = &entry.exchange {
                assert_ne!(*next, layout);
                layout.clone_from(next);
            }
            let at: Vec<usize> = part.working_set.iter().map(|&q| layout[q]).collect();
            assert_eq!(entry.positions, at);
            assert!(at.iter().all(|&pos| pos < 7));
        }
        let in_place = many.entries.iter().map(|entry| entry.in_place.len());
        assert_eq!(many.passes(), in_place.sum::<usize>());

        let ml = MultilevelPartitioner.partition(&dag, 6, 3).unwrap();
        let two = FusedTwoLevelPlan::new(&circuit, &dag, ml);
        // An exchange can only open a first-level part, and a world of one
        // makes none.
        let opening: Vec<usize> = two
            .parts
            .iter()
            .scan(0, |at, part| {
                let first = *at;
                *at += part.second.len();
                Some(first)
            })
            .collect();
        for ranks in [1, 4] {
            let schedule = FusedPlan::Two(&two).schedule(9, ranks);
            let entries = &schedule.entries;
            assert_eq!(
                entries.len(),
                two.parts.iter().map(|p| p.second.len()).sum()
            );
            for (index, entry) in entries.iter().enumerate() {
                assert!(entry.exchange.is_none() || opening[1..].contains(&index));
            }
            assert_eq!(schedule.exchanges() == 0, ranks == 1);
        }
    }
}
