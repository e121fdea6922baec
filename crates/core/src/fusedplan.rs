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
//! `layout[working_set[j]]`, either gathering an inner vector over those
//! positions or sweeping its slice in place through them.
//!
//! Both plan shapes run as a list of [`PlanStep`]s ([`FusedPlan::steps`]): a
//! working set the rank brings into its local slice, then the parts that run
//! inside it. That list is what the one rank body
//! ([`run_plan_rank`](crate::dist::run_plan_rank)) walks.

use crate::hier::{part_passes, step_part_mode};
use hisvsim_circuit::{Circuit, Qubit};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_partition::MultilevelPartition;
use hisvsim_statevec::{FusedCircuit, FusionStrategy, DEFAULT_FUSION_WIDTH};

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
        let parts = order
            .iter()
            .filter(|&&part| !gates_by_part[part].is_empty())
            .map(|&part| fuse_part(circuit, dag, part, &gates_by_part[part], fusion_width))
            .collect();
        Self { partition, parts }
    }
}

/// Fuse one part's gates in working-set-relative space.
fn fuse_part(
    circuit: &Circuit,
    dag: &CircuitDag,
    part: usize,
    part_gates: &[usize],
    fusion_width: usize,
) -> FusedPart {
    let working_set: Vec<Qubit> = dag.working_set_of_gates(part_gates).into_iter().collect();
    let mut map = vec![None; circuit.num_qubits()];
    for (inner, &outer) in working_set.iter().enumerate() {
        map[outer] = Some(inner);
    }
    let inner_circuit = circuit
        .subcircuit(part_gates)
        .remap_qubits(&map, working_set.len());
    FusedPart {
        part,
        inner: FusedCircuit::new(&inner_circuit, fusion_width),
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

/// A two-level partition plan with prefused second-level parts.
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
        let parts = first_order
            .iter()
            .filter(|&&part| !first_parts[part].is_empty())
            .map(|&part| {
                let working_set: Vec<Qubit> = dag
                    .working_set_of_gates(&first_parts[part])
                    .into_iter()
                    .collect();
                let second = ml
                    .second_level_gate_lists(dag, part)
                    .into_iter()
                    .filter(|gates| !gates.is_empty())
                    .enumerate()
                    .map(|(second, gates)| fuse_part(circuit, dag, second, &gates, fusion_width))
                    .collect();
                FusedMlPart {
                    part,
                    working_set,
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
    /// A two-level plan (the multilevel engine's).
    Two(&'a FusedTwoLevelPlan),
}

/// One step of a rank's schedule: the qubits the rank brings into its local
/// slice, then the parts that run inside it with no exchange between them.
#[derive(Debug, Clone, Copy)]
pub struct PlanStep<'a> {
    /// Qubits every part of the step needs local.
    pub working_set: &'a [Qubit],
    /// The step's parts, in execution order.
    pub parts: &'a [FusedPart],
}

impl<'a> FusedPlan<'a> {
    /// The steps a world of `ranks` ranks runs the plan in: a function of
    /// the plan's shape and the world size alone. A two-level plan takes one
    /// step per first-level part. A single-level plan takes one step per part
    /// on several ranks, and one step holding every part on a world of one,
    /// where every qubit is local and no part switch needs an exchange.
    pub fn steps(self, ranks: usize) -> Vec<PlanStep<'a>> {
        match self {
            FusedPlan::Single(plan) if ranks == 1 => vec![PlanStep {
                working_set: &[],
                parts: &plan.parts,
            }],
            FusedPlan::Single(plan) => plan
                .parts
                .iter()
                .map(|part| PlanStep {
                    working_set: &part.working_set,
                    parts: std::slice::from_ref(part),
                })
                .collect(),
            FusedPlan::Two(plan) => plan
                .parts
                .iter()
                .map(|part| PlanStep {
                    working_set: &part.working_set,
                    parts: &part.second,
                })
                .collect(),
        }
    }

    /// Every part the plan runs, in execution order: on any world, each part
    /// is in exactly one step.
    fn parts(self) -> impl Iterator<Item = &'a FusedPart> {
        self.steps(1).into_iter().flat_map(|step| step.parts)
    }

    /// (First-level) parts of the partition: the `num_parts` of a report.
    pub fn num_parts(self) -> usize {
        match self {
            FusedPlan::Single(plan) => plan.partition.num_parts(),
            FusedPlan::Two(plan) => plan.ml.num_first_level_parts(),
        }
    }

    /// Passes over memory a world of one makes running the plan on a
    /// `num_qubits`-qubit state: per part, those of the mode the rank body
    /// runs it in ([`step_part_mode`],
    /// [`PartPasses::in_mode`](crate::hier::PartPasses::in_mode)). Feeds the
    /// predicted-cost side of the runtime's decision verdicts.
    pub fn passes(self, num_qubits: usize) -> usize {
        let step_passes = |step: PlanStep<'a>| -> usize {
            let only = step.parts.len() == 1;
            let part_passes = |part: &FusedPart| {
                let (set, inner) = (&part.working_set, &part.inner);
                let mode = step_part_mode(only, num_qubits, set, inner);
                part_passes(num_qubits, set, inner).in_mode(mode)
            };
            step.parts.iter().map(part_passes).sum()
        };
        self.steps(1).into_iter().map(step_passes).sum()
    }

    /// Circuit gates across every part: the total the engines report
    /// progress against.
    pub fn total_source_gates(self) -> u64 {
        let gates = self.parts().map(|part| part.inner.source_gates());
        gates.sum::<usize>() as u64
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
        let gates = FusedPlan::Single(&plan).total_source_gates();
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
        let ml = MultilevelPartitioner::default()
            .partition(&dag, 6, 3)
            .unwrap();
        let plan = FusedTwoLevelPlan::new(&circuit, &dag, ml);
        let gates = FusedPlan::Two(&plan).total_source_gates();
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
    fn the_step_shape_follows_the_plan_and_the_world_size() {
        let circuit = generators::by_name("qaoa", 9);
        let dag = CircuitDag::from_circuit(&circuit);
        let partition = Strategy::DagP.partition(&dag, 5).unwrap();
        let single = FusedSinglePlan::new(&circuit, &dag, partition);
        assert!(single.parts.len() > 1);
        let one = FusedPlan::Single(&single).steps(1);
        assert_eq!(one.len(), 1, "a world of one runs every part in one step");
        assert!(one[0].working_set.is_empty());
        assert_eq!(one[0].parts.len(), single.parts.len());
        let many = FusedPlan::Single(&single).steps(4);
        assert_eq!(many.len(), single.parts.len());
        for (step, part) in many.iter().zip(&single.parts) {
            assert_eq!(step.working_set, part.working_set);
            assert_eq!(step.parts.len(), 1);
        }

        let ml = MultilevelPartitioner::default()
            .partition(&dag, 6, 3)
            .unwrap();
        let two = FusedTwoLevelPlan::new(&circuit, &dag, ml);
        for ranks in [1, 4] {
            let steps = FusedPlan::Two(&two).steps(ranks);
            assert_eq!(steps.len(), two.parts.len());
            for (step, part) in steps.iter().zip(&two.parts) {
                assert_eq!(step.working_set, part.working_set);
                assert_eq!(step.parts.len(), part.second.len());
            }
        }
    }
}
