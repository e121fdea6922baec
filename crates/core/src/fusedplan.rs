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
//! (fused qubit `j` = `working_set[j]`), which makes one plan reusable by
//! both hierarchies:
//!
//! * the single-node engine gathers an inner vector whose qubit `j` *is*
//!   `working_set[j]` — the fused circuit applies directly;
//! * the distributed engines translate `j → layout[working_set[j]]` with
//!   [`FusedCircuit::apply_mapped`], so every virtual rank shares the same
//!   fused matrices regardless of its current layout.

use hisvsim_circuit::{Circuit, Qubit};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_partition::MultilevelPartition;
use hisvsim_statevec::{FusedCircuit, FusionStrategy, DEFAULT_FUSION_WIDTH};

/// One part of a [`FusedSinglePlan`]: its working set and prefused gates.
#[derive(Debug, Clone)]
pub struct FusedPart {
    /// The part id in the underlying partition.
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

    /// Total fused sweeps across every part — the sweep count a full
    /// execution of this plan performs over its (part-local) states. Feeds
    /// the predicted-cost side of the runtime's decision verdicts.
    pub fn total_fused_ops(&self) -> usize {
        self.parts.iter().map(|p| p.inner.num_ops()).sum()
    }

    /// Circuit gates across every part: the total the engines report
    /// progress against.
    pub fn total_source_gates(&self) -> u64 {
        let gates = self.parts.iter().map(|p| p.inner.source_gates());
        gates.sum::<usize>() as u64
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
    let inner = fuse_gate_list(circuit, part_gates, &working_set, fusion_width);
    FusedPart {
        part,
        working_set,
        inner,
    }
}

/// Remap `gate_indices` of `circuit` onto `working_set` positions and fuse.
fn fuse_gate_list(
    circuit: &Circuit,
    gate_indices: &[usize],
    working_set: &[Qubit],
    fusion_width: usize,
) -> FusedCircuit {
    let mut map = vec![None; circuit.num_qubits()];
    for (inner, &outer) in working_set.iter().enumerate() {
        map[outer] = Some(inner);
    }
    let inner_circuit = circuit
        .subcircuit(gate_indices)
        .remap_qubits(&map, working_set.len());
    FusedCircuit::new(&inner_circuit, fusion_width)
}

/// One second-level part of a [`FusedTwoLevelPlan`]'s first-level part.
#[derive(Debug, Clone)]
pub struct FusedSecondPart {
    /// Global qubits backing the second-level inner register, ascending.
    pub working_set: Vec<Qubit>,
    /// The second-level gates, remapped onto `working_set` and fused.
    pub inner: FusedCircuit,
}

/// One first-level part of a [`FusedTwoLevelPlan`].
#[derive(Debug, Clone)]
pub struct FusedMlPart {
    /// The first-level part id.
    pub part: usize,
    /// The first-level working set (the qubits the rank must hold locally).
    pub working_set: Vec<Qubit>,
    /// Prefused second-level parts, in their topological order.
    pub second: Vec<FusedSecondPart>,
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
                    .map(|gates| {
                        let ws: Vec<Qubit> = dag.working_set_of_gates(&gates).into_iter().collect();
                        FusedSecondPart {
                            inner: fuse_gate_list(circuit, &gates, &ws, fusion_width),
                            working_set: ws,
                        }
                    })
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

    /// Total fused sweeps across every second-level part (see
    /// [`FusedSinglePlan::total_fused_ops`]).
    pub fn total_fused_ops(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.second.iter().map(|s| s.inner.num_ops()).sum::<usize>())
            .sum()
    }

    /// Circuit gates across every second-level part (see
    /// [`FusedSinglePlan::total_source_gates`]).
    pub fn total_source_gates(&self) -> u64 {
        let seconds = self.parts.iter().flat_map(|p| &p.second);
        seconds.map(|s| s.inner.source_gates()).sum::<usize>() as u64
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
        assert_eq!(plan.total_source_gates(), circuit.num_gates() as u64);
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
        assert_eq!(plan.total_source_gates(), circuit.num_gates() as u64);
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
}
