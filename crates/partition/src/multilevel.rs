//! Multi-level (two-level) partitioning (Sec. IV-B, "Multi-level
//! partitioning", and Sec. V-D).
//!
//! The recursive-bisection structure of dagP makes it natural to prepare
//! partitions at two scales: the *first level* bounded by the per-rank local
//! qubit count `l` (inter-node data distribution), and the *second level*
//! bounded by a cache-sized limit (intra-node locality). The first-level
//! partitioning runs on the whole circuit; each first-level part is then
//! partitioned again with the second-level limit.
//!
//! When a first-level part already fits the second-level limit, the second
//! level is the identity for that part (the paper notes those circuits show
//! no difference between single- and multi-level execution).

use crate::dagp::DagPPartitioner;
use crate::error::PartitionBuildError;
use hisvsim_circuit::Circuit;
use hisvsim_dag::{CircuitDag, Partition};
use serde::{Deserialize, Serialize};

/// A two-level partition: a first-level partition of the whole circuit and,
/// per first-level part, a second-level partition of that part's gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultilevelPartition {
    /// First-level working-set limit (the distributed engine's local qubit
    /// count).
    pub first_limit: usize,
    /// Second-level working-set limit (cache-resident inner state vector).
    pub second_limit: usize,
    /// First-level partition over the circuit's gates.
    pub first: Partition,
    /// For each first-level part `p`: the gate indices of `p` (ascending
    /// circuit order) and a partition of *those positions* into second-level
    /// parts. `second[p].1.part_of(i)` is the second-level part of
    /// `second[p].0[i]`.
    pub second: Vec<(Vec<usize>, Partition)>,
}

impl MultilevelPartition {
    /// Number of first-level parts.
    pub fn num_first_level_parts(&self) -> usize {
        self.first.num_parts()
    }

    /// Total number of second-level parts across all first-level parts.
    pub fn total_second_level_parts(&self) -> usize {
        self.second.iter().map(|(_, p)| p.num_parts()).sum()
    }

    /// True when every first-level part has a trivial (single-part) second
    /// level — i.e. the multi-level execution degenerates to single-level.
    pub fn is_degenerate(&self) -> bool {
        self.second.iter().all(|(_, p)| p.num_parts() <= 1)
    }

    /// Validate the whole two-level structure against `dag`: the first
    /// level must be a valid acyclic partition under `first_limit`, the
    /// second-level table must cover exactly each first-level part's gates,
    /// and every non-trivial second-level partition must itself validate
    /// (acyclic, working sets within `second_limit`) on the part's sub-DAG.
    /// The guard for two-level plans from untrusted sources (e.g. a
    /// disk-persisted plan cache).
    pub fn validate(&self, dag: &CircuitDag, first_limit: usize) -> Result<(), String> {
        self.first
            .validate(dag, first_limit)
            .map_err(|e| format!("first level: {e}"))?;
        let by_part = self.first.gates_by_part();
        if self.second.len() != by_part.len() {
            return Err(format!(
                "second-level table has {} entries for {} first-level parts",
                self.second.len(),
                by_part.len()
            ));
        }
        for (p, (gates, partition)) in self.second.iter().enumerate() {
            let mut expected = by_part[p].clone();
            expected.sort_unstable();
            let mut got = gates.clone();
            got.sort_unstable();
            if expected != got {
                return Err(format!(
                    "second level of part {p} does not cover exactly the part's gates"
                ));
            }
            if partition.num_parts() <= 1 {
                continue; // identity second level: nothing more to check
            }
            let sub = sub_circuit_dag(dag, gates);
            partition
                .validate(&sub, self.second_limit)
                .map_err(|e| format!("second level of part {p}: {e}"))?;
        }
        Ok(())
    }

    /// The second-level parts of first-level part `p`, as lists of original
    /// circuit gate indices in execution (topological) order.
    pub fn second_level_gate_lists(&self, dag: &CircuitDag, p: usize) -> Vec<Vec<usize>> {
        let (gates, partition) = &self.second[p];
        if partition.num_parts() <= 1 {
            return vec![gates.clone()];
        }
        // Build a sub-circuit DAG ordering by using the quotient order of the
        // second-level partition over the *original* DAG restricted to these
        // gates: since the second-level parts are produced by an acyclic
        // partitioner on the sub-DAG, ordering parts by their minimal gate
        // index in circuit order is a valid execution order (gates within a
        // part keep circuit order; cross-part edges in the sub-DAG follow the
        // first-appearance order of an acyclic cutoff). To stay safe for any
        // acyclic second-level partition we recompute a topological order of
        // the second-level part graph on the restricted DAG.
        let sub = sub_circuit_dag(dag, gates);
        let order = partition.execution_order(&sub);
        let by_part = partition.gates_by_part();
        order
            .into_iter()
            .map(|sp| by_part[sp].iter().map(|&local| gates[local]).collect())
            .collect()
    }
}

/// Build the DAG of the sub-circuit formed by `gates` (original indices,
/// ascending) of the circuit behind `dag`. Local gate `i` of the sub-DAG is
/// `gates[i]`.
fn sub_circuit_dag(dag: &CircuitDag, gates: &[usize]) -> CircuitDag {
    // Reconstruct a small circuit containing only those gates, preserving
    // qubit identities; entry/exit bookkeeping is rebuilt by CircuitDag.
    let mut sub = Circuit::new(dag.num_qubits());
    for &g in gates {
        let node = dag.gate_node(g);
        let qubits = dag.qubits_of(node).to_vec();
        // The gate kind is irrelevant for partitioning; only the qubit set
        // matters. A placeholder multi-qubit structure must preserve arity,
        // so rebuild from the original circuit via the DAG's qubit list with
        // a neutral gate of matching arity.
        match qubits.len() {
            1 => {
                sub.add(hisvsim_circuit::GateKind::I, &qubits);
            }
            2 => {
                sub.add(hisvsim_circuit::GateKind::Cz, &qubits);
            }
            3 => {
                sub.add(hisvsim_circuit::GateKind::Ccx, &qubits);
            }
            other => panic!("unsupported arity {other} in sub-DAG construction"),
        }
    }
    CircuitDag::from_circuit(&sub)
}

/// The two-level partitioner: dagP at both levels.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelPartitioner;

impl MultilevelPartitioner {
    /// Partition `dag` with a first-level limit (`first_limit`, e.g. the
    /// distributed engine's local qubit count) and a second-level limit
    /// (`second_limit`, e.g. the number of qubits whose state fits in LLC).
    pub fn partition(
        &self,
        dag: &CircuitDag,
        first_limit: usize,
        second_limit: usize,
    ) -> Result<MultilevelPartition, PartitionBuildError> {
        assert!(
            second_limit <= first_limit,
            "second-level limit {second_limit} must not exceed first-level limit {first_limit}"
        );
        let partitioner = DagPPartitioner::default();
        let first = partitioner.partition(dag, first_limit)?;
        let mut second = Vec::with_capacity(first.num_parts());
        for gates in first.gates_by_part() {
            let sub = sub_circuit_dag(dag, &gates);
            let sub_ws = sub.working_set_of_gates(&(0..gates.len()).collect::<Vec<_>>());
            let sub_partition = if sub_ws.len() <= second_limit {
                // Already cache-resident: identity second level.
                Partition::single_part(gates.len())
            } else {
                partitioner.partition(&sub, second_limit)?
            };
            second.push((gates, sub_partition));
        }
        Ok(MultilevelPartition {
            first_limit,
            second_limit,
            first,
            second,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;

    #[test]
    fn two_level_partition_respects_both_limits() {
        let c = generators::by_name("qft", 12);
        let dag = CircuitDag::from_circuit(&c);
        let ml = MultilevelPartitioner.partition(&dag, 8, 4).unwrap();
        // First level obeys the first limit.
        assert!(ml.first.max_working_set(&dag) <= 8);
        // Each second-level part obeys the second limit.
        for (p, (gates, _)) in ml.second.iter().enumerate() {
            for list in ml.second_level_gate_lists(&dag, p) {
                let ws = dag.working_set_of_gates(&list);
                assert!(
                    ws.len() <= 4,
                    "second-level part of first-level part {p} touches {} qubits",
                    ws.len()
                );
                assert!(!list.is_empty());
            }
            assert!(!gates.is_empty());
        }
    }

    #[test]
    fn second_level_lists_cover_each_first_level_part_exactly() {
        let c = generators::by_name("qaoa", 10);
        let dag = CircuitDag::from_circuit(&c);
        let ml = MultilevelPartitioner.partition(&dag, 7, 3).unwrap();
        for (p, (gates, _)) in ml.second.iter().enumerate() {
            let mut covered: Vec<usize> = ml
                .second_level_gate_lists(&dag, p)
                .into_iter()
                .flatten()
                .collect();
            covered.sort_unstable();
            let mut expected = gates.clone();
            expected.sort_unstable();
            assert_eq!(covered, expected, "first-level part {p} coverage mismatch");
        }
    }

    #[test]
    fn degenerate_when_second_limit_equals_first() {
        let c = generators::by_name("bv", 10);
        let dag = CircuitDag::from_circuit(&c);
        let ml = MultilevelPartitioner.partition(&dag, 6, 6).unwrap();
        assert!(ml.is_degenerate());
        assert_eq!(ml.total_second_level_parts(), ml.num_first_level_parts());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn second_limit_above_first_is_rejected() {
        let c = generators::cat_state(6);
        let dag = CircuitDag::from_circuit(&c);
        let _ = MultilevelPartitioner.partition(&dag, 3, 5);
    }

    #[test]
    fn multilevel_counts_are_consistent() {
        let c = generators::by_name("qpe", 12);
        let dag = CircuitDag::from_circuit(&c);
        let ml = MultilevelPartitioner.partition(&dag, 9, 5).unwrap();
        assert_eq!(ml.num_first_level_parts(), ml.second.len());
        assert!(ml.total_second_level_parts() >= ml.num_first_level_parts());
    }
}
