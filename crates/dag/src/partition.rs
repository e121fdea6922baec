//! Partition data structures shared by the partitioning strategies and the
//! simulation engines: the per-gate part assignment, the quotient
//! *part-graph*, and the validation rules of Sec. IV-A (working-set limit,
//! acyclicity, complete coverage).

use crate::dag::{CircuitDag, NodeKind, QubitSet};
use serde::{Deserialize, Serialize};

/// An assignment of every gate of a circuit to a part.
///
/// Parts are numbered `0..num_parts`; part ids carry no execution-order
/// meaning on their own — the execution order is the topological order of the
/// [`PartGraph`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    part_of_gate: Vec<usize>,
    num_parts: usize,
}

/// Why a partition is not valid for hierarchical execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The assignment length does not match the circuit's gate count.
    WrongLength {
        /// Gates in the circuit.
        expected: usize,
        /// Entries in the assignment.
        got: usize,
    },
    /// A part id has no gates assigned to it.
    EmptyPart(usize),
    /// A part's working set exceeds the limit.
    WorkingSetExceeded {
        /// The offending part.
        part: usize,
        /// Its working-set size.
        size: usize,
        /// The allowed maximum.
        limit: usize,
    },
    /// The quotient graph has a cycle between the two given parts.
    Cyclic(usize, usize),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::WrongLength { expected, got } => {
                write!(f, "assignment covers {got} gates, circuit has {expected}")
            }
            PartitionError::EmptyPart(p) => write!(f, "part {p} is empty"),
            PartitionError::WorkingSetExceeded { part, size, limit } => {
                write!(f, "part {part} touches {size} qubits, limit is {limit}")
            }
            PartitionError::Cyclic(a, b) => {
                write!(f, "parts {a} and {b} depend on each other (cycle)")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partition {
    /// Build a partition from a per-gate part id vector. Part ids are
    /// renumbered densely (0..k) preserving relative order of first
    /// appearance, so callers may use sparse ids.
    pub fn from_gate_assignment(part_of_gate: Vec<usize>) -> Self {
        let mut remap: std::collections::HashMap<usize, usize> = Default::default();
        let mut dense = Vec::with_capacity(part_of_gate.len());
        for &p in &part_of_gate {
            let next = remap.len();
            let id = *remap.entry(p).or_insert(next);
            dense.push(id);
        }
        let num_parts = remap.len();
        Self {
            part_of_gate: dense,
            num_parts,
        }
    }

    /// The single-part partition (every gate in part 0) — what a
    /// non-hierarchical simulator effectively uses.
    pub fn single_part(num_gates: usize) -> Self {
        Self {
            part_of_gate: vec![0; num_gates],
            num_parts: if num_gates == 0 { 0 } else { 1 },
        }
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of gates covered.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.part_of_gate.len()
    }

    /// Part id of a gate (by its index in the circuit's gate list).
    #[inline]
    pub fn part_of(&self, gate_index: usize) -> usize {
        self.part_of_gate[gate_index]
    }

    /// The raw per-gate assignment.
    #[inline]
    pub fn assignment(&self) -> &[usize] {
        &self.part_of_gate
    }

    /// Gate indices of each part, each list in ascending circuit order (the
    /// order gates of a part are executed in, per Sec. IV-A: "executed with
    /// respect to the original order among those in the same part").
    pub fn gates_by_part(&self) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); self.num_parts];
        for (gate, &p) in self.part_of_gate.iter().enumerate() {
            parts[p].push(gate);
        }
        parts
    }

    /// Working set (distinct qubits) of each part, from one pass over the
    /// gates.
    pub fn working_sets(&self, dag: &CircuitDag) -> Vec<QubitSet> {
        let mut sets = vec![QubitSet::new(dag.num_qubits()); self.num_parts];
        for (gate, &p) in self.part_of_gate.iter().enumerate() {
            sets[p].extend(dag.qubits_of(dag.gate_node(gate)));
        }
        sets
    }

    /// Largest working-set size over all parts.
    pub fn max_working_set(&self, dag: &CircuitDag) -> usize {
        let sets = self.working_sets(dag);
        sets.iter().map(QubitSet::len).max().unwrap_or(0)
    }

    /// Validate the partition against the paper's three conditions: complete
    /// coverage, working-set limit, and acyclicity of the quotient graph.
    /// Returns the parts in a valid execution (topological) order on success.
    pub fn validate(&self, dag: &CircuitDag, limit: usize) -> Result<Vec<usize>, PartitionError> {
        if self.part_of_gate.len() != dag.num_gate_nodes() {
            return Err(PartitionError::WrongLength {
                expected: dag.num_gate_nodes(),
                got: self.part_of_gate.len(),
            });
        }
        // Every gate touches a qubit, so a part with no qubits has no gates.
        for (p, ws) in self.working_sets(dag).iter().enumerate() {
            if ws.is_empty() {
                return Err(PartitionError::EmptyPart(p));
            }
            if ws.len() > limit {
                return Err(PartitionError::WorkingSetExceeded {
                    part: p,
                    size: ws.len(),
                    limit,
                });
            }
        }
        let graph = PartGraph::build(dag, self);
        graph.topological_order().ok_or_else(|| {
            graph
                .find_cycle_pair()
                .map_or(PartitionError::Cyclic(0, 0), |(a, b)| {
                    PartitionError::Cyclic(a, b)
                })
        })
    }

    /// The parts in execution order, panicking if the partition is cyclic.
    /// Prefer [`Partition::validate`] when the partition is untrusted.
    pub fn execution_order(&self, dag: &CircuitDag) -> Vec<usize> {
        PartGraph::build(dag, self)
            .topological_order()
            .expect("partition quotient graph has a cycle")
    }
}

/// The quotient graph of a partition: one vertex per part, one weighted edge
/// per ordered pair of parts connected by at least one DAG edge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartGraph {
    num_parts: usize,
    /// Adjacency: `succ[p]` lists `(q, weight)` with `weight` = number of DAG
    /// edges from part `p` to part `q` (the contribution to the edge cut).
    succ: Vec<Vec<(usize, usize)>>,
    pred_count: Vec<usize>,
    /// Total number of DAG edges crossing between two distinct parts.
    edge_cut: usize,
}

impl PartGraph {
    /// Build the quotient graph of `partition` over `dag`. Entry/exit
    /// vertices are ignored (they belong to no part).
    pub fn build(dag: &CircuitDag, partition: &Partition) -> Self {
        let k = partition.num_parts();
        // One entry per DAG edge between two parts, sorted so each run is
        // one quotient edge and each part's successors ascend.
        let mut crossing: Vec<(usize, usize)> = Vec::new();
        for gate in 0..partition.num_gates() {
            let from_part = partition.part_of(gate);
            for &(succ, _) in dag.successors(dag.gate_node(gate)) {
                if let NodeKind::Gate(next) = dag.kind(succ) {
                    let to_part = partition.part_of(next);
                    if from_part != to_part {
                        crossing.push((from_part, to_part));
                    }
                }
            }
        }
        crossing.sort_unstable();
        let mut succ = vec![Vec::new(); k];
        let mut pred_count = vec![0usize; k];
        for run in crossing.chunk_by(|a, b| a == b) {
            let (a, b) = run[0];
            succ[a].push((b, run.len()));
            pred_count[b] += 1;
        }
        Self {
            num_parts: k,
            succ,
            pred_count,
            edge_cut: crossing.len(),
        }
    }

    /// Number of parts (vertices of the quotient graph).
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Total weight of edges between distinct parts — the classic acyclic
    /// partitioning objective the paper's dagP variant replaces with
    /// part-count minimisation.
    #[inline]
    pub fn edge_cut(&self) -> usize {
        self.edge_cut
    }

    /// Successor parts of `p` with edge weights.
    #[inline]
    pub fn successors(&self, p: usize) -> &[(usize, usize)] {
        &self.succ[p]
    }

    /// A topological order of the parts, or `None` if the quotient graph has
    /// a cycle (i.e. the partition is not acyclic).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut remaining = self.pred_count.clone();
        let mut queue: std::collections::VecDeque<usize> =
            (0..self.num_parts).filter(|&p| remaining[p] == 0).collect();
        let mut order = Vec::with_capacity(self.num_parts);
        while let Some(p) = queue.pop_front() {
            order.push(p);
            for &(q, _) in &self.succ[p] {
                remaining[q] -= 1;
                if remaining[q] == 0 {
                    queue.push_back(q);
                }
            }
        }
        (order.len() == self.num_parts).then_some(order)
    }

    /// True when the quotient graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Find one pair of parts participating in a cycle, for error reporting.
    pub fn find_cycle_pair(&self) -> Option<(usize, usize)> {
        // Any edge (a, b) where b can also reach a demonstrates a cycle.
        for a in 0..self.num_parts {
            for &(b, _) in &self.succ[a] {
                if self.reaches(b, a) {
                    return Some((a, b));
                }
            }
        }
        None
    }

    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut seen = vec![false; self.num_parts];
        let mut stack = vec![from];
        while let Some(p) = stack.pop() {
            if p == to {
                return true;
            }
            if seen[p] {
                continue;
            }
            seen[p] = true;
            for &(q, _) in &self.succ[p] {
                stack.push(q);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::{generators, Circuit};

    /// The paper's running example (Fig. 2a): H on q0..q3, CX(0,1), CX(2,3),
    /// H + RX on q0,q1 and q2,q3, then CX(1,2) and final H's.
    fn paper_example_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 1).h(0).rx(std::f64::consts::FRAC_PI_2, 1);
        c.h(2).h(3).cx(2, 3).h(2).rx(std::f64::consts::FRAC_PI_2, 3);
        c.cx(1, 2);
        c.h(1).h(2);
        c
    }

    #[test]
    fn single_part_partition_is_valid_with_full_width_limit() {
        let c = paper_example_circuit();
        let dag = CircuitDag::from_circuit(&c);
        let p = Partition::single_part(c.num_gates());
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.validate(&dag, 4).unwrap(), vec![0]);
        assert!(p.validate(&dag, 3).is_err());
    }

    #[test]
    fn three_part_split_of_paper_example_is_acyclic() {
        // Fig. 2b: part 0 = the q0/q1 block, part 1 = the q2/q3 block,
        // part 2 = the final CX(1,2) + H's.
        let c = paper_example_circuit();
        let dag = CircuitDag::from_circuit(&c);
        // gates: 0..5 on q0/q1, 5..10 on q2/q3, 10..13 bridging.
        let mut assign = vec![0usize; c.num_gates()];
        for a in assign.iter_mut().take(10).skip(5) {
            *a = 1;
        }
        for a in assign.iter_mut().skip(10) {
            *a = 2;
        }
        let p = Partition::from_gate_assignment(assign);
        assert_eq!(p.num_parts(), 3);
        let order = p.validate(&dag, 2).unwrap();
        // Part 2 must come after both 0 and 1.
        let pos = |x: usize| order.iter().position(|&p| p == x).unwrap();
        assert!(pos(2) > pos(0));
        assert!(pos(2) > pos(1));
        // Working sets are all exactly 2 qubits.
        let ws = p.working_sets(&dag);
        assert!(ws.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn cyclic_partition_is_rejected() {
        // Two gates on the same qubit in opposite parts, interleaved with a
        // gate of the other part, create a 2-cycle in the quotient graph.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).h(0).h(1);
        let dag = CircuitDag::from_circuit(&c);
        // part 0: gates 0 and 3 (q0 ops), part 1: gates 1, 2, 4.
        let p = Partition::from_gate_assignment(vec![0, 1, 1, 0, 1]);
        match p.validate(&dag, 2) {
            Err(PartitionError::Cyclic(_, _)) => {}
            other => panic!("expected a cycle error, got {other:?}"),
        }
        assert!(!PartGraph::build(&dag, &p).is_acyclic());
    }

    #[test]
    fn working_set_violation_is_reported_with_details() {
        let c = generators::cat_state(6);
        let dag = CircuitDag::from_circuit(&c);
        let p = Partition::single_part(c.num_gates());
        match p.validate(&dag, 3) {
            Err(PartitionError::WorkingSetExceeded {
                part: 0,
                size: 6,
                limit: 3,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn wrong_length_assignment_is_rejected() {
        let c = generators::cat_state(4);
        let dag = CircuitDag::from_circuit(&c);
        let p = Partition::from_gate_assignment(vec![0, 0]);
        assert!(matches!(
            p.validate(&dag, 4),
            Err(PartitionError::WrongLength { .. })
        ));
    }

    #[test]
    fn sparse_part_ids_are_renumbered_densely() {
        let p = Partition::from_gate_assignment(vec![7, 7, 3, 9, 3]);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(2), 1);
        assert_eq!(p.part_of(3), 2);
    }

    #[test]
    fn part_graph_edge_cut_counts_crossing_edges() {
        let c = paper_example_circuit();
        let dag = CircuitDag::from_circuit(&c);
        let mut assign = vec![0usize; c.num_gates()];
        for a in assign.iter_mut().take(10).skip(5) {
            *a = 1;
        }
        for a in assign.iter_mut().skip(10) {
            *a = 2;
        }
        let p = Partition::from_gate_assignment(assign);
        let graph = PartGraph::build(&dag, &p);
        assert!(graph.is_acyclic());
        // Gate 10 (CX 1,2) pulls one edge from part 0 (q1) and one from part
        // 1 (q2); gates 11/12 stay inside part 2.
        assert_eq!(graph.edge_cut(), 2);
    }

    #[test]
    fn execution_order_covers_every_part_once() {
        let c = generators::by_name("qft", 8);
        let dag = CircuitDag::from_circuit(&c);
        // Chop the natural order into chunks of 10 gates.
        let assign: Vec<usize> = (0..c.num_gates()).map(|i| i / 10).collect();
        let p = Partition::from_gate_assignment(assign);
        let order = p.execution_order(&dag);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..p.num_parts()).collect::<Vec<_>>());
    }
}
