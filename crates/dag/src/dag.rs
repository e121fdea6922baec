//! The directed-acyclic-graph representation of a quantum circuit.
//!
//! Following Sec. IV-A of the paper: every computational gate is a vertex; in
//! addition each qubit gets an artificial *entry* vertex (no predecessors,
//! one successor — the first gate that touches the qubit) and an *exit*
//! vertex (no successors, one predecessor). Edges carry the qubit they
//! transport, so for every gate the total incoming edge weight equals the
//! outgoing edge weight and equals the number of qubits the gate touches.
//! Because a qubit is input to at most one gate at a time, each qubit can be
//! traced as a path from its entry vertex to its exit vertex.

use hisvsim_circuit::{Circuit, Qubit};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of a vertex in a [`CircuitDag`] (index into the node arrays).
pub type NodeId = usize;

/// What a DAG vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Artificial source vertex initialising a qubit.
    Entry(Qubit),
    /// Artificial sink vertex consuming a qubit.
    Exit(Qubit),
    /// A computational gate; the payload is the gate's index in the source
    /// circuit's gate list.
    Gate(usize),
}

impl NodeKind {
    /// True for entry/exit vertices (which carry no computation).
    pub fn is_artificial(&self) -> bool {
        !matches!(self, NodeKind::Gate(_))
    }
}

/// A directed edge, labelled with the qubit it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source vertex.
    pub from: NodeId,
    /// Destination vertex.
    pub to: NodeId,
    /// The qubit whose dependency this edge represents.
    pub qubit: Qubit,
}

/// The DAG of a circuit: gate vertices plus per-qubit entry/exit vertices,
/// with qubit-labelled dependency edges.
///
/// Vertices are laid out entries `[0, n)`, gates `[n, n + g)` (gate `i` at
/// `n + i`), exits `[n + g, 2n + g)`. Each vertex's qubits, successor and
/// predecessor edges are one range of a flat array, `start[v]..start[v + 1]`
/// of the matching offsets, so the whole graph is a handful of allocations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CircuitDag {
    num_qubits: usize,
    num_gates: usize,
    kinds: Vec<NodeKind>,
    /// The qubits each vertex touches (entry/exit touch exactly one).
    node_qubits: Vec<Qubit>,
    qubit_start: Vec<usize>,
    succs: Vec<(NodeId, Qubit)>,
    succ_start: Vec<usize>,
    preds: Vec<(NodeId, Qubit)>,
    pred_start: Vec<usize>,
}

impl CircuitDag {
    /// Build the DAG of a circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let g = circuit.num_gates();
        let total = n + g + n;
        let mut kinds = Vec::with_capacity(total);
        kinds.extend((0..n).map(NodeKind::Entry));
        kinds.extend((0..g).map(NodeKind::Gate));
        kinds.extend((0..n).map(NodeKind::Exit));
        let mut qubit_start = Vec::with_capacity(total + 1);
        qubit_start.push(0);
        for node in 0..total {
            let arity = match node.checked_sub(n).filter(|&gate| gate < g) {
                Some(gate) => circuit.gates()[gate].arity(),
                None => 1,
            };
            qubit_start.push(qubit_start[node] + arity);
        }
        // Every vertex has one edge out per qubit but an exit (the last
        // vertices), and one edge in per qubit but an entry (the first).
        let succ_start: Vec<usize> = (0..=total).map(|v| qubit_start[v.min(n + g)]).collect();
        let pred_start: Vec<usize> = (0..=total).map(|v| qubit_start[v.max(n)] - n).collect();
        let mut node_qubits = Vec::with_capacity(qubit_start[total]);
        node_qubits.extend(0..n);
        for gate in circuit.gates() {
            node_qubits.extend(&gate.qubits);
        }
        node_qubits.extend(0..n);

        // Trace each qubit through the gates: last[q] is the vertex that
        // most recently emitted qubit q. Edges fill each vertex's range in
        // the order they are found.
        let mut succs = vec![(0, 0); succ_start[total]];
        let mut preds = vec![(0, 0); pred_start[total]];
        let mut succ_fill = succ_start[..total].to_vec();
        let mut pred_fill = pred_start[..total].to_vec();
        let mut edge = |from: NodeId, to: NodeId, q: Qubit| {
            succs[succ_fill[from]] = (to, q);
            succ_fill[from] += 1;
            preds[pred_fill[to]] = (from, q);
            pred_fill[to] += 1;
        };
        let mut last: Vec<NodeId> = (0..n).collect();
        for (i, gate) in circuit.gates().iter().enumerate() {
            for &q in &gate.qubits {
                edge(last[q], n + i, q);
                last[q] = n + i;
            }
        }
        for (q, &from) in last.iter().enumerate() {
            edge(from, n + g + q, q);
        }

        Self {
            num_qubits: n,
            num_gates: g,
            kinds,
            node_qubits,
            qubit_start,
            succs,
            succ_start,
            preds,
            pred_start,
        }
    }

    /// Number of qubits of the underlying circuit.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of vertices (gates + 2 × qubits).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of computational gate vertices.
    #[inline]
    pub fn num_gate_nodes(&self) -> usize {
        self.num_gates
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.succs.len()
    }

    /// The kind of a vertex.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node]
    }

    /// The qubits a vertex touches.
    #[inline]
    pub fn qubits_of(&self, node: NodeId) -> &[Qubit] {
        &self.node_qubits[self.qubit_start[node]..self.qubit_start[node + 1]]
    }

    /// Successor edges of a vertex, as `(successor, qubit)` pairs.
    #[inline]
    pub fn successors(&self, node: NodeId) -> &[(NodeId, Qubit)] {
        &self.succs[self.succ_start[node]..self.succ_start[node + 1]]
    }

    /// Predecessor edges of a vertex, as `(predecessor, qubit)` pairs.
    #[inline]
    pub fn predecessors(&self, node: NodeId) -> &[(NodeId, Qubit)] {
        &self.preds[self.pred_start[node]..self.pred_start[node + 1]]
    }

    /// Node id of gate `gate_index`.
    #[inline]
    pub fn gate_node(&self, gate_index: usize) -> NodeId {
        debug_assert!(gate_index < self.num_gates);
        self.num_qubits + gate_index
    }

    /// Node id of qubit `q`'s entry vertex.
    #[inline]
    pub fn entry_node(&self, q: Qubit) -> NodeId {
        debug_assert!(q < self.num_qubits);
        q
    }

    /// Node id of qubit `q`'s exit vertex.
    #[inline]
    pub fn exit_node(&self, q: Qubit) -> NodeId {
        debug_assert!(q < self.num_qubits);
        self.num_qubits + self.num_gates + q
    }

    /// The gate index of a gate vertex, or `None` for entry/exit vertices.
    #[inline]
    pub fn gate_index(&self, node: NodeId) -> Option<usize> {
        match self.kinds[node] {
            NodeKind::Gate(i) => Some(i),
            _ => None,
        }
    }

    /// All edges of the DAG.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges());
        for from in 0..self.num_nodes() {
            for &(to, qubit) in self.successors(from) {
                out.push(Edge { from, to, qubit });
            }
        }
        out
    }

    /// The working set (distinct qubits) of a set of vertices — the paper's
    /// `L(V_i)`.
    pub fn working_set(&self, nodes: &[NodeId]) -> BTreeSet<Qubit> {
        let mut set = BTreeSet::new();
        for &node in nodes {
            set.extend(self.qubits_of(node));
        }
        set
    }

    /// The working set of a set of *gate indices* (circuit positions).
    pub fn working_set_of_gates(&self, gate_indices: &[usize]) -> BTreeSet<Qubit> {
        let nodes: Vec<NodeId> = gate_indices.iter().map(|&g| self.gate_node(g)).collect();
        self.working_set(&nodes)
    }

    /// The gate vertices in natural (circuit) order.
    pub fn natural_gate_order(&self) -> Vec<NodeId> {
        (0..self.num_gates).map(|g| self.gate_node(g)).collect()
    }

    /// A random DFS-based topological order of the *gate* vertices.
    ///
    /// The order is a valid topological order of the gate-dependency DAG:
    /// a gate appears only after all of its gate predecessors. Different
    /// seeds explore different tie-breaking choices, which is what the DFS
    /// partitioning strategy samples over.
    pub fn random_dfs_gate_order(&self, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = self.num_nodes();
        let mut remaining_preds: Vec<usize> =
            (0..total).map(|v| self.predecessors(v).len()).collect();
        // Ready stack seeded with the entry vertices, shuffled.
        let mut ready: Vec<NodeId> = (0..total).filter(|&v| remaining_preds[v] == 0).collect();
        ready.shuffle(&mut rng);
        let mut order = Vec::with_capacity(self.num_gate_nodes());
        let mut visited = 0usize;
        while let Some(node) = ready.pop() {
            visited += 1;
            if matches!(self.kinds[node], NodeKind::Gate(_)) {
                order.push(node);
            }
            // Collect newly-ready successors, then push them in random order
            // (DFS flavour: pushed on top of the stack).
            let mut newly_ready: Vec<NodeId> = Vec::new();
            for &(succ, _) in self.successors(node) {
                remaining_preds[succ] -= 1;
                if remaining_preds[succ] == 0 {
                    newly_ready.push(succ);
                }
            }
            newly_ready.shuffle(&mut rng);
            ready.extend(newly_ready);
        }
        assert_eq!(visited, total, "circuit DAG contains a cycle (impossible)");
        order
    }

    /// Check that a sequence of gate vertices is a valid topological order of
    /// the gate-dependency relation (every gate appears after all gate
    /// predecessors) and covers every gate exactly once.
    pub fn is_valid_gate_order(&self, order: &[NodeId]) -> bool {
        if order.len() != self.num_gate_nodes() {
            return false;
        }
        let mut position = vec![usize::MAX; self.num_nodes()];
        for (pos, &node) in order.iter().enumerate() {
            if self.gate_index(node).is_none() || position[node] != usize::MAX {
                return false;
            }
            position[node] = pos;
        }
        for &node in order {
            for &(pred, _) in self.predecessors(node) {
                if let NodeKind::Gate(_) = self.kinds[pred] {
                    if position[pred] == usize::MAX || position[pred] > position[node] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Longest path length (in gate vertices) from any entry to any exit —
    /// the DAG's critical path, equal to the circuit depth.
    pub fn critical_path_length(&self) -> usize {
        let mut longest = vec![0usize; self.num_nodes()];
        // Process in node-id order is not topological in general; do a
        // Kahn-style pass instead.
        let mut remaining: Vec<usize> = (0..self.num_nodes())
            .map(|v| self.predecessors(v).len())
            .collect();
        let mut queue: std::collections::VecDeque<NodeId> = (0..self.num_nodes())
            .filter(|&v| remaining[v] == 0)
            .collect();
        let mut best = 0;
        while let Some(node) = queue.pop_front() {
            let weight = usize::from(!self.kinds[node].is_artificial());
            let here = longest[node] + weight;
            best = best.max(here);
            for &(succ, _) in self.successors(node) {
                longest[succ] = longest[succ].max(here);
                remaining[succ] -= 1;
                if remaining[succ] == 0 {
                    queue.push_back(succ);
                }
            }
        }
        best
    }
}

/// A set of qubits as a bitset, with its size kept: the working set of a
/// part, a cluster or a subset, whose size and overlaps are popcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitSet {
    words: Vec<u64>,
    len: usize,
}

impl QubitSet {
    /// The empty set over qubits `0..num_qubits`.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            words: vec![0; num_qubits.div_ceil(64)],
            len: 0,
        }
    }

    /// The working set of `nodes`.
    pub fn of(dag: &CircuitDag, nodes: &[NodeId]) -> Self {
        let mut set = Self::new(dag.num_qubits());
        for &n in nodes {
            set.extend(dag.qubits_of(n));
        }
        set
    }

    /// Number of qubits in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no qubit.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empty the set.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Whether qubit `q` is in the set.
    #[inline]
    pub fn contains(&self, q: Qubit) -> bool {
        self.words[q / 64] >> (q % 64) & 1 == 1
    }

    /// Add `qubits` to the set.
    pub fn extend(&mut self, qubits: &[Qubit]) {
        for &q in qubits {
            let bit = 1u64 << (q % 64);
            let word = &mut self.words[q / 64];
            if *word & bit == 0 {
                *word |= bit;
                self.len += 1;
            }
        }
    }

    /// `|self ∪ other|` and `|self ∩ other|`.
    pub fn union_and_overlap(&self, other: &Self) -> (usize, usize) {
        self.words
            .iter()
            .zip(&other.words)
            .fold((0, 0), |(u, i), (a, b)| {
                (
                    u + (a | b).count_ones() as usize,
                    i + (a & b).count_ones() as usize,
                )
            })
    }

    /// The qubits, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Qubit> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;

    fn bell_dag() -> (Circuit, CircuitDag) {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        (c, dag)
    }

    #[test]
    fn node_counts_include_entries_and_exits() {
        let (c, dag) = bell_dag();
        assert_eq!(dag.num_nodes(), c.num_gates() + 2 * c.num_qubits());
        assert_eq!(dag.num_gate_nodes(), 2);
        assert_eq!(dag.num_qubits(), 2);
    }

    #[test]
    fn entry_and_exit_degree_constraints() {
        // Paper: entry gates have no predecessor and one successor; exit
        // gates have no successor and one predecessor.
        let c = generators::by_name("qft", 6);
        let dag = CircuitDag::from_circuit(&c);
        for q in 0..6 {
            assert!(dag.predecessors(dag.entry_node(q)).is_empty());
            assert_eq!(dag.successors(dag.entry_node(q)).len(), 1);
            assert!(dag.successors(dag.exit_node(q)).is_empty());
            assert_eq!(dag.predecessors(dag.exit_node(q)).len(), 1);
        }
    }

    #[test]
    fn gate_in_degree_equals_out_degree_equals_arity() {
        let c = generators::by_name("adder", 10);
        let dag = CircuitDag::from_circuit(&c);
        for (i, gate) in c.gates().iter().enumerate() {
            let node = dag.gate_node(i);
            assert_eq!(dag.predecessors(node).len(), gate.arity(), "gate {i}");
            assert_eq!(dag.successors(node).len(), gate.arity(), "gate {i}");
        }
    }

    #[test]
    fn each_qubit_traces_a_path() {
        let c = generators::by_name("ising", 6);
        let dag = CircuitDag::from_circuit(&c);
        for q in 0..6 {
            // Walk from the entry following edges labelled q; we must reach
            // the exit and visit exactly the gates touching q.
            let mut node = dag.entry_node(q);
            let mut gates_on_path = 0usize;
            loop {
                let next = dag
                    .successors(node)
                    .iter()
                    .find(|&&(_, label)| label == q)
                    .map(|&(n, _)| n);
                match next {
                    Some(n) => {
                        if dag.gate_index(n).is_some() {
                            gates_on_path += 1;
                        }
                        node = n;
                    }
                    None => break,
                }
            }
            assert_eq!(
                node,
                dag.exit_node(q),
                "qubit {q} path does not end at exit"
            );
            let expected = c.gates().iter().filter(|g| g.qubits.contains(&q)).count();
            assert_eq!(gates_on_path, expected, "qubit {q} path misses gates");
        }
    }

    #[test]
    fn edge_count_matches_sum_of_arities_plus_entries() {
        let c = generators::by_name("qaoa", 8);
        let dag = CircuitDag::from_circuit(&c);
        // Each gate has arity in-edges; each exit has 1 in-edge.
        let expected: usize = c.gates().iter().map(|g| g.arity()).sum::<usize>() + c.num_qubits();
        assert_eq!(dag.num_edges(), expected);
    }

    #[test]
    fn natural_order_is_valid() {
        let c = generators::by_name("grover", 9);
        let dag = CircuitDag::from_circuit(&c);
        assert!(dag.is_valid_gate_order(&dag.natural_gate_order()));
    }

    #[test]
    fn random_dfs_orders_are_valid_and_seed_dependent() {
        let c = generators::by_name("qft", 8);
        let dag = CircuitDag::from_circuit(&c);
        let o1 = dag.random_dfs_gate_order(1);
        let o2 = dag.random_dfs_gate_order(2);
        let o1_again = dag.random_dfs_gate_order(1);
        assert!(dag.is_valid_gate_order(&o1));
        assert!(dag.is_valid_gate_order(&o2));
        assert_eq!(o1, o1_again, "same seed must give the same order");
        assert_ne!(o1, o2, "different seeds should explore different orders");
    }

    #[test]
    fn invalid_orders_are_rejected() {
        let (_, dag) = bell_dag();
        let natural = dag.natural_gate_order();
        // Reversed order puts CX before its H predecessor.
        let reversed: Vec<NodeId> = natural.iter().rev().copied().collect();
        assert!(!dag.is_valid_gate_order(&reversed));
        // Truncated order does not cover all gates.
        assert!(!dag.is_valid_gate_order(&natural[..1]));
        // Entry vertices are not gate vertices.
        assert!(!dag.is_valid_gate_order(&[dag.entry_node(0), dag.entry_node(1)]));
    }

    #[test]
    fn working_set_counts_distinct_qubits() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).h(3);
        let dag = CircuitDag::from_circuit(&c);
        // Paper example: gate A on {q0,q1}, gate B on {q0,q2} -> L = 3.
        let ws = dag.working_set_of_gates(&[0, 1]);
        assert_eq!(ws.len(), 3);
        let all = dag.working_set_of_gates(&[0, 1, 2]);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn qubit_sets_count_iterate_and_overlap_across_words() {
        let mut a = QubitSet::new(130);
        a.extend(&[129, 3, 64, 3, 0]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 3, 64, 129]);
        assert!(a.contains(64) && !a.contains(63));
        let mut b = QubitSet::new(130);
        b.extend(&[64, 65]);
        assert_eq!(a.union_and_overlap(&b), (5, 1));
        a.clear();
        assert!(a.is_empty() && a.iter().next().is_none());
    }

    #[test]
    fn critical_path_equals_circuit_depth() {
        for name in ["qft", "ising", "adder", "bv"] {
            let c = generators::by_name(name, 8);
            let dag = CircuitDag::from_circuit(&c);
            assert_eq!(dag.critical_path_length(), c.depth(), "{name}");
        }
    }

    #[test]
    fn empty_circuit_dag_has_only_entries_and_exits() {
        let c = Circuit::new(3);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.num_gate_nodes(), 0);
        assert_eq!(dag.num_nodes(), 6);
        // Each entry connects straight to its exit.
        for q in 0..3 {
            assert_eq!(dag.successors(dag.entry_node(q))[0].0, dag.exit_node(q));
        }
    }
}
