//! DAG-driven fusion grouping: cover the gate-dependency DAG with a minimal
//! sequence of executable clusters ("fusion groups").
//!
//! A program-order scanner can only merge gates that sit within a bounded
//! reordering distance of each other. Deep interleaved circuits — the
//! `random` benchmark family — bury mergeable gates hundreds of positions
//! apart, where no window reaches. The dependency DAG makes those merges
//! visible structurally: two gates with no path between them form an
//! **antichain** and commute by construction (a shared qubit would have
//! created an edge), so no matrix commutation check is ever needed.
//!
//! [`antichain_fusion_groups`] grows groups greedily along the Kahn ready
//! frontier: a group absorbs any *ready* gate (all dependency predecessors
//! already grouped) that fits its qubit-width cap and the caller's
//! per-amplitude cost allowance. Because a gate only ever joins after all
//! its predecessors are in earlier groups or in the same group, the emitted
//! group sequence is a valid topological linearization of the DAG — the
//! property that makes executing the groups in order equivalent to the
//! original circuit.
//!
//! The module is deliberately free of any matrix or cost-model knowledge:
//! the caller describes each gate with a [`GateClass`] (is it diagonal, and
//! how much widening cost its standalone execution would justify), and the
//! algorithm stays a pure graph covering.

use crate::dag::{CircuitDag, NodeId};
use hisvsim_circuit::Qubit;
use std::collections::BTreeSet;

/// What the grouping needs to know about one gate: whether it is diagonal
/// (diagonal runs have no width limit and never mix amplitudes) and the
/// per-amplitude cost its standalone kernel would pay — the allowance a
/// dense group may spend on widening to absorb it.
#[derive(Debug, Clone, Copy)]
pub struct GateClass {
    /// True when the gate's matrix is diagonal in the computational basis.
    pub diagonal: bool,
    /// Per-amplitude cost of executing the gate through its own specialised
    /// kernel. A dense group absorbs the gate only when the extra
    /// arithmetic the widened group pays per amplitude does not exceed
    /// this.
    pub widen_allowance: f64,
}

/// One fusion group: a set of gates with no unresolved dependencies between
/// them and anything outside earlier groups.
#[derive(Debug, Clone)]
pub struct FusionGroup {
    /// Gate indices in a dependency-valid relative order (the order they
    /// joined the group; a gate joins only after every predecessor inside
    /// the group).
    pub gates: Vec<usize>,
    /// The qubit union of the group, in first-touch order.
    pub qubits: Vec<Qubit>,
    /// Whether this is a diagonal run (unlimited width) rather than a dense
    /// group (width-capped).
    pub diagonal: bool,
}

impl FusionGroup {
    /// Number of gates absorbed.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the group holds no gates (never produced by the grouper,
    /// provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// Grow fusion groups along the DAG's ready frontier (antichains of the
/// dependency relation).
///
/// `classes[i]` describes gate `i` of the circuit the DAG was built from;
/// `max_width` caps the qubit union of dense groups (diagonal runs are
/// width-free). A non-diagonal gate wider than `max_width` is emitted as a
/// group of its own.
///
/// Guarantees, for any input:
///
/// * every gate appears in exactly one group;
/// * concatenating the groups yields a valid topological order of the
///   gate-dependency DAG ([`CircuitDag::is_valid_gate_order`]);
/// * every non-diagonal group's qubit union is at most
///   `max_width.max(arity of its single oversized gate)`;
/// * the result is deterministic (ties broken by ascending gate index).
pub fn antichain_fusion_groups(
    dag: &CircuitDag,
    classes: &[GateClass],
    max_width: usize,
) -> Vec<FusionGroup> {
    assert!(max_width >= 1, "fusion width must be at least 1");
    assert_eq!(
        classes.len(),
        dag.num_gate_nodes(),
        "one GateClass per gate required"
    );
    let total = dag.num_nodes();
    let mut indegree: Vec<usize> = (0..total).map(|v| dag.predecessors(v).len()).collect();
    // Gates whose dependency predecessors are all grouped already (or are
    // artificial entry vertices), ordered by gate index for determinism.
    let mut ready: BTreeSet<usize> = BTreeSet::new();

    // Completing a vertex releases its successors; artificial vertices
    // (entries, exits) complete transparently.
    fn complete(
        dag: &CircuitDag,
        node: NodeId,
        indegree: &mut [usize],
        ready: &mut BTreeSet<usize>,
    ) {
        for &(succ, _) in dag.successors(node) {
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                match dag.gate_index(succ) {
                    Some(gate) => {
                        ready.insert(gate);
                    }
                    // An exit vertex has no successors; nothing to release.
                    None => complete(dag, succ, indegree, ready),
                }
            }
        }
    }

    // Seed: every zero-indegree vertex (the entries; for an empty circuit
    // also the exits, which complete transparently).
    for node in 0..total {
        if indegree[node] == 0 {
            match dag.gate_index(node) {
                Some(gate) => {
                    ready.insert(gate);
                }
                None => complete(dag, node, &mut indegree, &mut ready),
            }
        }
    }

    let mut groups: Vec<FusionGroup> = Vec::new();
    while let Some(&seed) = ready.iter().next() {
        ready.remove(&seed);
        let seed_qubits = dag.qubits_of(dag.gate_node(seed)).to_vec();
        let diagonal = classes[seed].diagonal;
        let mut group = FusionGroup {
            gates: vec![seed],
            qubits: seed_qubits,
            diagonal,
        };
        complete(dag, dag.gate_node(seed), &mut indegree, &mut ready);

        // An oversized non-diagonal gate travels alone.
        if !diagonal && group.qubits.len() > max_width {
            groups.push(group);
            continue;
        }

        // Grow to a (greedy) maximal group: scan the ready frontier in
        // ascending gate index for the first absorbable gate; absorbing it
        // may release successors into the frontier, so rescan until a full
        // pass absorbs nothing.
        loop {
            let candidate = ready
                .iter()
                .copied()
                .find(|&gate| can_join(&group, dag, classes, gate, max_width));
            let Some(gate) = candidate else { break };
            ready.remove(&gate);
            for &q in dag.qubits_of(dag.gate_node(gate)) {
                if !group.qubits.contains(&q) {
                    group.qubits.push(q);
                }
            }
            group.gates.push(gate);
            complete(dag, dag.gate_node(gate), &mut indegree, &mut ready);
        }
        groups.push(group);
    }

    debug_assert_eq!(
        groups.iter().map(FusionGroup::len).sum::<usize>(),
        dag.num_gate_nodes(),
        "every gate must be grouped exactly once"
    );
    groups
}

/// Whether a ready `gate` may be absorbed by `group` under the width cap
/// and the caller's cost allowance: diagonal runs absorb any diagonal gate;
/// a dense group absorbs a diagonal gate only when it adds no qubits (the
/// matrix product keeps its dimension), and a non-diagonal gate only when
/// the widened kernel's extra per-amplitude arithmetic
/// (`2^union − 2^current`) stays within the gate's standalone cost.
fn can_join(
    group: &FusionGroup,
    dag: &CircuitDag,
    classes: &[GateClass],
    gate: usize,
    max_width: usize,
) -> bool {
    let class = &classes[gate];
    let gate_qubits = dag.qubits_of(dag.gate_node(gate));
    if group.diagonal {
        return class.diagonal;
    }
    if class.diagonal {
        return gate_qubits.iter().all(|q| group.qubits.contains(q));
    }
    let extra = gate_qubits
        .iter()
        .filter(|q| !group.qubits.contains(q))
        .count();
    let union = group.qubits.len() + extra;
    if union > max_width {
        return false;
    }
    let widen_cost = ((1u64 << union) - (1u64 << group.qubits.len())) as f64;
    widen_cost <= class.widen_allowance
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::{generators, Circuit};

    /// A class table mimicking the statevec cost model closely enough for
    /// structural tests: diagonal flags from the gate kind, a flat widening
    /// allowance for everything else.
    fn classes_of(circuit: &Circuit) -> Vec<GateClass> {
        circuit
            .gates()
            .iter()
            .map(|g| GateClass {
                diagonal: g.kind.is_diagonal(),
                widen_allowance: 4.0,
            })
            .collect()
    }

    fn flatten_to_nodes(dag: &CircuitDag, groups: &[FusionGroup]) -> Vec<NodeId> {
        groups
            .iter()
            .flat_map(|g| g.gates.iter().map(|&i| dag.gate_node(i)))
            .collect()
    }

    #[test]
    fn group_order_is_a_valid_linearization_across_families() {
        for name in ["qft", "qaoa", "adder", "ising", "grover"] {
            let circuit = generators::by_name(name, 9);
            let dag = CircuitDag::from_circuit(&circuit);
            for width in [1usize, 2, 3, 5] {
                let groups = antichain_fusion_groups(&dag, &classes_of(&circuit), width);
                assert!(
                    dag.is_valid_gate_order(&flatten_to_nodes(&dag, &groups)),
                    "{name}@width{width}: group order violates dependencies"
                );
            }
        }
    }

    #[test]
    fn random_interleaved_circuits_linearize_and_cover_every_gate() {
        for seed in 0..8 {
            let circuit = generators::random_circuit(8, 90, seed);
            let dag = CircuitDag::from_circuit(&circuit);
            let groups = antichain_fusion_groups(&dag, &classes_of(&circuit), 3);
            assert!(dag.is_valid_gate_order(&flatten_to_nodes(&dag, &groups)));
            let mut seen = vec![false; circuit.num_gates()];
            for group in &groups {
                for &gate in &group.gates {
                    assert!(!seen[gate], "gate {gate} grouped twice (seed {seed})");
                    seen[gate] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "a gate was dropped (seed {seed})");
        }
    }

    #[test]
    fn width_and_cost_caps_are_honored() {
        let circuit = generators::random_circuit(9, 120, 0xCAFE);
        let dag = CircuitDag::from_circuit(&circuit);
        for width in [2usize, 3, 4] {
            for group in antichain_fusion_groups(&dag, &classes_of(&circuit), width) {
                let union = dag
                    .working_set_of_gates(&group.gates)
                    .into_iter()
                    .collect::<Vec<_>>();
                assert_eq!(union.len(), group.qubits.len(), "qubit union mismatch");
                if !group.diagonal {
                    assert!(
                        group.qubits.len() <= width || group.gates.len() == 1,
                        "dense group of {} gates spans {} qubits at width {width}",
                        group.gates.len(),
                        group.qubits.len()
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_groups_hold_only_diagonal_gates() {
        let circuit = generators::random_circuit(7, 80, 7);
        let dag = CircuitDag::from_circuit(&circuit);
        let classes = classes_of(&circuit);
        for group in antichain_fusion_groups(&dag, &classes, 3) {
            if group.diagonal {
                assert!(group.gates.iter().all(|&g| classes[g].diagonal));
            }
        }
    }

    #[test]
    fn empty_and_single_gate_circuits() {
        let empty = Circuit::new(3);
        let dag = CircuitDag::from_circuit(&empty);
        assert!(antichain_fusion_groups(&dag, &[], 3).is_empty());

        let mut one = Circuit::new(2);
        one.h(0);
        let dag = CircuitDag::from_circuit(&one);
        let groups = antichain_fusion_groups(&dag, &classes_of(&one), 3);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].gates, vec![0]);
        assert_eq!(groups[0].qubits, vec![0]);
    }

    #[test]
    fn oversized_gates_travel_alone() {
        let circuit = generators::adder(8); // contains 3-qubit Toffolis
        let dag = CircuitDag::from_circuit(&circuit);
        let groups = antichain_fusion_groups(&dag, &classes_of(&circuit), 2);
        assert!(dag.is_valid_gate_order(&flatten_to_nodes(&dag, &groups)));
        let oversized: Vec<&FusionGroup> = groups
            .iter()
            .filter(|g| !g.diagonal && g.qubits.len() > 2)
            .collect();
        assert!(!oversized.is_empty(), "adder must contain Toffoli groups");
        assert!(oversized.iter().all(|g| g.gates.len() == 1));
    }

    #[test]
    fn frontier_reaches_past_any_bounded_window() {
        // Two gates on (0, 1) separated by a long stretch of gates on
        // disjoint qubits: a bounded-window scanner flushes the first group
        // long before the partner arrives; the DAG frontier absorbs both
        // into one group because nothing on (0, 1) intervenes.
        let mut circuit = Circuit::new(12);
        circuit.cx(0, 1);
        for round in 0..6 {
            for q in (2..11).step_by(2) {
                circuit.cx(q, q + 1);
                circuit.ry(0.1 + round as f64, q);
            }
        }
        circuit.cx(1, 0);
        let dag = CircuitDag::from_circuit(&circuit);
        let classes = classes_of(&circuit);
        let groups = antichain_fusion_groups(&dag, &classes, 2);
        assert!(dag.is_valid_gate_order(&flatten_to_nodes(&dag, &groups)));
        let pair_group = groups
            .iter()
            .find(|g| g.gates.contains(&0))
            .expect("gate 0 must be grouped");
        assert!(
            pair_group.gates.contains(&(circuit.num_gates() - 1)),
            "the far CX on (0,1) must fuse with the first one"
        );
    }

    #[test]
    fn determinism_same_input_same_groups() {
        let circuit = generators::random_circuit(8, 100, 42);
        let dag = CircuitDag::from_circuit(&circuit);
        let a = antichain_fusion_groups(&dag, &classes_of(&circuit), 3);
        let b = antichain_fusion_groups(&dag, &classes_of(&circuit), 3);
        let gates =
            |groups: &[FusionGroup]| groups.iter().map(|g| g.gates.clone()).collect::<Vec<_>>();
        assert_eq!(gates(&a), gates(&b));
    }
}
