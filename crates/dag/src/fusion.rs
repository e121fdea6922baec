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
use std::ops::Range;

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

/// Grow fusion groups along the ready frontier (antichains of the
/// dependency relation) of the gates `gates` of the DAG's circuit, and hand
/// each to `visit` in order.
///
/// `gates` lists circuit gate indices in ascending order: every gate, or one
/// part of a validated (acyclic) partition. Such a part is convex — no
/// dependency path leaves it and comes back — so its gates' edges within the
/// part are exactly the DAG of the part materialized as a circuit of its
/// own, and grouping it here groups it as that circuit would be grouped,
/// without building the circuit or its DAG. `classes[i]` describes
/// `gates[i]`; `max_width` caps the qubit union of dense groups (diagonal
/// runs are width-free). A non-diagonal gate wider than `max_width` is
/// emitted as a group of its own.
///
/// Guarantees, for any convex `gates`:
///
/// * every gate of `gates` appears in exactly one group;
/// * concatenating the groups yields a valid topological order of the
///   gates' dependencies ([`CircuitDag::is_valid_gate_order`] for all gates);
/// * every non-diagonal group's qubit union is at most
///   `max_width.max(arity of its single oversized gate)`;
/// * the result is deterministic (ties broken by ascending gate index).
pub fn antichain_fusion_groups(
    dag: &CircuitDag,
    gates: &[usize],
    classes: &[GateClass],
    max_width: usize,
    mut visit: impl FnMut(&FusionGroup),
) {
    assert!(max_width >= 1, "fusion width must be at least 1");
    assert_eq!(
        classes.len(),
        gates.len(),
        "one GateClass per gate required"
    );
    assert!(gates.windows(2).all(|w| w[0] < w[1]), "gates must ascend");
    // Position in `gates` of the gate at `node`, if it is one of them and
    // its position is in `range` (a dependency of the gate at `at` lies
    // before `at`, a dependent after it).
    let every_gate = gates.len() == dag.num_gate_nodes();
    let position = |node: NodeId, range: Range<usize>| {
        let gate = dag.gate_index(node)?;
        match every_gate {
            true => Some(gate),
            false => (gates[range.clone()].binary_search(&gate).ok()).map(|at| range.start + at),
        }
    };
    // Dependency edges from other gates of `gates` not yet grouped, and the
    // positions (so, gate indices) whose count is zero, ascending.
    let mut indegree = vec![0usize; gates.len()];
    for (at, &gate) in gates.iter().enumerate() {
        let preds = dag.predecessors(dag.gate_node(gate));
        indegree[at] = preds
            .iter()
            .filter(|&&(pred, _)| position(pred, 0..at).is_some())
            .count();
    }
    let mut ready: Vec<usize> = (0..gates.len()).filter(|&at| indegree[at] == 0).collect();
    // Grouping the gate at `at` releases its dependents among `gates`.
    let complete = |at: usize, indegree: &mut [usize], ready: &mut Vec<usize>| {
        for &(succ, _) in dag.successors(dag.gate_node(gates[at])) {
            let Some(next) = position(succ, at + 1..gates.len()) else {
                continue;
            };
            indegree[next] -= 1;
            if indegree[next] == 0 {
                let slot = ready.partition_point(|&r| r < next);
                ready.insert(slot, next);
            }
        }
    };

    // One group at a time, in a buffer handed to `visit`.
    let mut group = FusionGroup {
        gates: Vec::new(),
        qubits: Vec::new(),
        diagonal: false,
    };
    let mut grouped = 0;
    while !ready.is_empty() {
        let seed = ready.remove(0);
        group.diagonal = classes[seed].diagonal;
        group.gates.clear();
        group.gates.push(gates[seed]);
        group.qubits.clear();
        group
            .qubits
            .extend(dag.qubits_of(dag.gate_node(gates[seed])));
        complete(seed, &mut indegree, &mut ready);

        // Grow to a (greedy) maximal group: scan the ready frontier in
        // ascending gate index for the first absorbable gate; absorbing it
        // may release successors into the frontier, so rescan until a full
        // pass absorbs nothing.
        while let Some(slot) =
            (ready.iter()).position(|&at| can_join(&group, dag, &classes[at], gates[at], max_width))
        {
            let at = ready.remove(slot);
            for &q in dag.qubits_of(dag.gate_node(gates[at])) {
                if !group.qubits.contains(&q) {
                    group.qubits.push(q);
                }
            }
            group.gates.push(gates[at]);
            complete(at, &mut indegree, &mut ready);
        }
        grouped += group.len();
        visit(&group);
    }
    assert_eq!(
        grouped,
        gates.len(),
        "every gate must be grouped exactly once (a part must be convex)"
    );
}

/// Whether a ready `gate` may be absorbed by `group` under the width cap
/// and the caller's cost allowance: diagonal runs absorb any diagonal gate;
/// a group wider than the cap (one oversized gate) absorbs nothing; a dense
/// group absorbs a diagonal gate only when it adds no qubits (the matrix
/// product keeps its dimension), and a non-diagonal gate only when
/// the widened kernel's extra per-amplitude arithmetic
/// (`2^union − 2^current`) stays within the gate's standalone cost.
fn can_join(
    group: &FusionGroup,
    dag: &CircuitDag,
    class: &GateClass,
    gate: usize,
    max_width: usize,
) -> bool {
    let gate_qubits = dag.qubits_of(dag.gate_node(gate));
    if group.diagonal {
        return class.diagonal;
    }
    // An oversized non-diagonal gate travels alone.
    if group.qubits.len() > max_width {
        return false;
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

    /// The groups the grouping visits, in order.
    fn groups(
        dag: &CircuitDag,
        gates: &[usize],
        classes: &[GateClass],
        width: usize,
    ) -> Vec<FusionGroup> {
        let mut groups = Vec::new();
        antichain_fusion_groups(dag, gates, classes, width, |group| {
            groups.push(group.clone())
        });
        groups
    }

    /// Every gate of the circuit, the grouping's whole-circuit input.
    fn every_gate(circuit: &Circuit) -> Vec<usize> {
        (0..circuit.num_gates()).collect()
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
                let groups = groups(&dag, &every_gate(&circuit), &classes_of(&circuit), width);
                assert!(
                    dag.is_valid_gate_order(&flatten_to_nodes(&dag, &groups)),
                    "{name}@width{width}: group order violates dependencies"
                );
            }
        }
    }

    #[test]
    fn a_convex_part_groups_as_its_materialized_circuit() {
        // Consecutive runs of a topological order are convex parts. Grouping
        // one in place must give the groups of the part built as a circuit
        // of its own (gate `i` of which is `part[i]`), gate for gate and
        // qubit for qubit.
        for seed in 0..6 {
            let circuit = generators::random_circuit(8, 160, seed);
            let dag = CircuitDag::from_circuit(&circuit);
            let classes = classes_of(&circuit);
            let order = dag.random_dfs_gate_order(seed);
            for chunk in order.chunks(23) {
                let mut part: Vec<usize> =
                    chunk.iter().filter_map(|&n| dag.gate_index(n)).collect();
                part.sort_unstable();
                let part_classes: Vec<GateClass> = part.iter().map(|&g| classes[g]).collect();
                let sub = circuit.subcircuit(&part);
                let sub_dag = CircuitDag::from_circuit(&sub);
                for width in [1usize, 2, 3, 4] {
                    let in_place = groups(&dag, &part, &part_classes, width);
                    let alone = groups(&sub_dag, &every_gate(&sub), &part_classes, width);
                    assert_eq!(in_place.len(), alone.len(), "seed {seed} width {width}");
                    for (a, b) in in_place.iter().zip(&alone) {
                        let mapped: Vec<usize> = b.gates.iter().map(|&i| part[i]).collect();
                        assert_eq!(a.gates, mapped, "seed {seed} width {width}");
                        assert_eq!((&a.qubits, a.diagonal), (&b.qubits, b.diagonal));
                    }
                }
            }
        }
    }

    #[test]
    fn random_interleaved_circuits_linearize_and_cover_every_gate() {
        for seed in 0..8 {
            let circuit = generators::random_circuit(8, 90, seed);
            let dag = CircuitDag::from_circuit(&circuit);
            let groups = groups(&dag, &every_gate(&circuit), &classes_of(&circuit), 3);
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
            for group in groups(&dag, &every_gate(&circuit), &classes_of(&circuit), width) {
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
        for group in groups(&dag, &every_gate(&circuit), &classes, 3) {
            if group.diagonal {
                assert!(group.gates.iter().all(|&g| classes[g].diagonal));
            }
        }
    }

    #[test]
    fn empty_and_single_gate_circuits() {
        let empty = Circuit::new(3);
        let dag = CircuitDag::from_circuit(&empty);
        assert!(groups(&dag, &[], &[], 3).is_empty());

        let mut one = Circuit::new(2);
        one.h(0);
        let dag = CircuitDag::from_circuit(&one);
        let groups = groups(&dag, &every_gate(&one), &classes_of(&one), 3);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].gates, vec![0]);
        assert_eq!(groups[0].qubits, vec![0]);
    }

    #[test]
    fn oversized_gates_travel_alone() {
        let circuit = generators::adder(8); // contains 3-qubit Toffolis
        let dag = CircuitDag::from_circuit(&circuit);
        let groups = groups(&dag, &every_gate(&circuit), &classes_of(&circuit), 2);
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
        let groups = groups(&dag, &every_gate(&circuit), &classes, 2);
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
        let a = groups(&dag, &every_gate(&circuit), &classes_of(&circuit), 3);
        let b = groups(&dag, &every_gate(&circuit), &classes_of(&circuit), 3);
        let gates =
            |groups: &[FusionGroup]| groups.iter().map(|g| g.gates.clone()).collect::<Vec<_>>();
        assert_eq!(gates(&a), gates(&b));
    }
}
