//! A plan fuses each part where it lies, on the job's DAG, and must fuse it
//! exactly as the part materialized as a circuit of its own would be fused:
//! the part's gates (`subcircuit`) on its working set (`remap_qubits`),
//! through `FusedCircuit::new`. Checked op for op, with matrices, diagonal
//! tables and prepared kernel data compared bitwise through `{:?}`, for
//! every part of a single-level plan and every second-level part of a
//! two-level one: every generator family at 8, 11 and 14 qubits at limits
//! 3, 5, 8 and n wherever dagP succeeds, and 20 `plan_cold`-sized random
//! circuits at limit 8.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{FusedPart, FusedSinglePlan, FusedTwoLevelPlan};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{DagPPartitioner, MultilevelPartitioner};
use hisvsim_statevec::{FusedCircuit, DEFAULT_FUSION_WIDTH};

/// Fuse `gates` of `circuit` the way a plan once did: as a circuit of
/// their own over the part's working set.
fn materialized(circuit: &Circuit, gates: &[usize], working_set: &[usize]) -> FusedCircuit {
    let mut map = vec![None; circuit.num_qubits()];
    for (inner, &outer) in working_set.iter().enumerate() {
        map[outer] = Some(inner);
    }
    let part = circuit
        .subcircuit(gates)
        .remap_qubits(&map, working_set.len());
    FusedCircuit::new(&part, DEFAULT_FUSION_WIDTH)
}

fn assert_fused_alike(what: &str, part: &FusedPart, gates: &[usize], circuit: &Circuit) {
    let expected = materialized(circuit, gates, &part.working_set);
    let got = &part.inner;
    assert_eq!(got.num_qubits(), expected.num_qubits(), "{what}: width");
    assert_eq!(got.source_gates(), gates.len(), "{what}: gates");
    assert_eq!(got.num_ops(), expected.num_ops(), "{what}: op count");
    for (index, (a, b)) in got.ops().iter().zip(expected.ops()).enumerate() {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: op {index}");
    }
    assert_eq!(
        format!("{got:?}"),
        format!("{expected:?}"),
        "{what}: prepared data"
    );
}

/// Every part of the single-level plan of `circuit` at `limit`; false when
/// dagP cannot partition at that limit.
fn check_single(what: &str, circuit: &Circuit, dag: &CircuitDag, limit: usize) -> bool {
    let Ok(partition) = DagPPartitioner::default().partition(dag, limit) else {
        return false;
    };
    let gates_by_part = partition.gates_by_part();
    let plan = FusedSinglePlan::new(circuit, dag, partition);
    assert!(!plan.parts.is_empty() || circuit.num_gates() == 0);
    for part in &plan.parts {
        let what = format!("{what} limit {limit} part {}", part.part);
        assert_fused_alike(&what, part, &gates_by_part[part.part], circuit);
    }
    true
}

/// Every second-level part of the two-level plan of `circuit` at
/// `(first, second)`; false when it cannot be partitioned.
fn check_two_level(what: &str, circuit: &Circuit, dag: &CircuitDag, first: usize, second: usize) {
    let Ok(ml) = MultilevelPartitioner.partition(dag, first, second) else {
        return;
    };
    let plan = FusedTwoLevelPlan::new(circuit, dag, ml.clone());
    for first_part in &plan.parts {
        let lists: Vec<Vec<usize>> = (ml.second_level_gate_lists(dag, first_part.part))
            .into_iter()
            .filter(|gates| !gates.is_empty())
            .collect();
        assert_eq!(lists.len(), first_part.second.len());
        for (part, gates) in first_part.second.iter().zip(&lists) {
            let what = format!(
                "{what} limits {first}/{second} part {}.{}",
                first_part.part, part.part
            );
            assert_fused_alike(&what, part, gates, circuit);
        }
    }
}

#[test]
fn every_family_fuses_each_part_as_its_materialized_circuit() {
    let mut planned = 0;
    for name in generators::FAMILY_NAMES {
        for n in [8usize, 11, 14] {
            let circuit = generators::by_name(name, n);
            let dag = CircuitDag::from_circuit(&circuit);
            let what = format!("{name}({n})");
            for limit in [3, 5, 8, n] {
                planned += usize::from(check_single(&what, &circuit, &dag, limit));
            }
            for (first, second) in [(8, 5), (n, 5), (n - 3, 3)] {
                check_two_level(&what, &circuit, &dag, first, second);
            }
        }
    }
    // dagP fails only below a family's widest gate.
    assert!(
        planned >= generators::FAMILY_NAMES.len() * 3 * 3,
        "{planned} plans"
    );
}

#[test]
fn cold_random_circuits_fuse_each_part_as_its_materialized_circuit() {
    for seed in 0..20 {
        let circuit = generators::random_circuit(11, 3000, seed);
        let dag = CircuitDag::from_circuit(&circuit);
        assert!(check_single(
            &format!("random seed {seed}"),
            &circuit,
            &dag,
            8
        ));
    }
}
