//! Passes a relabeled QFT saves, counted exactly: the plan at the
//! selector's old limit 21 (three dagP parts, what a job forcing that limit
//! runs) and `large_qft`'s one-part plan at limit `n`, with the final SWAPs
//! swept as amplitude moves and with them dropped and every other gate run
//! on the reversed qubits (`Circuit::without_swaps`), which leaves no
//! permutation pass.
//! The count per part is the length of the pass list the schedule holds for
//! it on the hier engine's world of one (`FusedPlan::schedule`), exact by
//! `schedule.rs`. Over the two plans together, 9 passes become 6.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{FusedPlan, FusedSinglePlan};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;

/// The passes of `circuit`'s dagP plan at `limit`, part by part.
fn passes(circuit: &Circuit, limit: usize) -> Vec<usize> {
    let n = circuit.num_qubits();
    let dag = CircuitDag::from_circuit(circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("the limit admits every gate");
    let plan = FusedSinglePlan::new(circuit, &dag, partition);
    let schedule = FusedPlan::Single(&plan).schedule(n, 1);
    (schedule.entries.iter())
        .map(|entry| entry.in_place.len())
        .collect()
}

#[test]
fn relabeling_the_qft_swaps_saves_a_third_of_its_passes() {
    let qft = generators::qft(22);
    let relabeled = qft.without_swaps();
    // Three parts: [2] [2] [1] becomes [2] [1] [1].
    assert_eq!(passes(&qft, 21), [2, 2, 1]);
    assert_eq!(passes(&relabeled, 21), [2, 1, 1]);
    // One part: the SWAPs' amplitude moves made two passes of their own.
    assert_eq!(passes(&qft, 22), [4]);
    assert_eq!(passes(&relabeled, 22), [2]);
}
