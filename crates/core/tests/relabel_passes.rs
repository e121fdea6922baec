//! Passes a relabeled QFT saves, counted exactly: `large_qft`'s plan
//! (`qft(22)` at the selector's limit 21, three dagP parts) and the one-part
//! plan at limit `n`, with the final SWAPs swept as amplitude moves and with
//! them relabeled away (`Circuit::relabel_swaps`), which leaves one
//! permutation pass at the end. The count per part is the length of the
//! pass list the schedule holds for it (`FusedCircuit::passes`), exact by
//! `schedule.rs`; whether a part gathers is what the plan's schedule on the
//! hier engine's world of one says (`FusedPlan::schedule`).

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::PartMode;
use hisvsim_core::{FusedPlan, FusedSinglePlan};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;

/// `(passes in place, gathered parts)` of `circuit`'s dagP plan at `limit`.
fn passes(circuit: &Circuit, limit: usize) -> (usize, usize) {
    let n = circuit.num_qubits();
    let dag = CircuitDag::from_circuit(circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("the limit admits every gate");
    let plan = FusedSinglePlan::new(circuit, &dag, partition);
    let schedule = FusedPlan::Single(&plan).schedule(n, 1);
    let entries = schedule.entries.iter();
    let passes = entries.clone().map(|entry| entry.passes.in_place).sum();
    let gathered = entries
        .filter(|entry| entry.mode == PartMode::Gather)
        .count();
    (passes, gathered)
}

#[test]
fn relabeling_the_qft_swaps_saves_a_third_of_its_passes() {
    let qft = generators::qft(22);
    let (relabeled, _) = qft.relabel_swaps();
    // large_qft's plan: [gather 12] [gather 6] [in place 3] becomes
    // [gather 12] [in place 1] [in place 1].
    assert_eq!(passes(&qft, 21), (21, 2));
    assert_eq!(passes(&relabeled, 21), (14, 1));
    // One part swept in place.
    assert_eq!(passes(&qft, 22), (19, 0));
    assert_eq!(passes(&relabeled, 22), (12, 0));
}
