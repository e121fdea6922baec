//! Predicted count == measured count: the passes `FusedCircuit::passes`
//! lists for a part over the outer state are the `kernel` spans the recorder
//! holds after the part ran in place — every sweep of 2^16 amplitudes or
//! more is recorded, and a tiled run, contiguous or strided, is one span.
//! The runner's cost verdict reads this number, so it has to be exact.
//!
//! One test only: the recorder is process-wide.

use hisvsim_circuit::generators;
use hisvsim_core::FusedSinglePlan;
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use hisvsim_statevec::{fusion, ApplyOptions, StateVector};

#[test]
fn predicted_passes_are_the_recorded_kernel_spans() {
    // 17 qubits: two tiles, so the tiled segmentation is what is counted.
    let n = 17;
    let mut tiled_runs = 0;
    let strided = fusion::strided_passes();
    for circuit in [generators::qft(n), generators::random_circuit(n, 120, 7)] {
        let dag = CircuitDag::from_circuit(&circuit);
        for limit in [8usize, 12, 17] {
            let partition = Strategy::DagP
                .partition(&dag, limit)
                .expect("the limit admits every gate");
            let plan = FusedSinglePlan::new(&circuit, &dag, partition);
            let mut state = StateVector::zero_state(n);
            for part in &plan.parts {
                let predicted = part.inner.passes(n, Some(&part.working_set)).count();
                hisvsim_obs::set_enabled(true);
                let _ = hisvsim_obs::drain();
                part.inner
                    .apply_mapped(&mut state, &part.working_set, &ApplyOptions::default());
                hisvsim_obs::set_enabled(false);
                let spans = hisvsim_obs::drain();
                let sweeps: Vec<&str> = spans
                    .iter()
                    .filter(|span| span.cat == "kernel")
                    .map(|span| span.name.as_str())
                    .collect();
                assert_eq!(
                    predicted,
                    sweeps.len(),
                    "{} at limit {limit}, part {}: recorded {sweeps:?}",
                    circuit.name,
                    part.part
                );
                assert!(predicted <= part.inner.num_ops());
                tiled_runs += sweeps.iter().filter(|&&name| name == "sweep:tiled").count();
            }
        }
    }
    assert!(tiled_runs > 0, "no part exercised a tiled run");
    assert!(
        fusion::strided_passes() > strided,
        "no part exercised a strided run"
    );
}
