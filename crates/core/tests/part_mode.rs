//! Every part runs in place, and the passes it makes are a function of the
//! plan, the state's width and the world size alone, fixed when the plan
//! compiles into its schedule (`FusedPlan::schedule`): a table of what the
//! schedule says, exactly, on the plans the benchmark runs, that the thread
//! count changes nothing, and that a run executes one part per entry.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::parts_executed;
use hisvsim_core::{FusedPlan, FusedSinglePlan, HierConfig, HierarchicalSimulator, PlanSchedule};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use hisvsim_statevec::{fusion, ApplyOptions, FusedCircuit, StateVector, DEFAULT_FUSION_WIDTH};

fn plan(circuit: &Circuit, limit: usize) -> FusedSinglePlan {
    let dag = CircuitDag::from_circuit(circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("the limit admits every gate");
    FusedSinglePlan::new(circuit, &dag, partition)
}

/// Per part: its working set's width and the ops of each of its passes.
fn shape(schedule: &PlanSchedule<'_>) -> Vec<(usize, Vec<usize>)> {
    (schedule.entries.iter())
        .map(|entry| {
            let passes = entry.in_place.iter().map(|pass| pass.ops.len()).collect();
            (entry.positions.len(), passes)
        })
        .collect()
}

/// The shape of `plan` on the hier engine's world of one.
fn hier_shape(circuit: &Circuit, plan: &FusedSinglePlan) -> Vec<(usize, Vec<usize>)> {
    shape(&FusedPlan::Single(plan).schedule(circuit.num_qubits(), 1))
}

/// Parts and strided passes this process has run so far.
fn tallies() -> (u64, u64) {
    (parts_executed(), fusion::strided_passes())
}

#[test]
fn decision_table() {
    // large_qft without its SWAPs, as the runner plans it: its gates run
    // on the reversed qubits, from the H on qubit 0 up. One part at limit
    // 22, two passes: the first 32 ops mix qubits 0–15 (contiguous tiles),
    // the other 11 reach qubits 16–21 (a strided tile walk).
    let qft = generators::qft(22);
    let qft = qft.without_swaps();
    let qft_plan = plan(&qft, 22);
    assert_eq!(hier_shape(&qft, &qft_plan), [(22, vec![32, 11])]);
    // The selector's old limit 21, which a job now has to force.
    let forced = plan(&qft, 21);
    assert_eq!(
        hier_shape(&qft, &forced),
        [(21, vec![32, 9]), (21, vec![1]), (2, vec![2])]
    );
    // plan_cold: an 11-qubit state is one tile, so every op is a pass.
    let random = generators::random_circuit(11, 3000, 7);
    let random_plan = plan(&random, 8);
    assert!(random_plan.parts.len() > 10);
    for (entry, part) in (FusedPlan::Single(&random_plan)
        .schedule(11, 1)
        .entries
        .iter())
    .zip(&random_plan.parts)
    {
        assert_eq!(entry.in_place.len(), part.inner.num_ops());
    }

    // large_random: one part of 20 passes, where its limit-21 plan made
    // four parts of 3, 7, 7 and 3.
    let random = generators::random_circuit(22, 528, 1);
    let random = random.without_swaps();
    let random_plan = plan(&random, 22);
    let schedule = FusedPlan::Single(&random_plan).schedule(22, 1);
    let passes = [
        11, 9, 14, 14, 13, 11, 8, 12, 5, 12, 8, 11, 12, 4, 8, 14, 9, 10, 10, 6,
    ];
    assert_eq!(shape(&schedule), [(22, passes.to_vec())]);
    assert_eq!((schedule.passes(), schedule.exchanges()), (20, 0));
    let forced_plan = plan(&random, 21);
    let forced = FusedPlan::Single(&forced_plan).schedule(22, 1);
    let per_part: Vec<usize> = forced.entries.iter().map(|e| e.in_place.len()).collect();
    assert_eq!(per_part, [3, 7, 7, 3]);

    // cluster_qft's dist plan on two ranks: the first layout free, and each
    // rank's first part two passes over its 20-qubit slice.
    let qft = generators::qft(21);
    let qft = qft.without_swaps();
    let qft_plan = plan(&qft, 20);
    let schedule = FusedPlan::Single(&qft_plan).schedule(21, 2);
    assert_eq!(
        shape(&schedule),
        [(20, vec![32, 7]), (20, vec![1]), (2, vec![2])]
    );
    assert_eq!((schedule.passes(), schedule.exchanges()), (4, 2));

    // Not a function of the pool.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builds");
    assert_eq!(
        one_thread.install(|| hier_shape(&qft, &qft_plan)),
        hier_shape(&qft, &qft_plan)
    );
}

/// What a run executes is what the table says, on the default pool and on
/// one thread: one part per entry, and the same strided passes either way.
/// One test function owns the tallies' deltas, so it runs its variants in
/// sequence.
#[test]
fn runs_execute_the_decided_modes() {
    // 17 qubits: above one tile, so passes may be strided.
    let circuit = generators::by_name("qaoa", 17);
    let plan = plan(&circuit, 12);
    let entries = FusedPlan::Single(&plan).schedule(17, 1).entries.len() as u64;
    assert!(entries > 1);

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builds");
    let mut states = Vec::new();
    let mut strided = Vec::new();
    let sim = HierarchicalSimulator::new(HierConfig::new(12));
    for pinned in [false, true] {
        let before = tallies();
        let run = match pinned {
            true => one_thread.install(|| sim.run_with_fused_plan(&circuit, &plan)),
            false => sim.run_with_fused_plan(&circuit, &plan),
        };
        let after = tallies();
        assert_eq!(after.0 - before.0, entries, "pinned={pinned}");
        strided.push(after.1 - before.1);
        states.push(run.state);
    }
    assert!(states.windows(2).all(|pair| pair[0] == pair[1]));
    assert!(strided[0] > 0 && strided[0] == strided[1], "{strided:?}");

    a_plans_only_part_is_flat_fused_execution();
}

/// A plan's only part is flat fused execution, bit for bit: 18 qubits, the
/// top one idle, many passes. Called by the one test that owns the tallies.
fn a_plans_only_part_is_flat_fused_execution() {
    let mut idle_top = Circuit::named("qaoa17+idle", 18);
    for gate in generators::by_name("qaoa", 17).gates() {
        idle_top.push(gate.clone());
    }
    let whole = plan(&idle_top, 18);
    assert_eq!(whole.parts.len(), 1);
    assert_eq!(whole.parts[0].working_set.len(), 17);
    let before = tallies();
    let run =
        HierarchicalSimulator::new(HierConfig::new(18)).run_with_fused_plan(&idle_top, &whole);
    let after = tallies();
    assert_eq!(after.0 - before.0, 1);
    let mut flat = StateVector::zero_state(18);
    FusedCircuit::new(&idle_top, DEFAULT_FUSION_WIDTH).apply(&mut flat, &ApplyOptions::default());
    assert_eq!(run.state, flat, "one in-place part is flat fused execution");
}
