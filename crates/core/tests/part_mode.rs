//! The part executor's gather-or-in-place decision is a function of the plan
//! and the state's width alone: a table of what it answers on the two
//! circuits the benchmark runs through the hier engine, that the thread
//! count changes nothing, and that a plan of one part — what the runtime
//! gives every default-routed small circuit — never gathers.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::{part_mode, parts_executed, PartMode};
use hisvsim_core::{FusedPlan, FusedSinglePlan, HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use hisvsim_statevec::{ApplyOptions, FusedCircuit, StateVector, DEFAULT_FUSION_WIDTH};

fn plan(circuit: &Circuit, limit: usize) -> FusedSinglePlan {
    let dag = CircuitDag::from_circuit(circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("the limit admits every gate");
    FusedSinglePlan::new(circuit, &dag, partition)
}

/// The one rank body's rule on the hier engine's world of one: a step's
/// only part runs in place, [`part_mode`] decides the others.
fn modes(circuit: &Circuit, plan: &FusedSinglePlan) -> Vec<PartMode> {
    let n = circuit.num_qubits();
    let steps = FusedPlan::Single(plan).steps(1);
    let step_modes = steps.iter().map(|step| match step.parts {
        [_] => vec![PartMode::InPlace],
        parts => parts
            .iter()
            .map(|part| part_mode(n, &part.working_set, &part.inner))
            .collect(),
    });
    step_modes.flatten().collect()
}

/// Parts this process has executed so far: (gathered, in place).
fn tallies() -> (u64, u64) {
    (
        parts_executed(PartMode::Gather),
        parts_executed(PartMode::InPlace),
    )
}

#[test]
fn decision_table() {
    use PartMode::{Gather, InPlace};
    // large_qft: two wide many-pass parts, then four gates on four qubits.
    let qft = generators::qft(22);
    let qft_plan = plan(&qft, 21);
    assert_eq!(modes(&qft, &qft_plan), [Gather, Gather, InPlace]);
    // plan_cold: an 11-qubit state is one tile, whatever the parts look like.
    let random = generators::random_circuit(11, 3000, 7);
    let random_plan = plan(&random, 8);
    assert!(random_plan.parts.len() > 10);
    assert!(modes(&random, &random_plan).iter().all(|&m| m == InPlace));
    // A part with no free qubits is never copied into a second vector.
    let whole = plan(&qft, 22);
    assert_eq!(modes(&qft, &whole), [InPlace]);

    // Not a function of the pool.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builds");
    assert_eq!(
        one_thread.install(|| modes(&qft, &qft_plan)),
        modes(&qft, &qft_plan)
    );
}

/// What a run executes is what the table says, on the default pool and on
/// one thread: the process-wide tallies move by exactly the table's counts.
/// One test function owns the tallies' deltas, so it runs its variants in
/// sequence.
#[test]
fn runs_execute_the_decided_modes() {
    // 17 qubits: above one tile, so both modes occur.
    let circuit = generators::by_name("qaoa", 17);
    let plan = plan(&circuit, 12);
    let decided = modes(&circuit, &plan);
    let count = |mode| decided.iter().filter(|&&m| m == mode).count() as u64;
    assert!(count(PartMode::Gather) > 0 && count(PartMode::InPlace) > 0);

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builds");
    let mut states = Vec::new();
    let sim = HierarchicalSimulator::new(HierConfig::new(12));
    for pinned in [false, true] {
        let before = tallies();
        let run = match pinned {
            true => one_thread.install(|| sim.run_with_fused_plan(&circuit, &plan)),
            false => sim.run_with_fused_plan(&circuit, &plan),
        };
        let after = tallies();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (count(PartMode::Gather), count(PartMode::InPlace)),
            "pinned={pinned}"
        );
        states.push(run.state);
    }
    assert!(states.windows(2).all(|pair| pair[0] == pair[1]));

    a_plans_only_part_runs_in_place();
}

/// A plan's only part runs in place even where the part rule alone would
/// gather it: 18 qubits, the top one idle, many passes. The gather could only
/// have dropped the idle qubit. Called by the one test that owns the tallies.
fn a_plans_only_part_runs_in_place() {
    let mut idle_top = Circuit::named("qaoa17+idle", 18);
    for gate in generators::by_name("qaoa", 17).gates() {
        idle_top.push(gate.clone());
    }
    let whole = plan(&idle_top, 18);
    assert_eq!(whole.parts.len(), 1);
    let only = &whole.parts[0];
    assert_eq!(only.working_set.len(), 17);
    assert_eq!(
        part_mode(18, &only.working_set, &only.inner),
        PartMode::Gather,
        "the part rule alone would move every amplitude"
    );
    assert_eq!(modes(&idle_top, &whole), [PartMode::InPlace]);
    let before = tallies();
    let run =
        HierarchicalSimulator::new(HierConfig::new(18)).run_with_fused_plan(&idle_top, &whole);
    let after = tallies();
    assert_eq!((after.0 - before.0, after.1 - before.1), (0, 1));
    let mut flat = StateVector::zero_state(18);
    FusedCircuit::new(&idle_top, DEFAULT_FUSION_WIDTH).apply(&mut flat, &ApplyOptions::default());
    assert_eq!(run.state, flat, "one in-place part is flat fused execution");
}
