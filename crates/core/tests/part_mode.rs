//! The part executor's gather-or-in-place decision is a function of the plan,
//! the state's width and the world size alone, fixed when the plan compiles
//! into its schedule (`FusedPlan::schedule`): a table of what the schedule
//! says, exactly, on the plans the benchmark runs, that the thread count
//! changes nothing, and that a plan of one part — what the runtime gives
//! every default-routed small circuit — never gathers.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::{part_mode, parts_executed, PartMode};
use hisvsim_core::{FusedPlan, FusedSinglePlan, HierConfig, HierarchicalSimulator, PlanSchedule};
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

/// The forms the hier engine's world of one runs `plan`'s parts in.
fn modes(circuit: &Circuit, plan: &FusedSinglePlan) -> Vec<PartMode> {
    let schedule = FusedPlan::Single(plan).schedule(circuit.num_qubits(), 1);
    schedule.entries.iter().map(|entry| entry.mode).collect()
}

/// Per part: its form, its passes in place and its gathered passes.
fn shape(schedule: &PlanSchedule<'_>) -> Vec<(PartMode, usize, Option<usize>)> {
    (schedule.entries.iter())
        .map(|entry| (entry.mode, entry.passes.in_place, entry.passes.gathered))
        .collect()
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

    // The plans the benchmark runs, SWAPs relabeled as the runner does.
    // large_random keeps its limit-21 plan, and the executor gathers every
    // part, where the route's count would keep parts 2 and 4 in place.
    let random = generators::random_circuit(22, 528, 1);
    let (random, _) = random.relabel_swaps();
    let random_plan = plan(&random, 21);
    let schedule = FusedPlan::Single(&random_plan).schedule(22, 1);
    assert_eq!(
        shape(&schedule),
        [
            (Gather, 20, Some(15)),
            (Gather, 51, Some(51)),
            (Gather, 47, Some(40)),
            (Gather, 10, Some(9)),
        ]
    );
    assert_eq!(schedule.passes(), 15 + 51 + 40 + 9 + 4 * 4);
    assert_eq!(schedule.exchanges(), 0);
    // large_qft runs at limit 22: one part, in place.
    let (qft, _) = qft.relabel_swaps();
    let qft_plan = plan(&qft, 22);
    let schedule = FusedPlan::Single(&qft_plan).schedule(22, 1);
    assert_eq!(shape(&schedule), [(InPlace, 12, None)]);
    assert_eq!(schedule.passes(), 12);
    // cluster_qft's dist plan on two ranks: every part alone between
    // exchanges, so in place, and the first layout free.
    let qft = generators::qft(21);
    let (qft, _) = qft.relabel_swaps();
    let qft_plan = plan(&qft, 20);
    let schedule = FusedPlan::Single(&qft_plan).schedule(21, 2);
    let forms: Vec<(PartMode, usize)> = (schedule.entries.iter())
        .map(|entry| (entry.mode, entry.passes.in_place))
        .collect();
    assert_eq!(forms, [(InPlace, 9), (InPlace, 1), (InPlace, 1)]);
    assert_eq!(schedule.exchanges(), 2);
    assert_eq!(schedule.passes(), 11);

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
    let schedule = FusedPlan::Single(&whole).schedule(18, 1);
    assert_eq!(
        part_mode(18, schedule.entries[0].passes),
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
