//! The correctness anchor of the whole reproduction: every execution mode
//! (hierarchical single-node, distributed, multi-level, IQS-style baseline)
//! must produce the same final state as the flat reference simulator, for
//! every benchmark family, every partitioning strategy, and a range of rank
//! counts and working-set limits. The route the runtime gives a small circuit
//! by default is held to more: bit-identity with the flat fused executor.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, ExecControl, HierConfig,
    HierarchicalSimulator, IqsBaseline, MultilevelConfig, MultilevelSimulator,
};
use hisvsim_dag::CircuitDag;
use hisvsim_integration_tests::{assert_states_match, reference_state, small_suite, swap_cases};
use hisvsim_partition::Strategy;
use hisvsim_runtime::{
    EngineKind, EngineSelector, JobControl, JobRunner, SchedulerConfig, Semaphore, SimJob,
};
use hisvsim_statevec::{
    run_circuit, ApplyOptions, FusedCircuit, KernelDispatch, StateVector, DEFAULT_FUSION_WIDTH,
};

#[test]
fn hierarchical_engine_matches_reference_for_all_strategies() {
    for circuit in small_suite(9) {
        let expected = reference_state(&circuit);
        let dag = CircuitDag::from_circuit(&circuit);
        for strategy in Strategy::ALL {
            for limit in [4usize, 6, 9] {
                let partition = match strategy.partition(&dag, limit) {
                    Ok(p) => p,
                    Err(_) => continue, // limit below a gate's arity
                };
                let run =
                    HierarchicalSimulator::new(HierConfig::new(limit).with_strategy(strategy))
                        .run_with_partition(&circuit, &dag, partition);
                assert_states_match(
                    &format!("{} hier {} limit {limit}", circuit.name, strategy.name()),
                    &run.state,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn distributed_engine_matches_reference_across_rank_counts() {
    for circuit in small_suite(8) {
        let expected = reference_state(&circuit);
        for ranks in [2usize, 4] {
            let run =
                DistributedSimulator::new(DistConfig::new(ranks).with_strategy(Strategy::DagP))
                    .run(&circuit)
                    .expect("partitioning failed");
            assert_states_match(
                &format!("{} dist {ranks} ranks", circuit.name),
                &run.state,
                &expected,
            );
            assert_eq!(run.report.num_ranks, ranks);
        }
    }
}

#[test]
fn baseline_engine_matches_reference() {
    for circuit in small_suite(8) {
        let expected = reference_state(&circuit);
        let run = IqsBaseline::new(BaselineConfig::new(4)).run(&circuit);
        assert_states_match(&format!("{} baseline", circuit.name), &run.state, &expected);
    }
}

#[test]
fn multilevel_engine_matches_reference() {
    for circuit in small_suite(8) {
        let expected = reference_state(&circuit);
        let run = MultilevelSimulator::new(MultilevelConfig::new(4, 3))
            .run(&circuit)
            .expect("partitioning failed");
        assert_states_match(
            &format!("{} multilevel", circuit.name),
            &run.state,
            &expected,
        );
    }
}

#[test]
fn engines_agree_with_each_other_on_a_deep_circuit() {
    // qpe has the largest gate count of the suite; run it once through every
    // engine and compare them pairwise.
    let circuit = hisvsim_circuit::generators::qpe(10);
    let expected = reference_state(&circuit);
    let hier = HierarchicalSimulator::new(HierConfig::new(5))
        .run(&circuit)
        .unwrap();
    let dist = DistributedSimulator::new(DistConfig::new(4))
        .run(&circuit)
        .unwrap();
    let multi = MultilevelSimulator::new(MultilevelConfig::new(4, 4))
        .run(&circuit)
        .unwrap();
    let base = IqsBaseline::new(BaselineConfig::new(4)).run(&circuit);
    for (label, state) in [
        ("hier", &hier.state),
        ("dist", &dist.state),
        ("multilevel", &multi.state),
        ("baseline", &base.state),
    ] {
        assert_states_match(label, state, &expected);
    }
}

/// The guard on the runtime's first rung: a circuit within the cache budget is
/// routed to a cached one-part plan swept in place, which has to be the flat
/// fused executor to the bit — as the forced comparison engine on one rank
/// is. The runner drops a circuit's SWAPs at intake and runs every other
/// gate on the qubits its operands end up on, so the flat result is that of
/// the circuit without its SWAPs; it stays within 1e-10 of the submitted
/// circuit's.
/// Every family plus a random circuit, 4..=16 qubits.
fn default_route_forced_baseline_and_flat_fusion_agree(dispatch: KernelDispatch) {
    let runner = JobRunner::new(SchedulerConfig::default());
    let residency = Semaphore::new(1);
    let run = |job: SimJob| {
        let result = runner
            .execute_job(
                0,
                job.with_kernel_dispatch(dispatch),
                &residency,
                &JobControl::new(),
            )
            .expect("the job runs");
        (result.engine, result.state.expect("states are retained"))
    };
    let opts = ApplyOptions::default().with_dispatch(dispatch);
    for n in 4usize..=16 {
        let mut circuits = small_suite(n);
        circuits.push(generators::random_circuit(n, 12 * n, n as u64));
        for circuit in circuits {
            let label = format!("{} dispatch={dispatch:?}", circuit.name);
            let flat_of = |circuit: &Circuit| {
                let mut flat = StateVector::zero_state(n);
                FusedCircuit::new(circuit, DEFAULT_FUSION_WIDTH).apply(&mut flat, &opts);
                flat
            };
            let relabeled = circuit.without_swaps();
            let flat = flat_of(&relabeled);
            assert!(
                flat.approx_eq(&flat_of(&circuit), 1e-10),
                "{label}: dropping the SWAPs moved the flat result"
            );
            let (engine, routed) = run(SimJob::new(circuit.clone()));
            assert_eq!(engine, EngineKind::Hier, "{label}");
            assert_eq!(
                routed, flat,
                "{label}: the default route left the flat result"
            );
            // The comparison engine through its core entry point, as the
            // runner ran it when it served it: the circuit without its SWAPs
            // on one rank.
            let config = BaselineConfig::new(1).with_kernel_dispatch(dispatch);
            let forced = IqsBaseline::new(config)
                .run_controlled(&relabeled, &ExecControl::default())
                .expect("an inert control cannot cancel")
                .state;
            assert_eq!(
                forced, flat,
                "{label}: the comparison engine left the flat result"
            );
        }
    }
}

#[test]
fn default_route_is_flat_fusion_bit_for_bit_under_auto_dispatch() {
    default_route_forced_baseline_and_flat_fusion_agree(KernelDispatch::Auto);
}

#[test]
fn default_route_is_flat_fusion_bit_for_bit_under_scalar_dispatch() {
    default_route_forced_baseline_and_flat_fusion_agree(KernelDispatch::Scalar);
}

/// A SWAP is a relabeling on every route the runner serves: each SWAP case
/// at 17 qubits (two tiles) on the default route and forced `Dist` on 1, 2
/// and 4 ranks comes back within 1e-10 of the unfused `run_circuit`, and
/// the circuit of SWAPs alone as exactly |0…0⟩.
#[test]
fn swap_cases_match_the_reference_on_the_default_route_and_dist_at_1_2_and_4_ranks() {
    let n = 17;
    let dist = |ranks: usize| {
        let selector = EngineSelector {
            max_ranks: ranks,
            ..EngineSelector::scaled(n - 2, n - 2)
        };
        JobRunner::new(SchedulerConfig::default().with_selector(selector))
    };
    let routes = [
        (None, 1, JobRunner::new(SchedulerConfig::default())),
        (Some(EngineKind::Dist), 1, dist(1)),
        (Some(EngineKind::Dist), 2, dist(2)),
        (Some(EngineKind::Dist), 4, dist(4)),
    ];
    let residency = Semaphore::new(1);
    for circuit in swap_cases(n) {
        let expected = run_circuit(&circuit);
        let only_swaps = circuit.without_swaps().num_gates() == 0;
        for (engine, ranks, runner) in &routes {
            let mut job = SimJob::new(circuit.clone());
            if let Some(engine) = *engine {
                job = job.with_engine(engine);
            }
            let result = runner
                .execute_job(0, job, &residency, &JobControl::new())
                .expect("the job runs");
            let label = format!("{} on {engine:?} at {ranks} ranks", circuit.name);
            assert_eq!(result.decision.ranks, *ranks, "{label}");
            let state = result.state.expect("states are retained");
            assert!(
                state.approx_eq(&expected, 1e-10),
                "{label}: max |Δ| {:.3e}",
                state.max_abs_diff(&expected)
            );
            if only_swaps {
                assert_eq!(state, StateVector::zero_state(n), "{label}");
            }
        }
    }
}
