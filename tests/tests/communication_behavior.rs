//! Integration tests of the *performance-shaping* claims: the quantities the
//! paper's evaluation section measures must move in the right direction in
//! this reproduction (HiSVSIM communicates less than the baseline, dagP
//! communicates no more than Nat, communication volume falls as ranks grow,
//! the multi-level engine adds no communication) — and a run under a live
//! execution control is the same run, message for message.

use hisvsim_circuit::generators;
use hisvsim_cluster::NetworkModel;
use hisvsim_core::{
    run_plan, BaselineConfig, CancelToken, DistConfig, DistributedSimulator, ExecControl,
    FusedPlan, FusedSinglePlan, FusedTwoLevelPlan, IqsBaseline, MultilevelConfig,
    MultilevelSimulator, RunReport, RunSpec,
};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_runtime::{
    EngineKind, EngineSelector, JobControl, JobRunner, SchedulerConfig, Semaphore, SimJob,
};
use hisvsim_statevec::StateVector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn hisvsim_moves_fewer_bytes_than_the_baseline_on_comm_heavy_circuits() {
    // Circuits whose gates repeatedly touch the top (process) qubits force a
    // static-mapping simulator to exchange once per such gate; HiSVSIM pays
    // once per part.
    for family in ["ising", "qnn", "grover"] {
        let circuit = generators::by_name(family, 10);
        let baseline = IqsBaseline::new(BaselineConfig::new(4)).run(&circuit);
        let hisvsim = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
            .run(&circuit)
            .unwrap();
        assert!(
            hisvsim.report.comm.bytes_sent <= baseline.report.comm.bytes_sent,
            "{family}: HiSVSIM {} bytes > baseline {} bytes",
            hisvsim.report.comm.bytes_sent,
            baseline.report.comm.bytes_sent
        );
        let net = NetworkModel::hdr100();
        assert!(
            hisvsim.report.modeled_comm_s(&net) <= baseline.report.modeled_comm_s(&net) + 1e-12,
            "{family}: HiSVSIM modelled comm exceeds baseline"
        );
    }
}

#[test]
fn dagp_communicates_no_more_than_nat() {
    for family in ["qft", "qaoa", "ising"] {
        let circuit = generators::by_name(family, 10);
        let nat = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::Nat))
            .run(&circuit)
            .unwrap();
        let dagp = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
            .run(&circuit)
            .unwrap();
        assert!(dagp.report.num_parts <= nat.report.num_parts, "{family}");
        assert!(
            dagp.report.comm.bytes_sent <= nat.report.comm.bytes_sent,
            "{family}: dagP {} bytes > Nat {} bytes",
            dagp.report.comm.bytes_sent,
            nat.report.comm.bytes_sent
        );
    }
}

#[test]
fn per_rank_communication_volume_shrinks_with_more_ranks() {
    // Strong scaling: the state is fixed, so each rank owns (and therefore
    // re-sends) a smaller slice as the rank count grows.
    let circuit = generators::by_name("ising", 12);
    let mut previous_per_rank = f64::INFINITY;
    for ranks in [2usize, 4, 8] {
        let run = DistributedSimulator::new(DistConfig::new(ranks).with_strategy(Strategy::DagP))
            .run(&circuit)
            .unwrap();
        let per_rank = run.report.comm.bytes_sent as f64 / ranks as f64;
        assert!(
            per_rank <= previous_per_rank,
            "per-rank bytes grew from {previous_per_rank} to {per_rank} at {ranks} ranks"
        );
        previous_per_rank = per_rank;
    }
}

#[test]
fn multilevel_does_not_add_communication_over_single_level() {
    let circuit = generators::by_name("qft", 10);
    let single = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
        .run(&circuit)
        .unwrap();
    let multi = MultilevelSimulator::new(MultilevelConfig::new(4, 4))
        .run(&circuit)
        .unwrap();
    assert_eq!(single.report.num_exchanges, multi.report.num_exchanges);
    assert_eq!(single.report.comm.bytes_sent, multi.report.comm.bytes_sent);
}

#[test]
fn improvement_factor_over_baseline_is_positive_for_comm_bound_runs() {
    // With the HDR-100 model the modelled wire time dominates the tiny local
    // compute at these sizes, so the improvement factor reflects the
    // communication reduction (the regime of the paper's ≥35-qubit circuits).
    let circuit = generators::by_name("ising", 11);
    let baseline = IqsBaseline::new(BaselineConfig::new(4)).run(&circuit);
    let hisvsim = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
        .run(&circuit)
        .unwrap();
    let net = NetworkModel::hdr100();
    let factor =
        baseline.report.modeled_comm_s(&net) / hisvsim.report.modeled_comm_s(&net).max(1e-12);
    assert!(
        factor >= 1.0,
        "expected a communication-side improvement, got factor {factor}"
    );
}

/// `live(control)` under a live token and a counting sink must compute and
/// send exactly what the inert run did, and report progress up to the last
/// gate.
fn assert_same_run(
    engine: &str,
    gates: u64,
    inert: (StateVector, RunReport),
    live: impl FnOnce(&ExecControl) -> (StateVector, RunReport),
) {
    let reports = Arc::new(AtomicU64::new(0));
    let last = Arc::new(AtomicU64::new(0));
    let (count, done) = (Arc::clone(&reports), Arc::clone(&last));
    let control = ExecControl::new()
        .with_cancel(CancelToken::new())
        .with_progress(move |gates_done, gates_total| {
            assert!(gates_done <= gates_total);
            count.fetch_add(1, Ordering::SeqCst);
            done.store(gates_done, Ordering::SeqCst);
        });
    let (live_state, live) = live(&control);
    let (inert_state, inert) = inert;
    assert_eq!(live_state, inert_state, "{engine}: states differ");
    assert_eq!(live.comm.bytes_sent, inert.comm.bytes_sent, "{engine}");
    assert_eq!(
        live.comm.messages_sent, inert.comm.messages_sent,
        "{engine}"
    );
    assert_eq!(live.num_exchanges, inert.num_exchanges, "{engine}");
    assert!(inert.comm.bytes_sent > 0, "{engine}: nothing was exchanged");
    assert!(reports.load(Ordering::SeqCst) >= 2, "{engine}: no progress");
    assert_eq!(last.load(Ordering::SeqCst), gates, "{engine}");
}

#[test]
fn a_live_control_runs_the_same_schedule_as_an_inert_one() {
    // Every planned engine runs one rank body; the engines' own entry points
    // run it under an inert control. A live token and a progress sink must
    // change nothing that is computed or sent: same bits, same bytes, same
    // messages, same exchanges (the cancel votes are control traffic,
    // charged as wall time only).
    let ranks = 4;
    let circuit = &generators::by_name("qaoa", 10);
    let gates = circuit.num_gates() as u64;
    let dag = CircuitDag::from_circuit(circuit);
    let local = circuit.num_qubits() - 2;
    let spec = |engine| RunSpec {
        engine,
        strategy: "dagP",
        ranks,
        dispatch: Default::default(),
        perm: None,
    };

    let partition = Strategy::DagP.partition(&dag, local).unwrap();
    let plan = &FusedSinglePlan::new(circuit, &dag, partition);
    let inert =
        DistributedSimulator::new(DistConfig::new(ranks)).run_with_fused_plan(circuit, plan);
    assert_same_run("dist", gates, (inert.state, inert.report), |control| {
        let schedule = FusedPlan::Single(plan).schedule(circuit.num_qubits(), ranks);
        let live = run_plan(circuit, &schedule, spec("dist"), control);
        live.expect("the token is never fired")
    });

    let ml = MultilevelPartitioner.partition(&dag, local, 4).unwrap();
    let plan = &FusedTwoLevelPlan::new(circuit, &dag, ml);
    let multilevel = MultilevelSimulator::new(MultilevelConfig::new(ranks, 4));
    let inert = multilevel.run_with_fused_plan(circuit, plan);
    assert_same_run(
        "multilevel",
        gates,
        (inert.state, inert.report),
        |control| {
            let schedule = FusedPlan::Two(plan).schedule(circuit.num_qubits(), ranks);
            let live = run_plan(circuit, &schedule, spec("multilevel"), control);
            live.expect("the token is never fired")
        },
    );

    let baseline = IqsBaseline::new(BaselineConfig::new(ranks));
    let inert = baseline.run(circuit);
    assert_same_run("baseline", gates, (inert.state, inert.report), |control| {
        let live = baseline.run_controlled(circuit, None, control);
        let live = live.expect("the token is never fired");
        (live.state, live.report)
    });
}

#[test]
fn a_job_on_two_ranks_exchanges_only_what_changes_rank() {
    // Through the runner on a thread world of two ranks: the first part's
    // layout is free (|0…0⟩ is the same in every layout), each part switch
    // sends half of each rank's slice to the other rank and keeps the rest
    // in place, and the ranks hand back their slices without returning to
    // the identity layout. The same holds for the two-level comparator, run
    // through its core entry point on the circuit the runner plans (its
    // SWAPs relabeled) at the parameters the selector derives for it.
    const MIB: u64 = 1 << 20;
    let runner = JobRunner::new(SchedulerConfig::default());
    let residency = Semaphore::new(1);
    let selector = EngineSelector::default();
    let cases = [
        (generators::qft(21), 2, 32 * MIB, 4),
        (generators::random_circuit(21, 300, 3), 2, 32 * MIB, 4),
        (generators::by_name("qaoa", 18), 2, 4 * MIB, 4),
    ];
    for (circuit, exchanges, bytes, messages) in cases {
        let job = SimJob::new(circuit.clone()).with_engine(EngineKind::Dist);
        let dist = runner
            .execute_job(0, job, &residency, &JobControl::new())
            .expect("the job runs");
        let (relabeled, _) = circuit.relabel_swaps();
        let decision = selector.decide(&relabeled, Some(EngineKind::Multilevel));
        let config = MultilevelConfig::new(decision.ranks, decision.second_limit);
        let multilevel = MultilevelSimulator::new(config)
            .run(&relabeled)
            .expect("the circuit partitions");
        let runs = [
            (EngineKind::Dist, dist.decision.ranks, dist.report),
            (EngineKind::Multilevel, decision.ranks, multilevel.report),
        ];
        for (engine, ranks, report) in runs {
            assert_eq!(ranks, 2, "{} on {engine}", circuit.name);
            assert_eq!(
                (
                    report.num_exchanges,
                    report.comm.bytes_sent,
                    report.comm.messages_sent
                ),
                (exchanges, bytes, messages),
                "{} on {engine}",
                circuit.name
            );
        }
    }
}
