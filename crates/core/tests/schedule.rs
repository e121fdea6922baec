//! A compiled schedule is the run: for single-level and two-level plans on
//! worlds of 1, 2 and 4 ranks, the exchanges `FusedPlan::schedule` predicts
//! are the ones the run reports, every rank leaves one `part` span per entry
//! with the entry's pass count, and each part's listed passes are the sweep
//! spans the recorder holds for it, its tiled runs the `sweep:tiled` ones
//! (every sweep of 2^16 amplitudes or more is recorded, so every slice here
//! is at least that wide). The runner's cost verdict reads this count, so it
//! has to be exact; single-level plans of 17-qubit circuits on one rank, two
//! tiles wide, check it at several limits, and the runs here stride tiles
//! across qubits above them.
//!
//! One test only: the recorder is process-wide.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_cluster::NetworkModel;
use hisvsim_core::{
    run_plan, ExecControl, FusedPlan, FusedSinglePlan, FusedTwoLevelPlan, PlanSchedule, RunSpec,
};
use hisvsim_dag::CircuitDag;
use hisvsim_obs::SpanRecord;
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_statevec::{fusion, run_circuit};
use std::collections::BTreeMap;

/// Qubits of every state: 16-qubit slices on four ranks.
const QUBITS: usize = 18;
/// The (first-level) working-set limit, the widest slice four ranks have.
const LIMIT: usize = 16;

/// Check one run of `schedule` against the spans it left; returns the
/// entries it checked and the tiled runs they made.
fn check(circuit: &Circuit, schedule: &PlanSchedule<'_>, engine: &str) -> (usize, usize) {
    let ranks = schedule.ranks;
    let spec = RunSpec::new(
        engine,
        "dagP",
        ranks,
        NetworkModel::ideal(),
        Default::default(),
    );
    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    let (state, report) =
        run_plan(circuit, schedule, spec, &ExecControl::default()).expect("nothing cancels");
    hisvsim_obs::set_enabled(false);
    let spans = hisvsim_obs::drain();
    let context = format!("{} as {engine} on {ranks} ranks", circuit.name);
    assert!(state.approx_eq(&run_circuit(circuit), 1e-9), "{context}");
    assert_eq!(report.num_exchanges, schedule.exchanges(), "{context}");

    // Each rank's thread: its part spans in order, and the sweeps that
    // started on it.
    let mut parts: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans
        .iter()
        .filter(|s| s.cat == "kernel" && s.name == "part")
    {
        parts.entry(span.tid).or_default().push(span);
    }
    assert_eq!(parts.len(), ranks, "{context}");
    let mut checked = 0;
    let mut tiled = 0;
    for (tid, mut rank_parts) in parts {
        rank_parts.sort_by_key(|span| span.ts_us);
        assert_eq!(rank_parts.len(), schedule.entries.len(), "{context}");
        for (index, (entry, span)) in schedule.entries.iter().zip(&rank_parts).enumerate() {
            let detail = format!(
                "ws={} passes={}",
                entry.positions.len(),
                entry.in_place.len()
            );
            assert_eq!(span.detail, detail, "{context}");
            checked += 1;
            let until = rank_parts
                .get(index + 1)
                .map_or(u64::MAX, |next| next.ts_us);
            let sweeps: Vec<&str> = (spans.iter())
                .filter(|s| s.tid == tid && s.cat == "kernel" && s.name.starts_with("sweep"))
                .filter(|s| (span.ts_us..until).contains(&s.ts_us))
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                sweeps.len(),
                entry.in_place.len(),
                "{context}, part {index}"
            );
            assert!(
                entry.in_place.len() <= entry.part.inner.num_ops(),
                "{context}"
            );
            let runs = sweeps.iter().filter(|&&name| name == "sweep:tiled").count();
            let listed = entry.in_place.iter().filter(|pass| pass.len() > 1).count();
            assert_eq!(runs, listed, "{context}, part {index}: {sweeps:?}");
            tiled += runs;
        }
    }
    (checked, tiled)
}

#[test]
fn the_schedule_predicts_the_exchanges_and_passes_of_the_run() {
    let mut exchanges = 0;
    let mut entries = 0;
    let strided = fusion::strided_passes();
    for circuit in [
        generators::random_circuit(QUBITS, 160, 5),
        generators::by_name("qaoa", QUBITS),
    ] {
        let dag = CircuitDag::from_circuit(&circuit);
        let partition = Strategy::DagP
            .partition(&dag, LIMIT)
            .expect("admits every gate");
        let single = FusedSinglePlan::new(&circuit, &dag, partition);
        let ml = MultilevelPartitioner
            .partition(&dag, LIMIT, 12)
            .expect("admits every gate");
        let two = FusedTwoLevelPlan::new(&circuit, &dag, ml);
        for ranks in [1, 2, 4] {
            for (engine, plan) in [
                ("dist", FusedPlan::Single(&single)),
                ("multilevel", FusedPlan::Two(&two)),
            ] {
                let schedule = plan.schedule(QUBITS, ranks);
                entries += check(&circuit, &schedule, engine).0;
                exchanges += schedule.exchanges();
            }
        }
    }
    // Exchanges, parts and strided tile walks were all checked.
    let strided = fusion::strided_passes() - strided;
    assert!(
        exchanges > 0 && entries > 0 && strided > 0,
        "{exchanges} {entries} {strided}"
    );

    // One rank, two tiles: the tiled segmentation is what is counted.
    let n = 17;
    let mut tiled = 0;
    for circuit in [generators::qft(n), generators::random_circuit(n, 120, 7)] {
        let dag = CircuitDag::from_circuit(&circuit);
        for limit in [8, 12, 17] {
            let partition = Strategy::DagP
                .partition(&dag, limit)
                .expect("admits every gate");
            let plan = FusedSinglePlan::new(&circuit, &dag, partition);
            let schedule = FusedPlan::Single(&plan).schedule(n, 1);
            let (checked, runs) = check(&circuit, &schedule, "hier");
            assert!(checked > 0, "{} at limit {limit}", circuit.name);
            tiled += runs;
        }
    }
    assert!(tiled > 0, "no part exercised a tiled run");
}
