//! A compiled schedule is the run: for single-level and two-level plans on
//! worlds of 1, 2 and 4 ranks, the exchanges `FusedPlan::schedule` predicts
//! are the ones the run reports, every rank leaves one `part` span per entry
//! with the entry's pass count, and each part's listed passes are the sweep
//! spans the recorder holds for it, its tiled runs the `sweep:tiled` ones
//! (every sweep of 2^16 amplitudes or more is recorded, so every slice here
//! is at least that wide). What each rank's spans say it swept — bytes, and
//! a tiled run's live tiles — is what `PlanSchedule::swept_amplitudes`
//! predicts for that rank, a rank whose slice is still zero sweeping
//! nothing. The runner's cost verdict reads these counts, so they have to be
//! exact; single-level plans of 17-qubit circuits on one rank, two tiles
//! wide, check them at several limits, and the runs here stride tiles
//! across qubits above them.
//!
//! Each tiled run also names the threads it ran on: the rank's share of the
//! world's cores among the ranks the pass finds live, `max(1, cores /
//! live_ranks)`, wherever the slice is wide enough to sweep on the pool at
//! all, and no more threads than live tiles. Every run here splits a budget
//! of `CORES` installed by the test, so the counts do not depend on the
//! host; a 20-qubit plan on two ranks, whose slices reach the parallel
//! threshold, shows one live rank sweeping on the whole budget and two
//! splitting it.
//!
//! The masks the schedule hands each pass are the truth, op by op: run
//! step by step on one whole state, every nonzero amplitude before op `k`
//! of a pass sets only positions of `pass.live | mixing(pass.start..k)` —
//! the fold a tiled pass takes inside its tiles to leave out zero groups
//! and diagonal runs that multiply only ones. A narrowed mask is caught.
//!
//! The tests run one at a time ([`RECORDER`]): the recorder is
//! process-wide.

use hisvsim_circuit::{generators, Circuit, Complex64};
use hisvsim_cluster::on_threads;
use hisvsim_core::{
    run_plan, ExecControl, FusedPlan, FusedSinglePlan, FusedTwoLevelPlan, PlanSchedule, RunSpec,
};
use hisvsim_dag::CircuitDag;
use hisvsim_obs::SpanRecord;
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_statevec::fusion::{self, Support, TILE};
use hisvsim_statevec::{run_circuit, ApplyOptions, StateVector};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Held by every test: a sweep records spans while another test has the
/// process-wide recorder on.
static RECORDER: Mutex<()> = Mutex::new(());

/// Qubits of every state: 17-qubit slices, two tiles, on four ranks.
const QUBITS: usize = 19;
/// The (first-level) working-set limit, the widest slice four ranks have.
const LIMIT: usize = 17;
/// The core budget every run splits among its live ranks.
const CORES: usize = 4;

/// What one run of a schedule showed: the entries checked, the tiled runs
/// they made, how many of those swept no tile, and the most threads one
/// of them ran on.
#[derive(Default)]
struct Checked {
    entries: usize,
    tiled: usize,
    empty: usize,
    widest: usize,
}

/// The live tiles a `sweep:tiled` span's detail reports (`… N of M tiles …`).
fn tiles_reported(detail: &str) -> usize {
    let head = detail.split(" of ").next().expect("a tile count");
    let live = head.rsplit(", ").next().expect("a tile count");
    live.parse().expect("a tile count")
}

/// The threads a `sweep:tiled` span's detail says it ran on (`…, on N
/// threads`).
fn threads_reported(detail: &str) -> usize {
    let tail = detail.rsplit(", on ").next().expect("a thread count");
    let count = tail.strip_suffix(" threads").expect("a thread count");
    count.parse().expect("a thread count")
}

/// Check one run of `schedule` against the spans it left.
fn check(circuit: &Circuit, schedule: &PlanSchedule<'_>, engine: &str) -> Checked {
    let ranks = schedule.ranks;
    let spec = RunSpec::new(engine, "dagP", ranks, Default::default());
    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    let (state, report) = on_threads(CORES, || {
        run_plan(circuit, schedule, spec, &ExecControl::default())
    })
    .expect("nothing cancels");
    hisvsim_obs::set_enabled(false);
    let spans = hisvsim_obs::drain();
    let context = format!("{} as {engine} on {ranks} ranks", circuit.name);
    let l = schedule.local_qubits();
    let on_pool = ApplyOptions::default().parallel_threshold <= 1 << l;
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
    let mut checked = Checked::default();
    // What each rank's thread swept, pass by pass, in amplitudes.
    let mut swept: Vec<Vec<usize>> = Vec::new();
    for (tid, mut rank_parts) in parts {
        let mut rank_swept = Vec::new();
        rank_parts.sort_by_key(|span| span.ts_us);
        assert_eq!(rank_parts.len(), schedule.entries.len(), "{context}");
        for (index, (entry, span)) in schedule.entries.iter().zip(&rank_parts).enumerate() {
            let detail = format!(
                "ws={} passes={}",
                entry.positions.len(),
                entry.in_place.len()
            );
            assert_eq!(span.detail, detail, "{context}");
            checked.entries += 1;
            let until = rank_parts
                .get(index + 1)
                .map_or(u64::MAX, |next| next.ts_us);
            let sweeps: Vec<&SpanRecord> = (spans.iter())
                .filter(|s| s.tid == tid && s.cat == "kernel" && s.name.starts_with("sweep"))
                .filter(|s| (span.ts_us..until).contains(&s.ts_us))
                .collect();
            let names: Vec<&str> = sweeps.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                sweeps.len(),
                entry.in_place.len(),
                "{context}, part {index}"
            );
            assert!(
                entry.in_place.len() <= entry.part.inner.num_ops(),
                "{context}"
            );
            let runs: Vec<&SpanRecord> = (sweeps.iter().copied())
                .filter(|s| s.name == "sweep:tiled")
                .collect();
            let listed: Vec<_> = (entry.in_place.iter())
                .filter(|pass| pass.ops.len() > 1)
                .collect();
            assert_eq!(
                runs.len(),
                listed.len(),
                "{context}, part {index}: {names:?}"
            );
            for (run, pass) in runs.iter().zip(listed) {
                let tiles = tiles_reported(&run.detail);
                assert_eq!(run.bytes, (tiles * TILE * 32) as u64, "{context}");
                checked.empty += usize::from(tiles == 0);
                let share = (CORES / pass.live_ranks(ranks, l)).max(1);
                let threads = match on_pool {
                    true => share.min(tiles).max(1),
                    false => 1,
                };
                let reported = threads_reported(&run.detail);
                assert_eq!(reported, threads, "{context}, part {index}: {}", run.detail);
                checked.widest = checked.widest.max(reported);
            }
            checked.tiled += runs.len();
            rank_swept.extend(sweeps.iter().map(|s| s.bytes as usize / 32));
        }
        swept.push(rank_swept);
    }
    // Thread lanes do not name ranks: the ranks' sweeps, as a set, are the
    // predicted ones.
    let mut predicted: Vec<Vec<usize>> = (0..ranks).map(|r| schedule.swept_amplitudes(r)).collect();
    predicted.sort();
    swept.sort();
    assert_eq!(swept, predicted, "{context}");
    checked
}

#[test]
fn the_schedule_predicts_the_exchanges_and_passes_of_the_run() {
    let _serial = RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
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
                let checked = check(&circuit, &schedule, engine);
                entries += checked.entries;
                exchanges += schedule.exchanges();
                // One rank runs alone; more split the state, and some rank's
                // slice is zero until a pass mixes its rank bits.
                assert_eq!(checked.empty > 0, ranks > 1, "{engine} on {ranks}");
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
            let checked = check(&circuit, &schedule, "hier");
            assert!(checked.entries > 0, "{} at limit {limit}", circuit.name);
            tiled += checked.tiled;
        }
    }
    assert!(tiled > 0, "no part exercised a tiled run");

    // Two ranks, slices at the parallel threshold: while rank 1's slice is
    // zero, rank 0 sweeps on every core; once both are live, on half.
    let n = 20;
    let circuit = generators::qft(n);
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP
        .partition(&dag, n - 1)
        .expect("admits every gate");
    let plan = FusedSinglePlan::new(&circuit, &dag, partition);
    let schedule = FusedPlan::Single(&plan).schedule(n, 2);
    let shares: Vec<usize> = (schedule.entries.iter())
        .flat_map(|entry| &entry.in_place)
        .filter(|pass| pass.ops.len() > 1)
        .map(|pass| CORES / pass.live_ranks(2, n - 1))
        .collect();
    assert!(
        shares.contains(&CORES) && shares.contains(&(CORES / 2)),
        "{shares:?}"
    );
    let checked = check(&circuit, &schedule, "dist");
    assert_eq!(
        checked.widest, CORES,
        "a lone live rank sweeps on the whole budget"
    );
}

/// Walk `schedule` op by op on one whole state of `circuit`, its index bits
/// the schedule's positions (rank bits included): each exchange moves every
/// qubit to its new position, each op sweeps the whole state. Before op `k`
/// of every pass, the positions some nonzero amplitude sets must lie in
/// `pass.live | mixing(pass.start..k)`; the first op where they do not is
/// returned, with the positions set outside. At the end the state, put back
/// in qubit order, is the flat reference's.
fn first_op_outside_its_mask(circuit: &Circuit, schedule: &PlanSchedule<'_>) -> Option<String> {
    let n = schedule.num_qubits;
    let opts = ApplyOptions::default();
    let mut state = StateVector::zero_state(n);
    let mut layout = schedule.start.clone();
    for (index, entry) in schedule.entries.iter().enumerate() {
        if let Some(next) = &entry.exchange {
            // Position `next[q]` takes what position `layout[q]` held.
            let mut perm = vec![0; n];
            for q in 0..n {
                perm[next[q]] = layout[q];
            }
            state.permute_qubits(&perm);
            layout.clone_from(next);
        }
        let (inner, map) = (&entry.part.inner, Some(&entry.positions[..]));
        for pass in &entry.in_place {
            for k in pass.ops.clone() {
                let set = (state.amplitudes().iter().enumerate())
                    .filter(|(_, amp)| **amp != Complex64::ZERO)
                    .fold(0u64, |set, (i, _)| set | i as u64);
                let allowed = pass.live | inner.mixing(pass.ops.start..k, map);
                if set & !allowed != 0 {
                    let outside = set & !allowed;
                    return Some(format!("part {index}, op {k} of {pass:?}: {outside:#b}"));
                }
                inner.apply_pass(&mut state, k..k + 1, map, Support::ANY, &opts);
            }
        }
    }
    state.permute_qubits(&layout);
    let reference = run_circuit(circuit);
    assert!(
        state.approx_eq(&reference, 1e-9),
        "{} walked op by op",
        circuit.name
    );
    None
}

#[test]
fn every_op_finds_nonzero_amplitudes_only_where_the_schedule_says() {
    let _serial = RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let circuits = [
        generators::qft(19),
        generators::qpe(18),
        generators::adder(17),
        generators::random_circuit(18, 120, 0x11FE),
    ];
    for circuit in circuits {
        let n = circuit.num_qubits();
        let dag = CircuitDag::from_circuit(&circuit);
        let partition = Strategy::DagP
            .partition(&dag, n - 2)
            .expect("admits every gate");
        let plan = FusedSinglePlan::new(&circuit, &dag, partition);
        for ranks in [1, 2, 4] {
            let schedule = FusedPlan::Single(&plan).schedule(n, ranks);
            let wrong = first_op_outside_its_mask(&circuit, &schedule);
            assert_eq!(wrong, None, "{} on {ranks} ranks", circuit.name);
        }
    }
}

#[test]
fn a_narrowed_mask_is_caught() {
    let _serial = RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let circuit = generators::qft(17);
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP
        .partition(&dag, 17)
        .expect("admits every gate");
    let plan = FusedSinglePlan::new(&circuit, &dag, partition);
    let schedule = FusedPlan::Single(&plan).schedule(17, 1);
    assert_eq!(first_op_outside_its_mask(&circuit, &schedule), None);
    // The last pass starts after the H on every qubit but the last: clear
    // one position its mask holds, and the walk finds it set.
    let mut narrowed = schedule.clone();
    let entry = narrowed.entries.last_mut().expect("a part");
    let pass = entry.in_place.last_mut().expect("a pass");
    assert_ne!(pass.live, 0, "the last pass starts from a mixed state");
    pass.live &= pass.live - 1;
    let caught = first_op_outside_its_mask(&circuit, &narrowed);
    assert!(caught.is_some(), "a narrowed mask went unnoticed");
}
