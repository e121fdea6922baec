//! Cancel agreement through the rank bodies — the one every planned engine
//! runs, and the baseline's — on both worlds: a token fired while the ranks
//! race through their schedule stops every rank at the same checkpoint or
//! none of them, the world it ran on is left with nothing pending, and the
//! next run is correct.
//!
//! The thread world shares one token between its ranks (what `run_plan`
//! does); the TCP world gives every rank a token of its own and fires one of
//! them (what a `Cancel` frame reaching one worker first does). A thread
//! world of one rank running a single-level plan is the hier engine.
//!
//! On slices above one tile (2^16 amplitudes) every pass is a checkpoint, so
//! the stop lands within one pass, an exact count of progress reports.

use hisvsim_circuit::{generators, Circuit, Complex64};
use hisvsim_cluster::{world, NetworkModel, RankComm};
use hisvsim_core::{
    run_baseline_rank, run_plan_rank, BaselineSchedule, CancelToken, Cancelled, ExecControl,
    FusedPlan, FusedSinglePlan, FusedTwoLevelPlan, PlanSchedule, RankOutcome,
};
use hisvsim_dag::CircuitDag;
use hisvsim_net::tcp_world;
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_statevec::fusion::TILE;
use hisvsim_statevec::{run_circuit, KernelDispatch, StateVector};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const QUBITS: usize = 10;
/// Slices of 18 and 17 qubits on 2 and 4 ranks: above one tile.
const WIDE: usize = 19;
const ROUNDS: u64 = 50;

/// One engine's plan for one circuit and world size, with the rank body
/// that runs it.
struct Schedule {
    qubits: usize,
    plan: Plan,
}

enum Plan {
    Dist(FusedSinglePlan),
    Multilevel(FusedTwoLevelPlan),
    Baseline(BaselineSchedule),
}

impl Schedule {
    /// Small limits on a narrow circuit, so the schedule has many
    /// checkpoints to stop at; on a wide one, parts of the slice's width
    /// (second-level parts four qubits narrower), so in-place parts make
    /// several passes each.
    fn build(engine: &str, circuit: &Circuit, ranks: usize) -> Self {
        let qubits = circuit.num_qubits();
        let dag = CircuitDag::from_circuit(circuit);
        let local = qubits - ranks.trailing_zeros() as usize;
        // The dist limit, and the multilevel engine's two.
        let (limit, first, second) = match qubits > QUBITS {
            true => (local, local, local - 4),
            false => (local.min(5), local.min(6), 3),
        };
        let plan = match engine {
            "dist" => {
                let partition = Strategy::DagP.partition(&dag, limit).unwrap();
                Plan::Dist(FusedSinglePlan::new(circuit, &dag, partition))
            }
            "multilevel" => {
                let ml = MultilevelPartitioner
                    .partition(&dag, first, second)
                    .unwrap();
                Plan::Multilevel(FusedTwoLevelPlan::new(circuit, &dag, ml))
            }
            "baseline" => Plan::Baseline(BaselineSchedule::build(circuit, ranks)),
            other => panic!("unknown engine {other}"),
        };
        Self { qubits, plan }
    }

    /// The planned engines' compiled schedule for `ranks` ranks.
    fn compiled(&self, ranks: usize) -> Option<PlanSchedule<'_>> {
        match &self.plan {
            Plan::Dist(plan) => Some(FusedPlan::Single(plan).schedule(self.qubits, ranks)),
            Plan::Multilevel(plan) => Some(FusedPlan::Two(plan).schedule(self.qubits, ranks)),
            Plan::Baseline(_) => None,
        }
    }

    fn run_rank<C: RankComm<Complex64>>(
        &self,
        comm: &mut C,
        control: &ExecControl,
    ) -> Result<RankOutcome, Cancelled> {
        let dispatch = KernelDispatch::default();
        match (&self.plan, self.compiled(comm.size())) {
            (Plan::Baseline(schedule), _) => run_baseline_rank(comm, schedule, dispatch, control),
            (_, Some(schedule)) => run_plan_rank(comm, &schedule, dispatch, control),
            (_, None) => unreachable!("a planned engine compiles"),
        }
    }
}

/// The checkpoints a planned engine's rank body makes, each ending in rank
/// 0's report: one per pass of a part on a slice above one tile, one per
/// part otherwise.
fn checkpoints(schedule: &PlanSchedule<'_>) -> usize {
    let above_a_tile = 1usize << schedule.local_qubits() > TILE;
    let per_entry = (schedule.entries.iter()).map(|entry| match above_a_tile {
        true => entry.in_place.len(),
        false => 1,
    });
    per_entry.sum()
}

/// Run every rank of `world` on its own thread, rank `r` under `controls[r]`,
/// while `meanwhile` runs beside them.
fn run_world<C: RankComm<Complex64> + Send>(
    world: Vec<C>,
    schedule: &Schedule,
    controls: &[ExecControl],
    meanwhile: impl FnOnce() + Send,
) -> Vec<Result<RankOutcome, Cancelled>> {
    assert_eq!(world.len(), controls.len());
    std::thread::scope(|scope| {
        let ranks: Vec<_> = world
            .into_iter()
            .zip(controls)
            .map(|(mut comm, control)| scope.spawn(move || schedule.run_rank(&mut comm, control)))
            .collect();
        scope.spawn(meanwhile);
        ranks
            .into_iter()
            .map(|rank| rank.join().expect("rank body panicked"))
            .collect()
    })
}

/// The worlds under test.
#[derive(Clone, Copy, Debug)]
enum World {
    /// Thread-world ranks sharing one token; one rank is the hier shape for
    /// a single-level plan.
    Local(usize),
    /// TCP ranks with a token each.
    Tcp(usize),
}

impl World {
    fn ranks(self) -> usize {
        match self {
            World::Local(ranks) | World::Tcp(ranks) => ranks,
        }
    }

    /// One control per rank, and the token `victim` observes.
    fn controls(self, victim: usize) -> (Vec<ExecControl>, CancelToken) {
        match self {
            World::Local(_) => {
                let control = ExecControl::new();
                let token = control.cancel.clone();
                (vec![control; self.ranks()], token)
            }
            World::Tcp(_) => {
                let controls: Vec<ExecControl> =
                    (0..self.ranks()).map(|_| ExecControl::new()).collect();
                let token = controls[victim].cancel.clone();
                (controls, token)
            }
        }
    }

    fn run(
        self,
        schedule: &Schedule,
        controls: &[ExecControl],
        meanwhile: impl FnOnce() + Send,
    ) -> Vec<Result<RankOutcome, Cancelled>> {
        match self {
            World::Local(ranks) => run_world(world(ranks), schedule, controls, meanwhile),
            World::Tcp(_) => {
                let mesh = tcp_world(self.ranks(), NetworkModel::ideal()).expect("loopback mesh");
                run_world(mesh, schedule, controls, meanwhile)
            }
        }
    }
}

/// All ranks finished: their slices, in rank order, are the state under
/// the layout they ended in.
fn assemble(outcomes: Vec<Result<RankOutcome, Cancelled>>) -> Option<StateVector> {
    let slices: Result<Vec<RankOutcome>, Cancelled> = outcomes.into_iter().collect();
    let slices = slices.ok()?;
    let layout = slices[0].layout.clone();
    let amps = slices.into_iter().flat_map(|outcome| outcome.local);
    let mut state = StateVector::from_amplitudes(amps.collect());
    state.permute_qubits(&layout);
    Some(state)
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fail instead of hanging: a rank stranded in a collective never returns.
fn within(limit: Duration, test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => runner.join().expect("test body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the sender was dropped unsent"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no result within {limit:?}: a rank is stranded in a collective")
        }
    }
}

/// `ROUNDS` races per world: fire a token at a pseudo-random moment of the
/// run, demand all-or-none, then demand a correct run on a fresh world.
fn racing_cancel_is_all_or_none(engine: &'static str) {
    within(Duration::from_secs(240), move || {
        let circuit = generators::qft(QUBITS);
        let expected = run_circuit(&circuit);
        for world in [World::Local(4), World::Tcp(2)] {
            let schedule = Schedule::build(engine, &circuit, world.ranks());
            let inert = || world.controls(0).0;
            let start = Instant::now();
            let reference = assemble(world.run(&schedule, &inert(), || ()))
                .expect("an inert control cannot cancel");
            let run_us = start.elapsed().as_micros() as u64;
            assert!(reference.approx_eq(&expected, 1e-9), "{engine} {world:?}");

            let mut cancelled_rounds = 0;
            for round in 0..ROUNDS {
                let draw = splitmix(round ^ ((engine.len() as u64) << 32));
                let victim = (draw >> 48) as usize % world.ranks();
                let delay = Duration::from_micros(draw % (run_us * 5 / 4 + 1));
                let (controls, token) = world.controls(victim);
                let outcomes = world.run(&schedule, &controls, || {
                    std::thread::sleep(delay);
                    token.cancel();
                });
                let stopped = outcomes.iter().filter(|rank| rank.is_err()).count();
                assert!(
                    stopped == 0 || stopped == world.ranks(),
                    "{engine} {world:?} round {round}: {stopped} of {} ranks stopped",
                    world.ranks()
                );
                match assemble(outcomes) {
                    Some(state) => assert_eq!(state, reference, "{engine} {world:?} {round}"),
                    None => cancelled_rounds += 1,
                }
                let next = assemble(world.run(&schedule, &inert(), || ()));
                assert_eq!(
                    next.as_ref(),
                    Some(&reference),
                    "{engine} {world:?}: the run after round {round}"
                );
            }
            println!("{engine} {world:?}: {cancelled_rounds} of {ROUNDS} rounds cancelled");
        }
    });
}

/// Rank 0's sink fires the token from inside its report of step `k`: the
/// vote before step `k + 1` is the first to see it, so every rank stops there
/// and the report of step `k` is the last. A planned engine's uncancelled
/// run reports once per checkpoint its schedule makes.
fn cancel_from_the_sink_stops_at_the_next_checkpoint(
    engine: &'static str,
    qubits: usize,
    worlds: &[World],
) {
    let worlds = worlds.to_vec();
    within(Duration::from_secs(120), move || {
        let circuit = generators::qft(qubits);
        for world in worlds {
            let schedule = Schedule::build(engine, &circuit, world.ranks());
            let steps = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&steps);
            let (mut controls, _) = world.controls(0);
            controls[0] = ExecControl::new().with_progress(move |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert!(assemble(world.run(&schedule, &controls, || ())).is_some());
            let total = steps.load(Ordering::SeqCst);
            assert!(total >= 4, "{engine} {world:?}: only {total} steps");
            if let Some(compiled) = schedule.compiled(world.ranks()) {
                assert_eq!(total, checkpoints(&compiled), "{engine} {world:?}");
                // Above one tile some part stops between its passes.
                let entries = compiled.entries.len();
                assert!(qubits == QUBITS || total > entries, "{engine} {world:?}");
            }

            for k in [0, total / 2, total - 2] {
                let (mut controls, token) = world.controls(0);
                let reports = Arc::new(AtomicUsize::new(0));
                let seen = Arc::clone(&reports);
                controls[0] =
                    ExecControl::new()
                        .with_cancel(token.clone())
                        .with_progress(move |_, _| {
                            if seen.fetch_add(1, Ordering::SeqCst) == k {
                                token.cancel();
                            }
                        });
                let outcomes = world.run(&schedule, &controls, || ());
                assert!(
                    outcomes.iter().all(|rank| rank.is_err()),
                    "{engine} {world:?}: a rank ran on past step {k}"
                );
                assert_eq!(
                    reports.load(Ordering::SeqCst),
                    k + 1,
                    "{engine} {world:?}: the stop did not land at step {}",
                    k + 1
                );
            }
        }
    });
}

#[test]
fn dist_racing_cancel_is_all_or_none_on_both_worlds() {
    racing_cancel_is_all_or_none("dist");
}

#[test]
fn multilevel_racing_cancel_is_all_or_none_on_both_worlds() {
    racing_cancel_is_all_or_none("multilevel");
}

#[test]
fn baseline_racing_cancel_is_all_or_none_on_both_worlds() {
    racing_cancel_is_all_or_none("baseline");
}

#[test]
fn a_cancel_fired_after_step_k_stops_every_engine_at_step_k_plus_one() {
    let worlds = [World::Local(4), World::Tcp(2)];
    for engine in ["dist", "multilevel", "baseline"] {
        cancel_from_the_sink_stops_at_the_next_checkpoint(engine, QUBITS, &worlds);
    }
    // The hier shape: every part of the plan in one step, a vote between
    // parts.
    cancel_from_the_sink_stops_at_the_next_checkpoint("dist", QUBITS, &[World::Local(1)]);
}

#[test]
fn above_one_tile_a_cancel_stops_every_rank_within_one_pass() {
    let worlds = [
        World::Local(2),
        World::Local(4),
        World::Tcp(2),
        World::Tcp(4),
    ];
    for engine in ["dist", "multilevel", "baseline"] {
        cancel_from_the_sink_stops_at_the_next_checkpoint(engine, WIDE, &worlds);
    }
}
