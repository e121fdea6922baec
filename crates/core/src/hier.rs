//! The single-node hierarchical simulator: the Gather–Execute–Scatter engine
//! of Sec. III-B/C and Algorithm 1.
//!
//! The circuit is partitioned into acyclic parts; parts are executed in a
//! topological order of the quotient graph. Algorithm 1 runs each part on an
//! *inner* state vector over the part's working-set qubits: for every
//! assignment of the remaining (free) qubits the corresponding amplitudes are
//! gathered from the *outer* state vector, the part's gates (remapped onto
//! the inner register) are applied, and the results are scattered back.
//!
//! The move pays when the part then makes many passes over an inner vector
//! that sits in a faster memory level than the outer one: a gather and a
//! scatter stream the outer state once each, about the price of
//! [`GATHER_PASSES`] in-place sweeps. It is a pure loss when the part makes
//! fewer passes than that, when the inner vector *is* the outer one, or when
//! the outer state is already cache-resident. So [`part_mode`] decides per
//! part, from the plan alone, whether to gather at all; a part that does not
//! sweeps the outer state in place, one of its scheduled passes
//! ([`FusedCircuit::passes`], listed once in the plan's schedule) at a time.
//! A plan of one part always does: it is flat fused execution, which is what
//! the runtime's selector gives every circuit that fits the cache budget,
//! and what the runtime's runner gives a wider one when gathering shortens
//! none of its parts ([`PartPasses::gather_shortens`]).
//! Nor is a gathered part's arithmetic cache-resident by construction: a
//! 21-qubit inner vector is 32 MiB, past L2 here, and what keeps its sweeps
//! cheap is the fused executor's L2 tiling. Measured on the reference host
//! (README, "Reproducing the paper's artifacts"): at 22 qubits, where the
//! whole state fits the last-level cache, gathering a wide part never beats
//! sweeping in place; at 25 qubits it does on deep circuits.
//!
//! The two modes apply the same fused ops to the same amplitudes, but a
//! diagonal run folds its factors per 2^8-amplitude block of whichever vector
//! it sweeps, so a factor that sits inside a block in one mode and across the
//! block boundary in the other multiplies in a different order: states agree
//! to the last bit or two (2e-18 on `random(22, 528)`), not always bitwise.
//!
//! The engine is the one rank body ([`run_plan_rank`]) over the plan's
//! schedule ([`FusedPlan::schedule`]) on a world of one. That body walks an
//! in-place part pass by pass, a checkpoint between passes above one
//! [`TILE`]; this module owns what it runs a gathered part through
//! (`gather_part`), and the `part` span and tally every part leaves
//! (`open_part`).

#[cfg(doc)]
use crate::dist::run_plan_rank;
use crate::dist::{run_plan, RunSpec};
use crate::exec::ExecControl;
use crate::fusedplan::{FusedPlan, FusedSinglePlan, ScheduleEntry};
use crate::metrics::RunReport;
use hisvsim_circuit::{Circuit, Complex64};
use hisvsim_cluster::NetworkModel;
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_obs::SpanGuard;
use hisvsim_partition::{PartitionBuildError, Strategy};
use hisvsim_statevec::fusion::TILE;
use hisvsim_statevec::{
    buffers, ApplyOptions, CancelToken, Cancelled, FusedCircuit, GatherMap, KernelDispatch,
    StateVector,
};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the hierarchical engine.
#[derive(Debug, Clone, Copy)]
pub struct HierConfig {
    /// Working-set limit `Lm` (max qubits per part / inner state vector).
    pub limit: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Kernel dispatch for every inner-state sweep (auto-detected SIMD by
    /// default; forced scalar for differential validation).
    pub kernel_dispatch: KernelDispatch,
}

impl HierConfig {
    /// A configuration with the given limit and dagP strategy. The engine
    /// sweeps on the rayon pool it is called in: a gathered part splits its
    /// free-qubit assignments across the pool's threads, a part run in place
    /// sweeps with the default [`ApplyOptions`]. Install a one-thread pool
    /// to run it on one thread.
    pub fn new(limit: usize) -> Self {
        Self {
            limit,
            strategy: Strategy::DagP,
            kernel_dispatch: KernelDispatch::default(),
        }
    }

    /// Same configuration with a different strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Same configuration with a different kernel dispatch (see
    /// [`KernelDispatch`]).
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }
}

/// Result of a hierarchical run.
#[derive(Debug, Clone)]
pub struct HierRun {
    /// The final state vector.
    pub state: StateVector,
    /// Timing and structure metrics.
    pub report: RunReport,
    /// The partition that was executed.
    pub partition: Partition,
}

/// The single-node hierarchical simulator.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalSimulator {
    config: HierConfig,
}

impl HierarchicalSimulator {
    /// Create a simulator with the given configuration.
    pub fn new(config: HierConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> HierConfig {
        self.config
    }

    /// Partition and run `circuit` from `|0…0⟩`.
    pub fn run(&self, circuit: &Circuit) -> Result<HierRun, PartitionBuildError> {
        let dag = CircuitDag::from_circuit(circuit);
        let partition = self.config.strategy.partition(&dag, self.config.limit)?;
        Ok(self.run_with_partition(circuit, &dag, partition))
    }

    /// Run `circuit` with an externally supplied partition (used by the
    /// benchmark harness to reuse one partition across repetitions): fuse
    /// each part's inner circuit, then [`Self::run_with_fused_plan`].
    pub fn run_with_partition(
        &self,
        circuit: &Circuit,
        dag: &CircuitDag,
        partition: Partition,
    ) -> HierRun {
        let plan = FusedSinglePlan::new(circuit, dag, partition);
        self.run_with_fused_plan(circuit, &plan)
    }

    /// Run `circuit` against a prefused plan (e.g. one served by the
    /// runtime's plan cache): no DAG rebuild, no partitioning, no fusion —
    /// only the gather–execute–scatter sweeps remain, run by the one rank
    /// body on a world of one.
    pub fn run_with_fused_plan(&self, circuit: &Circuit, plan: &FusedSinglePlan) -> HierRun {
        let c = self.config;
        let network = NetworkModel::ideal();
        let spec = RunSpec::new("hier", c.strategy.name(), 1, network, c.kernel_dispatch);
        let inert = ExecControl::default();
        let schedule = FusedPlan::Single(plan).schedule(circuit.num_qubits(), 1);
        let (state, report) =
            run_plan(circuit, &schedule, spec, &inert).expect("an inert control cannot cancel");
        let partition = plan.partition.clone();
        HierRun {
            state,
            report,
            partition,
        }
    }
}

/// A gathered part's control plumbing: a cancel token polled inside the
/// part, and a throttled sub-part progress callback called with `(done,
/// total)` gather assignments at most ~32 times per part. The default has
/// neither.
#[derive(Clone, Copy, Default)]
pub(crate) struct SweepControl<'a> {
    /// Polled between assignments (sequential) / chunks (parallel).
    pub(crate) cancel: Option<&'a CancelToken>,
    /// Throttled sub-part progress sink.
    pub(crate) on_assignments: Option<&'a (dyn Fn(u64, u64) + Sync)>,
}

/// The gather–scatter round trip's price in whole-state passes: a gather
/// plus a scatter move 64 B per amplitude at the ledger's
/// `statevec.gather_scatter_gbps` (≈ 26 GB/s), a sweep 32 B at
/// `statevec.fused_apply_gbps` (46–53 GB/s) — four sweeps for the price of
/// the round trip, before the inner sweeps themselves are paid. A part
/// making at most this many passes in place is never gathered
/// ([`part_mode`]), and gathering shortens a part only if its gathered
/// passes plus this are fewer than its passes in place
/// ([`PartPasses::gather_shortens`]).
pub const GATHER_PASSES: usize = 4;

/// How a scheduled part runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartMode {
    /// Algorithm 1: gather every assignment's inner vector, run, scatter.
    Gather,
    /// Sweep the outer state itself through the qubit translation.
    InPlace,
}

impl PartMode {
    /// `gather` / `in_place`: the `mode` of the part span and of
    /// `hisvsim_hier_parts_total`.
    pub fn name(self) -> &'static str {
        match self {
            PartMode::Gather => "gather",
            PartMode::InPlace => "in_place",
        }
    }
}

/// Whether a part over `working_set` of an `outer_qubits`-qubit state is
/// gathered: a function of the plan and the state's width alone — not of the
/// thread count, `parallel` or the host — so every rank, world and repeat of
/// a job decides alike. The plan's schedule ([`FusedPlan::schedule`]) asks
/// it for every part that shares its exchange-free group with another. A
/// part runs in place when it has no free qubits (the gather would be an
/// identity copy), when the outer state fits one [`TILE`] (it is
/// L2-resident already), or when it would make at most [`GATHER_PASSES`]
/// passes over it in place. Wide many-pass parts
/// gather as Algorithm 1 says; whether *they* should is a host question
/// (ROADMAP item 6).
///
/// This rule is not the route's ([`PartPasses::gather_shortens`], which
/// keeps a hierarchy only where gathering makes fewer passes than sweeping
/// in place), and merging the two on pass counts alone is slower. Running
/// `large_random`'s plan (relabeled `random_circuit(22, 528, 1)` at limit
/// 21) with its parts 2 and 4 in place, the form `gather_shortens` prefers
/// (51 passes in place against 51 + 4 gathered, and 10 against 9 + 4), lost
/// 10, 10 and 11 of 12 interleaved rounds in three probes on a 2-vCPU Xeon
/// guest (medians 667 → 904, 631 → 727 and 639 → 694 ms: +35, +15 and
/// +9 %; states equal within 1e-10). Passes count bytes streamed, not where
/// they stream from or what they compute.
pub fn part_mode(outer_qubits: usize, passes: PartPasses) -> PartMode {
    match passes.gathered {
        Some(_) if 1usize << outer_qubits > TILE && passes.in_place > GATHER_PASSES => {
            PartMode::Gather
        }
        _ => PartMode::InPlace,
    }
}

/// The passes over memory one part makes in each of its two forms, counted
/// from the plan alone ([`FusedCircuit::passes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartPasses {
    /// Passes over the outer state when the part is swept in place.
    pub in_place: usize,
    /// Passes over memory of the gathered inner vectors, the round trip
    /// itself not counted: `inner.passes(k, None)` for a `k`-qubit working
    /// set, 0 when one inner vector fits a [`TILE`] (it is swept in L2).
    /// `None` when the part has no free qubit and so no gathered form.
    pub gathered: Option<usize>,
}

impl PartPasses {
    /// The passes of a part fused as `inner` (over its whole working set)
    /// on an `outer_qubits`-qubit state, whose passes in place are
    /// `in_place` ([`FusedCircuit::passes`] under the part's positions).
    pub fn new(outer_qubits: usize, inner: &FusedCircuit, in_place: &[Range<usize>]) -> Self {
        let k = inner.num_qubits();
        let gathered = (k < outer_qubits).then(|| match 1usize << k <= TILE {
            true => 0,
            false => inner.passes(k, None).count(),
        });
        Self {
            in_place: in_place.len(),
            gathered,
        }
    }

    /// Whether gathering shortens the part: its gathered passes plus the
    /// round trip ([`GATHER_PASSES`]) are fewer than its passes in place.
    /// Never for a part with no free qubit.
    pub fn gather_shortens(self) -> bool {
        self.gathered
            .is_some_and(|gathered| gathered + GATHER_PASSES < self.in_place)
    }
}

impl std::fmt::Display for PartPasses {
    /// `12 passes in place against 10 + 4 gathered`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} passes in place", self.in_place)?;
        match self.gathered {
            Some(gathered) => write!(f, " against {gathered} + {GATHER_PASSES} gathered"),
            None => f.write_str(" and no free qubit"),
        }
    }
}

/// Parts executed process-wide, indexed by [`PartMode`]
/// (`hisvsim_hier_parts_total`).
static PARTS_EXECUTED: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

/// How many parts this process has executed in `mode`. Monotonic; the
/// service syncs it into the metrics registry at scrape time.
pub fn parts_executed(mode: PartMode) -> u64 {
    PARTS_EXECUTED[mode as usize].load(Ordering::Relaxed)
}

/// An inner vector of `qubits` qubits for an outer state of `outer_qubits`,
/// from the process's buffer pool, with unspecified contents: the gather
/// overwrites every amplitude, so a vector left by an earlier part or job —
/// of this width or a wider one narrower than the outer state — serves as
/// well as a new one. Dropping it gives it back.
fn take_inner(qubits: usize, outer_qubits: usize) -> StateVector {
    let mut amps = buffers::take_scratch(1 << qubits, 1 << outer_qubits);
    amps.resize(1 << qubits, Complex64::ZERO);
    StateVector::from_amplitudes(amps)
}

/// Open one scheduled part: a tick in [`parts_executed`] for its form, and
/// while the recorder is on its `part` span (`mode=… ws=… passes=…
/// gathered=…`: the entry's [`PartPasses`], `gathered` absent for a part
/// with no free qubit), which the caller holds while the part runs. Every
/// part of every planned engine opens here, once per schedule entry.
pub(crate) fn open_part(entry: &ScheduleEntry<'_>) -> Option<SpanGuard> {
    PARTS_EXECUTED[entry.mode as usize].fetch_add(1, Ordering::Relaxed);
    hisvsim_obs::enabled().then(|| {
        let passes = entry.passes;
        let gathered = passes.gathered.map(|g| format!(" gathered={g}"));
        hisvsim_obs::span("kernel", "part").detail(format!(
            "mode={} ws={} passes={}{}",
            entry.mode.name(),
            entry.positions.len(),
            passes.in_place,
            gathered.unwrap_or_default()
        ))
    })
}

/// Gather–Execute–Scatter (Algorithm 1): for every assignment of the free
/// qubits, gather the inner vector over `working_set`, apply
/// `inner_circuit`, scatter back. Inner vectors are taken from the process's
/// buffer pool ([`buffers`]) and given back, cancelled or not.
///
/// Each assignment touches a disjoint set of outer indices (guaranteed by
/// [`GatherMap`]), so the parallel path shares the outer vector through a
/// raw pointer and splits assignments into chunks — several per thread, so
/// parts with few assignments still use every core, while each chunk reuses
/// one inner scratch buffer (the gather overwrites every inner amplitude,
/// making reuse safe).
///
/// `control`'s token, if any, is polled between assignments; its sink hears
/// the same points, at most ~32 times a part. On cancellation the outer
/// vector is left partially updated and the caller abandons it.
pub(crate) fn gather_part(
    outer: &mut StateVector,
    working_set: &[usize],
    inner_circuit: &FusedCircuit,
    parallel: bool,
    dispatch: KernelDispatch,
    control: SweepControl<'_>,
) -> Result<(), Cancelled> {
    let outer_qubits = outer.num_qubits();
    let map = GatherMap::new(outer_qubits, working_set);
    let opts = ApplyOptions::sequential().with_dispatch(dispatch);
    let assignments = 1usize << map.num_free_qubits();
    let cancel = control.cancel;
    // Throttle sub-part progress to ~32 reports per sweep.
    let progress_step = (assignments as u64 / 32).max(1);
    let report = |done: u64| {
        if let Some(on) = control.on_assignments {
            if done.is_multiple_of(progress_step) {
                on(done, assignments as u64);
            }
        }
    };
    // Both branches move amplitudes through the same run copies; the outer
    // vector is shared as a raw pointer because the parallel branch hands
    // disjoint assignments to different threads.
    let outer_ptr = OuterPtr(outer.amplitudes_mut().as_mut_ptr());
    let sweep_one = |assignment: usize, inner: &mut StateVector| {
        // SAFETY: `outer_ptr` addresses the whole outer state the map was
        // built for, and the index sets of distinct assignments are
        // disjoint, so no two threads touch the same amplitude.
        unsafe {
            map.gather_raw(outer_ptr.get(), assignment, inner);
            inner_circuit.apply(inner, &opts);
            map.scatter_raw(inner, outer_ptr.get(), assignment);
        }
    };
    if parallel && assignments >= 2 {
        let threads = rayon::current_num_threads().max(1);
        let per_chunk = (assignments / (threads * 4)).clamp(1, 8);
        let chunks = assignments.div_ceil(per_chunk);
        let done = AtomicU64::new(0);
        (0..chunks).into_par_iter().for_each(|chunk| {
            // A cancelled sweep skips remaining chunks (rayon offers no
            // early exit); the partial outer state is abandoned anyway.
            if cancel.is_some_and(|c| c.is_cancelled()) {
                return;
            }
            let mut inner = take_inner(map.inner_qubits(), outer_qubits);
            let first = chunk * per_chunk;
            let last = (first + per_chunk).min(assignments);
            for assignment in first..last {
                sweep_one(assignment, &mut inner);
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                report(completed);
            }
        });
    } else {
        let mut inner = take_inner(map.inner_qubits(), outer_qubits);
        for assignment in 0..assignments {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                break;
            }
            sweep_one(assignment, &mut inner);
            report(assignment as u64 + 1);
        }
    }
    cancel.map_or(Ok(()), CancelToken::check)
}

/// Raw-pointer wrapper so the per-assignment closures can reach disjoint
/// regions of the outer vector from several threads.
#[derive(Clone, Copy)]
struct OuterPtr(*mut Complex64);
// SAFETY: the wrapper only carries the pointer; `gather_part` states
// why the accesses made through it never overlap.
unsafe impl Send for OuterPtr {}
unsafe impl Sync for OuterPtr {}
impl OuterPtr {
    /// The pointer, through a method so closures capture the `Sync` wrapper.
    fn get(&self) -> *mut Complex64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusedplan::FusedSinglePlan;
    use hisvsim_circuit::generators;
    use hisvsim_statevec::run_circuit;

    fn check_against_flat(circuit: &Circuit, limit: usize, strategy: Strategy, parallel: bool) {
        let expected = run_circuit(circuit);
        let sim = HierarchicalSimulator::new(HierConfig::new(limit).with_strategy(strategy));
        let threads = if parallel { 0 } else { 1 };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the pool builds");
        let run = pool.install(|| sim.run(circuit)).unwrap();
        assert!(
            run.state.approx_eq(&expected, 1e-9),
            "{} limit={limit} strategy={} parallel={parallel}: hierarchical result diverges (max diff {})",
            circuit.name,
            strategy.name(),
            run.state.max_abs_diff(&expected)
        );
        assert_eq!(run.report.num_parts, run.partition.num_parts());
        assert!(run.report.total_time_s >= 0.0);
    }

    #[test]
    fn hierarchical_matches_flat_on_benchmark_suite() {
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 9);
            for limit in [4usize, 6, 9] {
                check_against_flat(&circuit, limit, Strategy::DagP, false);
            }
        }
    }

    #[test]
    fn all_strategies_produce_the_same_state() {
        for name in ["qft", "grover", "qaoa"] {
            let circuit = generators::by_name(name, 8);
            for strategy in Strategy::ALL {
                check_against_flat(&circuit, 5, strategy, false);
            }
        }
    }

    #[test]
    fn parallel_assignment_loop_matches_sequential() {
        for name in ["qft", "adder", "ising"] {
            let circuit = generators::by_name(name, 10);
            check_against_flat(&circuit, 5, Strategy::DagP, true);
        }
    }

    #[test]
    fn in_place_and_gathered_execution_of_a_part_agree() {
        let dispatch = KernelDispatch::default();
        for name in generators::FAMILY_NAMES {
            for n in 10usize..=12 {
                let circuit = generators::by_name(name, n);
                let dag = CircuitDag::from_circuit(&circuit);
                let partition = Strategy::DagP.partition(&dag, n - 3).unwrap();
                let plan = FusedSinglePlan::new(&circuit, &dag, partition);
                let mut gathered = StateVector::zero_state(n);
                let mut in_place = StateVector::zero_state(n);
                for part in &plan.parts {
                    gather_part(
                        &mut gathered,
                        &part.working_set,
                        &part.inner,
                        n % 2 == 0,
                        dispatch,
                        SweepControl::default(),
                    )
                    .unwrap();
                    let opts = ApplyOptions::sequential().with_dispatch(dispatch);
                    part.inner
                        .apply_mapped(&mut in_place, &part.working_set, &opts);
                }
                // The same ops on the same amplitudes; a diagonal run may
                // fold its factors in another order (module doc).
                let diff = gathered.max_abs_diff(&in_place);
                assert!(diff < 1e-12, "{name}@{n}: modes differ by {diff}");
                if *name == "qft" {
                    assert_eq!(gathered, in_place, "qft@{n}");
                }
            }
        }
    }

    #[test]
    fn gathering_shortens_a_part_only_by_more_than_the_round_trip() {
        // Sixteen unfusable gates on high qubits: in place, none tiles.
        let mut circuit = Circuit::new(17);
        for _ in 0..8 {
            circuit.cx(16, 15).cx(15, 16);
        }
        let inner = FusedCircuit::new(&circuit, 1);
        let part_passes = |outer: usize, working_set: Range<usize>, inner: &FusedCircuit| {
            let positions: Vec<usize> = working_set.collect();
            let in_place: Vec<_> = inner.passes(outer, Some(&positions)).collect();
            PartPasses::new(outer, inner, &in_place)
        };
        // A 17-qubit inner vector of an 18-qubit state is past one tile.
        let wide = part_passes(18, 1..18, &inner);
        assert_eq!(wide.in_place, 16);
        assert!(wide.gathered.is_some_and(|g| g > 0));
        // A tile-sized inner vector is swept in L2: 0 passes over memory.
        let mut narrow = Circuit::new(16);
        for _ in 0..8 {
            narrow.cx(15, 14).cx(14, 15);
        }
        let narrow = FusedCircuit::new(&narrow, 1);
        let tile = part_passes(18, 2..18, &narrow);
        assert_eq!((tile.in_place, tile.gathered), (16, Some(0)));
        assert!(tile.gather_shortens());
        // No free qubit, no gathered form, whatever the passes.
        let whole = part_passes(17, 0..17, &inner);
        assert_eq!(whole.gathered, None);
        assert!(!whole.gather_shortens());
        // The round trip must be beaten, not matched.
        let at = |in_place, gathered| PartPasses {
            in_place,
            gathered: Some(gathered),
        };
        assert!(!at(14, 10).gather_shortens());
        assert!(at(15, 10).gather_shortens());
        assert_eq!(
            at(12, 10).to_string(),
            "12 passes in place against 10 + 4 gathered"
        );
    }

    #[test]
    fn single_part_run_equals_flat_simulation() {
        let circuit = generators::by_name("bv", 8);
        let sim = HierarchicalSimulator::new(HierConfig::new(8));
        let run = sim.run(&circuit).unwrap();
        assert_eq!(run.report.num_parts, 1);
        assert!(run.state.approx_eq(&run_circuit(&circuit), 1e-10));
    }

    #[test]
    fn random_circuits_match_flat() {
        for seed in 0..5 {
            let circuit = generators::random_circuit(8, 80, seed);
            check_against_flat(&circuit, 4, Strategy::DagP, seed % 2 == 0);
        }
    }

    #[test]
    fn report_carries_circuit_metadata() {
        let circuit = generators::by_name("cc", 9);
        let run = HierarchicalSimulator::new(HierConfig::new(5))
            .run(&circuit)
            .unwrap();
        assert_eq!(run.report.circuit, circuit.name);
        assert_eq!(run.report.num_qubits, 9);
        assert_eq!(run.report.num_gates, circuit.num_gates());
        assert_eq!(run.report.engine, "hier");
        assert_eq!(run.report.strategy, "dagP");
    }

    #[test]
    fn limit_below_max_arity_is_an_error() {
        let circuit = generators::adder(8);
        let result = HierarchicalSimulator::new(HierConfig::new(2)).run(&circuit);
        assert!(matches!(
            result,
            Err(PartitionBuildError::GateExceedsLimit { .. })
        ));
    }

    #[test]
    fn every_fusion_width_agrees_with_flat() {
        for name in ["qft", "adder", "ising", "qaoa"] {
            let circuit = generators::by_name(name, 9);
            let expected = run_circuit(&circuit);
            let dag = CircuitDag::from_circuit(&circuit);
            let partition = Strategy::DagP.partition(&dag, 5).unwrap();
            let sim = HierarchicalSimulator::new(HierConfig::new(5));
            for width in [1usize, 3, 5] {
                let plan = FusedSinglePlan::build_with_strategy(
                    &circuit,
                    &dag,
                    partition.clone(),
                    width,
                    Default::default(),
                );
                let fused = sim.run_with_fused_plan(&circuit, &plan);
                assert!(fused.state.approx_eq(&expected, 1e-9));
            }
        }
    }

    #[test]
    fn prefused_plan_execution_matches_planning_inline() {
        let circuit = generators::by_name("grover", 9);
        let sim = HierarchicalSimulator::new(HierConfig::new(5));
        let dag = CircuitDag::from_circuit(&circuit);
        let partition = sim.config().strategy.partition(&dag, 5).unwrap();
        let plan = FusedSinglePlan::new(&circuit, &dag, partition);
        let via_plan = sim.run_with_fused_plan(&circuit, &plan);
        let inline = sim.run(&circuit).unwrap();
        // Same partition, same fused ops, same execution order: bit-identical.
        assert_eq!(via_plan.state, inline.state);
    }

    #[test]
    fn norm_is_preserved_through_many_parts() {
        let circuit = generators::by_name("qpe", 10);
        let run = HierarchicalSimulator::new(HierConfig::new(3))
            .run(&circuit)
            .unwrap();
        assert!((run.state.norm_sqr() - 1.0).abs() < 1e-9);
        assert!(run.report.num_parts > 1);
    }
}
