//! The single-node hierarchical simulator: the Gather–Execute–Scatter engine
//! of Sec. III-B/C and Algorithm 1.
//!
//! The circuit is partitioned into acyclic parts; parts are executed in a
//! topological order of the quotient graph. Algorithm 1 runs each part on a
//! smaller state vector so that its sweeps stay cache-resident. Here that
//! smaller vector is a tile: every part is swept over the outer state in
//! place, one of its scheduled passes ([`FusedCircuit::passes`], listed once
//! in the plan's schedule) at a time, and a pass of several ops gathers each
//! 2^16-amplitude tile it mixes — strided chunks when its ops reach above
//! them — into a buffer that stays in L2, runs every op of the pass there
//! and scatters the tile back. No part builds an inner vector of its whole
//! working set: one of 21 qubits would be 32 MiB, past L2.
//!
//! The engine is the one rank body ([`run_plan_rank`]) over the plan's
//! schedule ([`FusedPlan::schedule`]) on a world of one. That body walks a
//! part pass by pass, a checkpoint between passes above one [`TILE`]; this
//! module owns the `part` span and tally every part leaves (`open_part`).

#[cfg(doc)]
use crate::dist::run_plan_rank;
use crate::dist::{run_plan, RunSpec};
use crate::exec::ExecControl;
use crate::fusedplan::{FusedPlan, FusedSinglePlan, ScheduleEntry};
use crate::metrics::RunReport;
use hisvsim_circuit::Circuit;
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_obs::SpanGuard;
use hisvsim_partition::{PartitionBuildError, Strategy};
#[cfg(doc)]
use hisvsim_statevec::{fusion::TILE, FusedCircuit};
use hisvsim_statevec::{KernelDispatch, StateVector};
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
    /// sweeps on the rayon pool it is called in, with the default
    /// [`ApplyOptions`](hisvsim_statevec::ApplyOptions). Install a
    /// one-thread pool to run it on one thread.
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
    /// only the sweeps remain, run by the one rank body on a world of one.
    pub fn run_with_fused_plan(&self, circuit: &Circuit, plan: &FusedSinglePlan) -> HierRun {
        let c = self.config;
        let spec = RunSpec::new("hier", c.strategy.name(), 1, c.kernel_dispatch);
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

/// Parts executed process-wide (`hisvsim_hier_parts_total`).
static PARTS_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// How many parts this process has executed. Monotonic; the service syncs
/// it into the metrics registry at scrape time.
pub fn parts_executed() -> u64 {
    PARTS_EXECUTED.load(Ordering::Relaxed)
}

/// Open one scheduled part: a tick in [`parts_executed`], and while the
/// recorder is on its `part` span (`ws=… passes=…`: the working set's width
/// and the entry's passes in place), which the caller holds while the part
/// runs. Every part of every planned engine opens here, once per schedule
/// entry.
pub(crate) fn open_part(entry: &ScheduleEntry<'_>) -> Option<SpanGuard> {
    PARTS_EXECUTED.fetch_add(1, Ordering::Relaxed);
    hisvsim_obs::enabled().then(|| {
        hisvsim_obs::span("kernel", "part").detail(format!(
            "ws={} passes={}",
            entry.positions.len(),
            entry.in_place.len()
        ))
    })
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
