//! The multi-level distributed engine (Sec. IV "Multi-level partitioning" and
//! Sec. V-D).
//!
//! The first-level partition bounds each part by the per-rank local qubit
//! count `l`, exactly as the single-level distributed engine does; the
//! second-level partition further splits each part's gates so that the gates
//! executed between two touches of the rank-local slice stay few. Within a
//! rank the second-level parts are executed as the single-node engine runs
//! its parts, pass by pass in place over the rank's local slice, each pass a
//! cache-blocked tile walk: the one rank body
//! ([`run_plan_rank`](crate::dist::run_plan_rank)) switches layout at most
//! once per first-level part.

use crate::dist::{run_plan, RunSpec};
use crate::exec::ExecControl;
use crate::fusedplan::{FusedPlan, FusedTwoLevelPlan};
use crate::metrics::RunReport;
use hisvsim_circuit::Circuit;
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{MultilevelPartition, MultilevelPartitioner, PartitionBuildError};
use hisvsim_statevec::{KernelDispatch, StateVector};

/// Configuration of the multi-level engine.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelConfig {
    /// Number of virtual MPI ranks (power of two).
    pub num_ranks: usize,
    /// Second-level working-set limit (qubits whose inner state vector stays
    /// cache resident). The paper picks it from the LLC size; 2^21 amplitudes
    /// × 16 B = 32 MB, so 21 qubits on the evaluation machine — scaled down
    /// here along with everything else.
    pub second_limit: usize,
    /// Kernel dispatch for every rank-local sweep (auto-detected SIMD by
    /// default; forced scalar for differential validation).
    pub kernel_dispatch: KernelDispatch,
}

impl MultilevelConfig {
    /// A configuration over `num_ranks` ranks at `second_limit`.
    pub fn new(num_ranks: usize, second_limit: usize) -> Self {
        Self {
            num_ranks,
            second_limit,
            kernel_dispatch: KernelDispatch::default(),
        }
    }

    /// Use a different kernel dispatch (see [`KernelDispatch`]).
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }
}

/// Result of a multi-level run.
#[derive(Debug, Clone)]
pub struct MultilevelRun {
    /// The assembled final state (standard qubit order).
    pub state: StateVector,
    /// Timing, communication and structure metrics.
    pub report: RunReport,
    /// The two-level partition that was executed.
    pub partition: MultilevelPartition,
}

/// The multi-level distributed HiSVSIM engine (dagP at both levels): the
/// paper's multi-level partitioning (Fig. 10), a comparator to `dist`. The
/// runtime does not serve it (it refuses a job that forces it); it stays
/// for the figure, the differential suites, and because the benchmark
/// adapter (`crates/bench/src/bin/hisvsim-bench/`) names it for its
/// `core.multilevel2_s` row.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelSimulator {
    config: MultilevelConfig,
}

impl MultilevelSimulator {
    /// Create an engine with the given configuration.
    pub fn new(config: MultilevelConfig) -> Self {
        Self { config }
    }

    /// Partition (two levels) and run `circuit` from `|0…0⟩`.
    pub fn run(&self, circuit: &Circuit) -> Result<MultilevelRun, PartitionBuildError> {
        assert!(
            self.config.num_ranks.is_power_of_two(),
            "rank count must be a power of two"
        );
        let p = self.config.num_ranks.trailing_zeros() as usize;
        assert!(p <= circuit.num_qubits());
        let l = circuit.num_qubits() - p;
        let first_limit = l.max(1);
        let second_limit = self.config.second_limit.min(first_limit).max(1);

        let dag = CircuitDag::from_circuit(circuit);
        let ml = MultilevelPartitioner.partition(&dag, first_limit, second_limit)?;
        Ok(self.run_with_partition(circuit, &dag, ml))
    }

    /// Run with an externally supplied two-level partition: fuse each
    /// second-level part once — shared by every virtual rank — then
    /// [`Self::run_with_fused_plan`].
    pub fn run_with_partition(
        &self,
        circuit: &Circuit,
        dag: &CircuitDag,
        ml: MultilevelPartition,
    ) -> MultilevelRun {
        let plan = FusedTwoLevelPlan::new(circuit, dag, ml);
        self.run_with_fused_plan(circuit, &plan)
    }

    /// Run against a prefused two-level plan: the second-level inner circuits
    /// were fused once at plan time and are shared read-only by every rank.
    pub fn run_with_fused_plan(
        &self,
        circuit: &Circuit,
        plan: &FusedTwoLevelPlan,
    ) -> MultilevelRun {
        let c = self.config;
        let (ranks, dispatch) = (c.num_ranks, c.kernel_dispatch);
        let spec = RunSpec::new("multilevel", "dagP", ranks, dispatch);
        let inert = ExecControl::default();
        let schedule = FusedPlan::Two(plan).schedule(circuit.num_qubits(), ranks);
        let (state, report) =
            run_plan(circuit, &schedule, spec, &inert).expect("an inert control cannot cancel");
        let partition = plan.ml.clone();
        MultilevelRun {
            state,
            report,
            partition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;
    use hisvsim_statevec::run_circuit;

    fn check(circuit: &Circuit, ranks: usize, second_limit: usize) -> MultilevelRun {
        let expected = run_circuit(circuit);
        let run = MultilevelSimulator::new(MultilevelConfig::new(ranks, second_limit))
            .run(circuit)
            .unwrap();
        assert!(
            run.state.approx_eq(&expected, 1e-9),
            "{} on {ranks} ranks / L2={second_limit}: multi-level result diverges (max diff {})",
            circuit.name,
            run.state.max_abs_diff(&expected)
        );
        run
    }

    #[test]
    fn multilevel_matches_flat_across_suite() {
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 8);
            check(&circuit, 4, 3);
        }
    }

    #[test]
    fn various_second_level_limits_agree() {
        let circuit = generators::by_name("qft", 9);
        for second_limit in [2usize, 4, 6] {
            check(&circuit, 4, second_limit);
        }
    }

    #[test]
    fn degenerate_second_level_equals_single_level_structure() {
        // When the second-level limit equals the local qubit count the
        // two-level partition collapses to the single-level one.
        let circuit = generators::by_name("bv", 8);
        let run = check(&circuit, 4, 6);
        assert!(run.partition.is_degenerate() || run.partition.total_second_level_parts() > 0);
        assert_eq!(run.report.engine, "multilevel");
    }

    #[test]
    fn communication_matches_single_level_with_same_first_partition() {
        // The second level only reorganises rank-local computation; the
        // redistribution count (and hence bytes) must match the single-level
        // engine when both use the same first-level partition.
        use crate::dist::{DistConfig, DistributedSimulator};
        use hisvsim_partition::Strategy;
        let circuit = generators::by_name("qaoa", 9);
        let single = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
            .run(&circuit)
            .unwrap();
        let multi = check(&circuit, 4, 3);
        // Same partitioner and limit at the first level ⇒ same part count.
        assert_eq!(single.report.num_parts, multi.report.num_parts);
        assert_eq!(single.report.num_exchanges, multi.report.num_exchanges);
    }

    #[test]
    fn report_counts_first_level_parts() {
        let circuit = generators::by_name("qpe", 9);
        let run = check(&circuit, 8, 3);
        assert_eq!(run.report.num_parts, run.partition.num_first_level_parts());
        assert!(run.partition.total_second_level_parts() >= run.partition.num_first_level_parts());
    }
}
