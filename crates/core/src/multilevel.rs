//! The multi-level distributed engine (Sec. IV "Multi-level partitioning" and
//! Sec. V-D).
//!
//! The first-level partition bounds each part by the per-rank local qubit
//! count `l`, exactly as the single-level distributed engine does; the
//! second-level partition further splits each part's gates so that the gates
//! executed between two touches of the rank-local slice fit a cache-sized
//! inner state vector. Within a rank the second-level parts are executed with
//! the same Gather–Execute–Scatter loop the single-node engine uses, just
//! against the rank's local slice instead of the whole state.

use crate::dist::{run_thread_world, DistState, RankOutcome};
use crate::exec::ExecControl;
use crate::fusedplan::{FusedSecondPart, FusedTwoLevelPlan};
use crate::hier::{execute_part, part_mode, SweepControl};
use crate::metrics::RunReport;
use hisvsim_circuit::{Circuit, Complex64};
use hisvsim_cluster::{NetworkModel, RankComm};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{MultilevelPartition, MultilevelPartitioner, PartitionBuildError};
use hisvsim_statevec::{Cancelled, KernelDispatch, StateVector};
use std::time::Instant;

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
    /// Interconnect model for communication-time accounting.
    pub network: NetworkModel,
    /// Kernel dispatch for every rank-local sweep (auto-detected SIMD by
    /// default; forced scalar for differential validation).
    pub kernel_dispatch: KernelDispatch,
}

impl MultilevelConfig {
    /// A configuration with the HDR-100 network model.
    pub fn new(num_ranks: usize, second_limit: usize) -> Self {
        Self {
            num_ranks,
            second_limit,
            network: NetworkModel::hdr100(),
            kernel_dispatch: KernelDispatch::default(),
        }
    }

    /// Use a different network model.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
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

/// The multi-level distributed HiSVSIM engine (dagP at both levels).
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
        let ml = MultilevelPartitioner::default().partition(&dag, first_limit, second_limit)?;
        Ok(self.run_with_partition(circuit, &dag, ml))
    }

    /// Run with an externally supplied two-level partition: fuse each
    /// second-level part once — shared by every virtual rank and every
    /// gather assignment — then [`Self::run_with_fused_plan`].
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
    /// were fused once at plan time and are shared read-only by every rank
    /// and every gather assignment.
    pub fn run_with_fused_plan(
        &self,
        circuit: &Circuit,
        plan: &FusedTwoLevelPlan,
    ) -> MultilevelRun {
        self.run_with_fused_plan_controlled(circuit, plan, &ExecControl::default())
            .expect("an inert control cannot cancel")
    }

    /// [`MultilevelSimulator::run_with_fused_plan`] under an
    /// [`ExecControl`]: [`run_two_level_plan_rank`] on every rank of a thread
    /// world.
    pub fn run_with_fused_plan_controlled(
        &self,
        circuit: &Circuit,
        plan: &FusedTwoLevelPlan,
        control: &ExecControl,
    ) -> Result<MultilevelRun, Cancelled> {
        let (state, report) = run_thread_world(
            self.config.num_ranks,
            self.config.network,
            "multilevel",
            "dagP",
            circuit,
            plan.ml.num_first_level_parts(),
            |comm| {
                let dispatch = self.config.kernel_dispatch;
                run_two_level_plan_rank(comm, circuit.num_qubits(), plan, dispatch, control, None)
            },
        )?;
        Ok(MultilevelRun {
            state,
            report,
            partition: plan.ml.clone(),
        })
    }
}

/// Execute one rank of a prefused two-level plan against `comm`: the one
/// rank body of the multi-level engine, run by the thread world and by
/// `hisvsim-net`'s worker processes alike.
///
/// The ranks vote ([`DistState::vote_cancelled`]) before every first-level
/// part switch (the collective boundary) and before every rank-local
/// second-level part, so a fired token stops all ranks at the same step
/// without stranding any inside a collective. Rank 0 reports
/// `(gates_done, gates_total)` per second-level part. `recycled` optionally
/// reuses a previous run's local-slice allocation.
pub fn run_two_level_plan_rank<C: RankComm<Complex64>>(
    comm: &mut C,
    num_qubits: usize,
    plan: &FusedTwoLevelPlan,
    dispatch: KernelDispatch,
    control: &ExecControl,
    recycled: Option<Vec<Complex64>>,
) -> Result<RankOutcome, Cancelled> {
    let mut state = DistState::new_reusing(comm, num_qubits, recycled);
    state.set_kernel_dispatch(dispatch);
    let total_gates = plan.total_source_gates();
    let mut gates_done = 0u64;
    for part in &plan.parts {
        state.vote_cancelled(&control.cancel)?;
        state.ensure_local(&part.working_set);
        for second in &part.second {
            state.vote_cancelled(&control.cancel)?;
            execute_second_part(&mut state, second);
            gates_done += second.inner.source_gates() as u64;
            state.report_progress(control, gates_done, total_gates);
        }
    }
    Ok(state.finish_rank())
}

/// Execute one prefused second-level part against the rank's local slice:
/// translate its global working set to local positions under the current
/// layout, then run the single-node part executor on the slice (fused qubit
/// `j` of the plan is inner qubit `j` of the gather by construction). The
/// sweep gets no token: a rank leaves the schedule only by a vote.
fn execute_second_part<C: RankComm<Complex64>>(
    state: &mut DistState<'_, C>,
    second: &FusedSecondPart,
) {
    let _span = hisvsim_obs::span("kernel", "local");
    let start = Instant::now();
    let l = state.local_qubits();
    let positions: Vec<usize> = second
        .working_set
        .iter()
        .map(|&q| {
            let pos = state.position(q);
            debug_assert!(pos < l, "second-level part touches a non-local qubit");
            pos
        })
        .collect();
    let dispatch = state.kernel_dispatch();
    let mode = part_mode(l, &positions, &second.inner);
    execute_part(
        state.local_state_mut(),
        &positions,
        &second.inner,
        mode,
        false,
        dispatch,
        SweepControl::default(),
    )
    .expect("a sweep without a token cannot be cancelled");
    state.add_compute_time(start.elapsed().as_secs_f64());
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
