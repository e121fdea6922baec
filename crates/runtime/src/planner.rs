//! Partition planning: one default-configuration `dagP` call per plan.
//!
//! A production service amortises planning across many executions of the
//! same circuit structure — that is what the [`crate::cache::PlanCache`] is
//! for — so the planner itself is deliberately plain: the same partition the
//! engines would compute if called directly, fused once into the form the
//! cache stores. The paper's cache model (`hisvsim-memmodel`) explains
//! Table II; it does not pick plans.

use hisvsim_circuit::Circuit;
use hisvsim_core::{FusedSinglePlan, FusedTwoLevelPlan};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_partition::{
    DagPPartitioner, MultilevelPartition, MultilevelPartitioner, PartitionBuildError,
};
use hisvsim_statevec::FusionStrategy;

/// How much work to invest in one plan. There is one level: the type and
/// [`Planner::new`]'s parameter stay only because the benchmark adapter
/// (`crates/bench/src/bin/hisvsim-bench/layers.rs`) calls
/// `Planner::new(PlanEffort::Fast)`; they can go with the next PR that is
/// allowed to edit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEffort {
    /// One default `dagP` call.
    Fast,
}

/// The partition planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// The planner (see [`PlanEffort`] for why it takes one).
    pub fn new(_effort: PlanEffort) -> Self {
        Planner
    }

    /// Plan a single-level partition of `dag` under `limit`.
    pub fn plan_single(
        &self,
        dag: &CircuitDag,
        limit: usize,
    ) -> Result<Partition, PartitionBuildError> {
        DagPPartitioner::default().partition(dag, limit)
    }

    /// Plan a single-level partition and fuse every part's inner circuit at
    /// `fusion_width` — the form the runtime caches (at
    /// [`hisvsim_statevec::DEFAULT_FUSION_WIDTH`]), so repeat submissions
    /// amortise fusion exactly like they amortise partitioning. See
    /// [`FusionStrategy`] for why the strategy parameter is still here.
    pub fn plan_single_fused(
        &self,
        circuit: &Circuit,
        dag: &CircuitDag,
        limit: usize,
        fusion_width: usize,
        strategy: FusionStrategy,
    ) -> Result<FusedSinglePlan, PartitionBuildError> {
        let partition = self.plan_single(dag, limit)?;
        Ok(FusedSinglePlan::build_with_strategy(
            circuit,
            dag,
            partition,
            fusion_width.max(1),
            strategy,
        ))
    }

    /// Plan a two-level partition and fuse every second-level part at
    /// `fusion_width` (see [`Planner::plan_single_fused`]).
    pub fn plan_two_level_fused(
        &self,
        circuit: &Circuit,
        dag: &CircuitDag,
        first_limit: usize,
        second_limit: usize,
        fusion_width: usize,
        strategy: FusionStrategy,
    ) -> Result<FusedTwoLevelPlan, PartitionBuildError> {
        let ml = self.plan_two_level(dag, first_limit, second_limit)?;
        Ok(FusedTwoLevelPlan::build_with_strategy(
            circuit,
            dag,
            ml,
            fusion_width.max(1),
            strategy,
        ))
    }

    /// Plan a two-level partition (first-level `first_limit`, second-level
    /// `second_limit`) for the multi-level engine.
    pub fn plan_two_level(
        &self,
        dag: &CircuitDag,
        first_limit: usize,
        second_limit: usize,
    ) -> Result<MultilevelPartition, PartitionBuildError> {
        MultilevelPartitioner::default().partition(dag, first_limit, second_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;

    #[test]
    fn two_level_plans_validate_at_both_levels() {
        let circuit = generators::by_name("qpe", 10);
        let dag = CircuitDag::from_circuit(&circuit);
        let ml = Planner.plan_two_level(&dag, 7, 3).unwrap();
        ml.first.validate(&dag, 7).unwrap();
        assert!(ml.total_second_level_parts() >= ml.num_first_level_parts());
    }

    #[test]
    fn arity_violation_error_is_preserved() {
        let circuit = generators::adder(8); // Toffolis: arity 3
        let dag = CircuitDag::from_circuit(&circuit);
        assert!(matches!(
            Planner.plan_single(&dag, 2),
            Err(PartitionBuildError::GateExceedsLimit { .. })
        ));
    }
}
