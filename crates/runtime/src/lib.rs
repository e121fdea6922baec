//! # hisvsim-runtime
//!
//! The concurrent batch-execution runtime layered on top of the HiSVSIM
//! engines: the paper ends at "simulate one circuit well"; this crate turns
//! that into "serve many simulation jobs well". It sits between the engines
//! (`hisvsim-core`) and any service/benchmark surface above, and provides:
//!
//! | Module | What it provides |
//! |---|---|
//! | [`job`] | the [`SimJob`](job::SimJob) / [`JobResult`](job::JobResult) batch model (circuit + shots + observables + engine preference) |
//! | [`selector`] | [`EngineSelector`](selector::EngineSelector): picks hier/dist/multilevel per job (the baseline only when forced) from the qubit count against two budgets (21 LLC qubits, 30 node qubits by default) and the `netmodel` exchange cost |
//! | [`planner`] | [`Planner`](planner::Planner): one default `dagP` call per plan, fused into the form the cache stores |
//! | [`cache`] | [`PlanCache`](cache::PlanCache): memoizes plans by [`Circuit::fingerprint`](hisvsim_circuit::Circuit::fingerprint), with in-flight deduplication, hit/miss accounting and disk snapshots for warm restarts; [`PersistedPlan::validate_and_fuse`] is how a partition from outside the process (a snapshot entry, a shipped plan) becomes a plan |
//! | [`pool`] | [`JobRunner`](pool::JobRunner): the reusable plan–execute worker-pool core (residency [`Semaphore`](pool::Semaphore), per-job [`JobControl`](pool::JobControl) cancellation + phase callbacks) |
//! | [`scheduler`] | [`Scheduler`](scheduler::Scheduler): a worker pool executing a batch on OS threads with a bounded number of resident state vectors |
//!
//! The expensive pure-function part of every HiSVSIM run — DAG construction
//! plus acyclic partitioning — depends only on circuit *structure*, so
//! repeated or templated circuits skip it entirely once the cache is warm.
//! Every engine result is bit-compatible with running that engine directly;
//! the runtime only orchestrates.
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::generators;
//! use hisvsim_runtime::prelude::*;
//!
//! // Thresholds scaled down so toy circuits exercise the whole engine
//! // ladder; the default selector uses the paper machine's real budgets.
//! let config = SchedulerConfig::default().with_selector(EngineSelector::scaled(4, 8));
//! let scheduler = Scheduler::new(config);
//! let jobs = vec![
//!     SimJob::new(generators::qft(8)).with_shots(128),
//!     SimJob::new(generators::qft(8)), // same structure: plan cache hit
//!     SimJob::new(generators::cat_state(9)).with_observables(vec![0, 8]),
//! ];
//! let batch = scheduler.run_batch(jobs);
//! assert_eq!(batch.results.len(), 3);
//! assert!(batch.stats.cache.hits >= 1, "repeated structure must hit the plan cache");
//! // Every job's final state is unit-norm and accounted.
//! for result in &batch.results {
//!     let state = result.state.as_ref().unwrap();
//!     assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
//! }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod planner;
pub mod pool;
pub mod scheduler;
pub mod selector;

pub use cache::{CacheStats, CachedPlan, PersistedPlan, PlanCache, PlanKey, PlanSource};
pub use job::{Backend, DecisionVerdict, JobResult, SimJob};
pub use planner::{PlanEffort, Planner};
pub use pool::{
    JobControl, JobError, JobRunner, ProcessBackend, ProcessError, ProcessPoolStats,
    ProcessRequest, Semaphore,
};
pub use scheduler::{BatchReport, BatchStats, Scheduler, SchedulerConfig};
pub use selector::{EngineDecision, EngineKind, EngineSelector};

// The dispatch knob travels with jobs; re-exported so service and net layers
// need not depend on `hisvsim-statevec` directly for it.
pub use hisvsim_statevec::KernelDispatch;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::cache::PlanCache;
    pub use crate::job::{JobResult, SimJob};
    pub use crate::scheduler::{BatchReport, Scheduler, SchedulerConfig};
    pub use crate::selector::{EngineKind, EngineSelector};
    pub use hisvsim_statevec::KernelDispatch;
}

#[cfg(test)]
mod send_sync_assertions {
    //! The runtime's contract with the engines: everything that crosses a
    //! worker-thread boundary is `Send + Sync`, and plans serialise.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn plan_and_job_types_cross_threads() {
        assert_send_sync::<hisvsim_dag::Partition>();
        assert_send_sync::<hisvsim_partition::MultilevelPartition>();
        assert_send_sync::<SimJob>();
        assert_send_sync::<JobResult>();
        assert_send_sync::<PlanCache>();
        assert_send_sync::<Scheduler>();
    }
}
