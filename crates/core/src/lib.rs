//! # hisvsim-core
//!
//! The HiSVSIM engines: everything above the gate kernels and below the
//! benchmark harness in the Rust reproduction of *"Efficient Hierarchical
//! State Vector Simulation of Quantum Circuits via Acyclic Graph
//! Partitioning"* (CLUSTER 2022).
//!
//! | Module | Paper section | What it provides |
//! |---|---|---|
//! | [`hier`] | III-B/C, Alg. 1 | single-node Gather–Execute–Scatter engine |
//! | [`dist`] | III-D | distributed engine over virtual MPI ranks (process/local qubits, part-switch redistribution) |
//! | [`multilevel`] | IV, V-D | two-level engine (node-level parts + cache-level parts) |
//! | [`baseline`] | V (comparison) | IQS-style static-mapping distributed baseline |
//! | [`gpu`] | VI | GPU-kernel throughput model and hybrid estimates (Tables III/IV) |
//! | [`metrics`] | V | the [`RunReport`] every engine returns |
//!
//! Every engine is validated against the flat reference simulator
//! (`hisvsim_statevec::run_circuit`) — the correctness anchor described in
//! the README section "Engine entry points".
//!
//! ## The layer above: the batch runtime
//!
//! Multi-job workloads do not drive these engines directly — the
//! `hisvsim-runtime` crate layers a concurrent batch scheduler on top:
//! engine auto-selection per job (`EngineSelector`), partition-plan caching
//! keyed by `Circuit::fingerprint` (`PlanCache`), and a worker pool with a
//! bounded number of resident state vectors (`Scheduler`). A cached plan is
//! a prefused one ([`fusedplan`]): [`run_plan`] executes its schedule under
//! an [`ExecControl`] with no DAG build, partitioning or fusion left to do.
//! Each engine's `run_with_fused_plan` is that call under an inert control;
//! `run` remains the single-shot path that plans internally, and
//! `run_with_partition` fuses a given partition first. There is no unfused
//! engine path.
//!
//! ## One rank body
//!
//! Every planned engine runs one SPMD loop, [`run_plan_rank`], over the
//! plan compiled for its width and world ([`FusedPlan::schedule`]): per
//! part, a vote, the layout change the schedule fixed for it, and the part
//! swept in place one of the passes the schedule lists for it at a time,
//! each pass of several ops a cache-blocked walk over 2^16-amplitude tiles
//! (Algorithm 1 at tile granularity, see [`hier`]). The engines are its
//! shapes: `multilevel` changes layout at most once per first-level part,
//! `dist` on R > 1 ranks once per part, and `hier` is a single-level plan
//! on a world of one. The thread world ([`run_plan`]) and `hisvsim-net`'s
//! worker processes both call it, so the two worlds agree bit for bit by
//! construction. The comparison baseline keeps a body of its own,
//! [`run_baseline_rank`], which only the thread world runs: a shipped job
//! is always a plan. Cancellation is agreed by a
//! collective vote at every checkpoint (see [`exec`]): one per pass over a
//! slice above one tile, in both bodies, so a fired token stops every rank
//! within one pass.
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::generators;
//! use hisvsim_core::hier::{HierConfig, HierarchicalSimulator};
//! use hisvsim_statevec::run_circuit;
//!
//! let circuit = generators::qft(8);
//! let run = HierarchicalSimulator::new(HierConfig::new(4)).run(&circuit).unwrap();
//! assert!(run.state.approx_eq(&run_circuit(&circuit), 1e-9));
//! assert!(run.report.num_parts >= 2);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod dist;
mod exchange;
pub mod exec;
pub mod fusedplan;
pub mod gpu;
pub mod hier;
pub mod metrics;
pub mod multilevel;

pub use baseline::{run_baseline_rank, BaselineConfig, BaselineRun, BaselineSchedule, IqsBaseline};
pub use dist::{
    aggregate_outcomes, prepare_gates, run_plan, run_plan_rank, DistConfig, DistRun, DistState,
    DistributedSimulator, Gathered, PreparedGate, RankFigures, RankOutcome, RunSpec,
};
pub use exec::ExecControl;
pub use fusedplan::{
    FusedMlPart, FusedPart, FusedPlan, FusedSinglePlan, FusedTwoLevelPlan, Pass, PlanSchedule,
    ScheduleEntry,
};
pub use gpu::{estimate_hybrid, GpuModel, HybridEstimate};
pub use hier::{HierConfig, HierRun, HierarchicalSimulator};
pub use hisvsim_statevec::{CancelToken, Cancelled};
pub use metrics::RunReport;
pub use multilevel::{MultilevelConfig, MultilevelRun, MultilevelSimulator};
