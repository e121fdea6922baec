//! The batch job model: what a caller submits ([`SimJob`]) and what the
//! scheduler returns ([`JobResult`]).

use crate::selector::{EngineDecision, EngineKind};
use hisvsim_circuit::{Circuit, Qubit};
use hisvsim_cluster::CommStats;
use hisvsim_core::RunReport;
use hisvsim_obs::SpanRecord;
use hisvsim_statevec::{KernelDispatch, StateVector};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Where a job's (distributed) execution runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// In-process virtual ranks: threads plus channels
    /// ([`hisvsim_cluster::LocalComm`]).
    #[default]
    Local,
    /// Real OS processes over the TCP transport: the job's partition plan
    /// is shipped to worker processes through the registered
    /// [`ProcessBackend`](crate::pool::ProcessBackend) (see
    /// `hisvsim_net::WorkerPool`). Requires
    /// [`SchedulerConfig::with_process_backend`](crate::scheduler::SchedulerConfig::with_process_backend).
    Process,
}

/// One simulation job: a circuit plus everything the runtime needs to
/// execute and post-process it.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The circuit to simulate.
    pub circuit: Circuit,
    /// Measurement shots to sample from the final state (0 = none).
    pub shots: usize,
    /// Qubits whose Pauli-Z expectation values are reported.
    pub observables: Vec<Qubit>,
    /// Engine preference; `None` lets the
    /// [`EngineSelector`](crate::selector::EngineSelector) decide.
    pub engine: Option<EngineKind>,
    /// Working-set limit override; `None` uses the selector's limit.
    pub limit: Option<usize>,
    /// Kernel dispatch for every sweep the job runs:
    /// [`KernelDispatch::Auto`] (runtime-detected SIMD) or
    /// [`KernelDispatch::Scalar`] (the bit-identical portable fallback).
    /// Process-backed jobs ship it to their workers.
    pub kernel_dispatch: KernelDispatch,
    /// Seed for shot sampling (deterministic per job).
    pub seed: u64,
    /// Execution backend: in-process virtual ranks (default) or real worker
    /// processes via the registered process backend.
    pub backend: Backend,
    /// Wall-clock deadline. The runtime itself does not arm a timer — the
    /// service layer does (firing the job's `CancelToken` and reporting
    /// `DeadlineExceeded`); batch mode ignores it.
    pub deadline: Option<Duration>,
}

impl SimJob {
    /// A job with no shots, no observables, automatic engine selection.
    pub fn new(circuit: Circuit) -> Self {
        Self {
            circuit,
            shots: 0,
            observables: Vec::new(),
            engine: None,
            limit: None,
            kernel_dispatch: KernelDispatch::default(),
            seed: 0,
            backend: Backend::Local,
            deadline: None,
        }
    }

    /// Sample this many measurement shots from the final state.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Report Pauli-Z expectations on these qubits.
    pub fn with_observables(mut self, qubits: Vec<Qubit>) -> Self {
        self.observables = qubits;
        self
    }

    /// Force a specific engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Force a specific working-set limit.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Use a specific kernel dispatch (see [`KernelDispatch`]). Forcing
    /// [`KernelDispatch::Scalar`] is the differential-validation lever: the
    /// scalar fallback is bit-identical to the SIMD kernels by construction.
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }

    /// Use this sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Execute on this backend (e.g. [`Backend::Process`] for a
    /// multi-process cluster run).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Give the job a wall-clock deadline. The `hisvsim-service` layer arms
    /// a timer that fires the job's cancel token when the deadline passes
    /// and surfaces `Failed { DeadlineExceeded }` on the progress stream.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Predicted-vs-measured audit record for one job's execute phase: what
/// the static cost model expected the execution to cost against what the
/// wall clock measured. The ratio is exported as the
/// `hisvsim_selector_misprediction_ratio` histogram so model drift is
/// visible on `/metrics`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionVerdict {
    /// Modelled execute-phase seconds: the amplitude bytes the schedule's
    /// busiest rank sweeps (`PlanSchedule::swept_amplitudes`) over the
    /// nominal sweep bandwidth, plus the decision's per-exchange estimate
    /// times the exchanges the run performed.
    /// Deliberately coarse — its job is trend visibility, not accuracy.
    pub predicted_execute_s: f64,
    /// Wall-clock seconds of the execute phase.
    pub measured_execute_s: f64,
}

impl DecisionVerdict {
    /// Measured over predicted: 1.0 is a perfect model, > 1 means the
    /// model was optimistic. 0 when the prediction degenerated to zero.
    pub fn ratio(&self) -> f64 {
        if self.predicted_execute_s > 0.0 {
            self.measured_execute_s / self.predicted_execute_s
        } else {
            0.0
        }
    }
}

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job in the submitted batch (results are returned in
    /// submission order regardless of completion order).
    pub job_index: usize,
    /// Name of the job's circuit.
    pub circuit_name: String,
    /// Engine that executed the job.
    pub engine: EngineKind,
    /// The full selector verdict behind the engine choice — limit, rank
    /// count, exchange estimate and the human-readable `reason` — so
    /// reports can show *why* a job landed where it did, not just where.
    pub decision: EngineDecision,
    /// Predicted-vs-measured cost audit for the execute phase.
    pub verdict: DecisionVerdict,
    /// The final state vector (`None` when the scheduler was configured to
    /// release states after post-processing).
    pub state: Option<StateVector>,
    /// The engine's own run report (timing, parts, communication).
    pub report: RunReport,
    /// Shot histogram over computational basis states (empty when
    /// `shots == 0`).
    pub counts: BTreeMap<usize, usize>,
    /// `(qubit, ⟨Z⟩)` for each requested observable.
    pub z_expectations: Vec<(Qubit, f64)>,
    /// Wall-clock seconds for the whole job (planning + execution +
    /// post-processing), as observed by the worker thread.
    pub wall_time_s: f64,
    /// Seconds spent obtaining the plan (≈ 0 on a cache hit).
    pub plan_time_s: f64,
    /// Whether the partition plan came from the cache (in-memory hit or a
    /// disk-persisted warm entry) instead of being planned from scratch.
    pub plan_cache_hit: bool,
    /// The kernel dispatch the job executed under
    /// ([`KernelDispatch::resolved_name`] gives the concrete kernel family
    /// it resolved to on this machine).
    pub kernel_dispatch: KernelDispatch,
    /// Per-phase execution timeline (plan → execute → postprocess),
    /// recorded by the worker thread on the shared obs clock. Always
    /// populated, independent of whether the global span recorder is on.
    pub timeline: Vec<SpanRecord>,
}

impl JobResult {
    /// The engine's communication statistics summed over all ranks: what
    /// the run measured — bytes, messages (and the payload-carrying ones)
    /// and seconds blocked in communication. A served job prices nothing;
    /// a caller who wants a modelled time hands these counts to
    /// `NetworkModel::time`.
    pub fn comm_stats(&self) -> &CommStats {
        &self.report.comm
    }

    /// The job's per-phase execution timeline: one span per runner phase
    /// (`plan`, `execute`, `postprocess`), timestamped on the process-wide
    /// obs clock so it can be merged with recorder spans and exported via
    /// [`hisvsim_obs::chrome_trace_json`].
    pub fn timeline(&self) -> &[SpanRecord] {
        &self.timeline
    }
}
