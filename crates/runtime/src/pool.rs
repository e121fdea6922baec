//! The reusable worker-pool core shared by [`Scheduler::run_batch`] and the
//! `hisvsim-service` job service.
//!
//! [`Scheduler`](crate::scheduler::Scheduler) used to own the whole
//! plan–execute pipeline privately; a long-lived service needs exactly the
//! same pipeline but driven job-by-job from its own queue, with
//! cancellation and phase callbacks threaded through. This module is that
//! pipeline, factored out:
//!
//! * [`Semaphore`] — the counting semaphore bounding resident state
//!   vectors (the memory bound `K`);
//! * [`JobControl`] — per-job cancellation token plus phase/progress
//!   callbacks (planning → plan ready → executing);
//! * [`JobRunner`] — the plan-through-postprocess executor: engine
//!   decision, plan-cache lookup (with disk-warm rebuild), controlled
//!   engine execution, shot sampling and observables.
//!
//! `run_batch` drives a [`JobRunner`] with inert controls — its results
//! are bit-identical to the pre-refactor scheduler.

use crate::cache::{CachedPlan, PersistedPlan, PlanCache, PlanKey, PlanSource};
use crate::job::{Backend, JobResult, SimJob};
use crate::planner::Planner;
use crate::scheduler::SchedulerConfig;
use crate::selector::{EngineDecision, EngineKind};
use hisvsim_circuit::{Circuit, Qubit};
use hisvsim_core::{
    run_plan, BaselineConfig, ExecControl, IqsBaseline, PlanSchedule, RunReport, RunSpec,
};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{PartitionBuildError, Strategy};
use hisvsim_statevec::{measure, CancelToken, KernelDispatch, StateVector};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Sweep bandwidth (GB/s) the decision-verdict predictor assumes: a round
/// figure for one socket's sustained streaming bandwidth.
const NOMINAL_SWEEP_GBPS: f64 = 20.0;

/// A plain counting semaphore (std has none until `Semaphore` stabilises).
/// Bounds the number of jobs holding live simulation state: acquire before
/// allocating the outer state vector, release (by dropping the permit) when
/// the result is extracted — including when the job is cancelled mid-run,
/// which is what keeps an abandoned 30-qubit job from pinning its slot.
pub struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

/// An acquired permit; releases its slot on drop.
pub struct Permit<'a> {
    semaphore: &'a Semaphore,
}

impl Semaphore {
    /// A semaphore with `permits` slots.
    pub fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    /// Block until a slot is free and claim it.
    pub fn acquire(&self) -> Permit<'_> {
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        while *permits == 0 {
            permits = self.available.wait(permits).expect("semaphore poisoned");
        }
        *permits -= 1;
        Permit { semaphore: self }
    }

    /// [`Semaphore::acquire`] that also gives up when `cancel` fires, so a
    /// job cancelled while queued for a slot unblocks its worker promptly
    /// instead of waiting out whoever holds the permit. The token has no
    /// waker of its own, so the parked wait polls it on a short timeout.
    pub fn acquire_cancellable(
        &self,
        cancel: &hisvsim_statevec::CancelToken,
    ) -> Result<Permit<'_>, hisvsim_statevec::Cancelled> {
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        loop {
            cancel.check()?;
            if *permits > 0 {
                *permits -= 1;
                return Ok(Permit { semaphore: self });
            }
            let (guard, _timeout) = self
                .available
                .wait_timeout(permits, std::time::Duration::from_millis(20))
                .expect("semaphore poisoned");
            permits = guard;
        }
    }

    /// Slots currently free (advisory — may change immediately).
    pub fn available(&self) -> usize {
        *self.permits.lock().expect("semaphore poisoned")
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut permits = self.semaphore.permits.lock().expect("semaphore poisoned");
        *permits += 1;
        drop(permits);
        self.semaphore.available.notify_one();
    }
}

/// Per-job control plumbing: a cancel token the pipeline polls at its
/// checkpoints, plus optional callbacks fired at phase transitions. The
/// default control is inert; `run_batch` uses exactly that.
#[derive(Clone, Default)]
pub struct JobControl {
    /// Cooperative cancellation flag (checked before planning, after
    /// acquiring the residency slot, and inside the engines' fused loops).
    pub cancel: CancelToken,
    /// Fired when planning starts.
    pub on_planning: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Fired when the plan is ready; the argument is "was a cache hit"
    /// (in-memory or disk-warm).
    pub on_plan_ready: Option<Arc<dyn Fn(bool) + Send + Sync>>,
    /// Fired when execution starts and after each completed part, with
    /// `(gates_done, gates_total)` counted in the submitted circuit's gates
    /// (its relabeled SWAPs are done when the final permutation is).
    pub on_executing: Option<Arc<dyn Fn(u64, u64) + Send + Sync>>,
}

impl JobControl {
    /// An inert control (never cancelled, no callbacks).
    pub fn new() -> Self {
        Self::default()
    }

    fn notify_planning(&self) {
        if let Some(f) = &self.on_planning {
            f();
        }
    }

    fn notify_plan_ready(&self, cache_hit: bool) {
        if let Some(f) = &self.on_plan_ready {
            f(cache_hit);
        }
    }

    fn notify_executing(&self, done: u64, total: u64) {
        if let Some(f) = &self.on_executing {
            f(done, total);
        }
    }
}

impl std::fmt::Debug for JobControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobControl")
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

/// Why a job produced no [`JobResult`].
#[derive(Debug)]
pub enum JobError {
    /// The job's cancel token fired at a cooperative checkpoint; the
    /// partial state was discarded and the residency slot released.
    Cancelled,
    /// Partition planning failed (e.g. an explicit limit below the
    /// circuit's gate arity).
    PlanFailed {
        /// Name of the job's circuit.
        circuit: String,
        /// The engine the plan was for.
        engine: EngineKind,
        /// The working-set limit planning was attempted at.
        limit: usize,
        /// The underlying planning error.
        error: PartitionBuildError,
    },
    /// [`Backend::Process`] cannot serve the job (no backend registered,
    /// the unplanned baseline, a circuit too small for the world), or the
    /// launcher/worker pipeline failed.
    Backend {
        /// Human-readable failure description.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::PlanFailed {
                circuit,
                engine,
                limit,
                error,
            } => write!(
                f,
                "planning failed for '{circuit}' (engine {engine}, limit {limit}): {error}"
            ),
            JobError::Backend { message } => write!(f, "process backend failed: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// What decides the result of one job on a worker cluster: the circuit,
/// the kernel dispatch and the *partition* of the plan in its wire shape
/// ([`PersistedPlan`]). Fused matrices stay process-local by design, so
/// receivers re-fuse at [`hisvsim_statevec::DEFAULT_FUSION_WIDTH`]; the
/// network model is the backend's, and the runner names the engine.
pub struct ProcessRequest<'a> {
    /// The circuit to simulate.
    pub circuit: &'a Circuit,
    /// Kernel dispatch every worker rank applies to its local sweeps —
    /// shipped so a forced-scalar job stays forced-scalar across processes.
    pub dispatch: KernelDispatch,
    /// The partition to ship (exactly the plan-cache snapshot wire shape).
    pub plan: PersistedPlan,
    /// Where the launcher puts the qubits of the state it hands back
    /// (`StateVector::permute_qubits(perm)`, composed with the ranks' final
    /// layout into one pass). Launcher-side only: it is never shipped.
    pub perm: &'a [Qubit],
}

/// How a process backend's execution of one request ended without a
/// result.
#[derive(Debug)]
pub enum ProcessError {
    /// The backend observed the job's [`CancelToken`] at a cooperative
    /// checkpoint and stopped every rank; the worker world is still
    /// healthy. Maps to [`JobError::Cancelled`].
    Cancelled,
    /// The launcher/worker pipeline failed. Maps to [`JobError::Backend`].
    Failed(String),
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::Cancelled => f.write_str("job cancelled"),
            ProcessError::Failed(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ProcessError {}

/// A snapshot of a pooled process backend's lifetime counters, surfaced so
/// the service's metrics endpoint can export world-reuse and cancellation
/// behaviour without a transport dependency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcessPoolStats {
    /// Worker worlds spawned (1 after warm-up unless a world was dropped).
    pub worlds_spawned: u64,
    /// Jobs submitted to the backend.
    pub jobs_run: u64,
    /// Jobs that reused an already-resident worker world.
    pub jobs_reused_world: u64,
    /// Jobs stopped at a cooperative cancel checkpoint.
    pub jobs_cancelled: u64,
    /// Jobs that failed (each drops the world; the next job respawns it).
    pub jobs_failed: u64,
    /// Total seconds spent spawning worlds and running the rendezvous —
    /// kept out of per-job wall time by design.
    pub launch_seconds_total: f64,
}

/// A multi-process execution backend (implemented by
/// `hisvsim_net::WorkerPool`): takes a [`ProcessRequest`], runs it on
/// real worker processes, and returns the assembled state plus the report
/// aggregated from per-rank comm stats.
///
/// Defined here (not in `hisvsim-net`) so the runtime can stay free of any
/// transport dependency; the pool is injected via
/// [`SchedulerConfig::with_process_backend`](crate::scheduler::SchedulerConfig::with_process_backend).
pub trait ProcessBackend: Send + Sync {
    /// The worker-process world size (a power of two); the runner clamps
    /// plan limits so every shipped working set fits a worker's local slice.
    fn ranks(&self) -> usize;

    /// Execute the request on the worker cluster and hand the state back
    /// permuted by the request's `perm`. The backend is expected
    /// to poll `cancel` and propagate it to the remote ranks, stopping
    /// them at a cooperative checkpoint *mid-job* — not merely at the next
    /// job boundary.
    fn execute(
        &self,
        request: ProcessRequest<'_>,
        cancel: &CancelToken,
    ) -> Result<(StateVector, RunReport), ProcessError>;

    /// Tear down any resident worker state (processes, sockets). Called by
    /// long-lived owners (the service) on shutdown; stateless backends
    /// need not implement it.
    fn shutdown(&self) {}

    /// Lifetime counters for pooled backends (`None` for stateless ones).
    fn pool_stats(&self) -> Option<ProcessPoolStats> {
        None
    }
}

/// The plan-through-postprocess job executor: everything
/// [`Scheduler::run_batch`](crate::scheduler::Scheduler::run_batch) does to
/// one job, as a long-lived, shareable core. The plan cache inside persists
/// across batches (and, snapshotted, across processes).
pub struct JobRunner {
    config: SchedulerConfig,
    cache: PlanCache,
}

impl JobRunner {
    /// A runner with a fresh plan cache.
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            config,
            cache: PlanCache::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The persistent plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Plan (through the cache) and execute one job under
    /// `control`. The residency permit is acquired only for the simulation +
    /// post-processing phase — planning holds no simulation state, so
    /// cache-miss planning of one job overlaps the (memory-bounded)
    /// simulation of others. A cancelled job releases its permit on the way
    /// out (RAII), so the slot is immediately reusable.
    ///
    /// A hier job — every default-routed circuit one node holds — executes
    /// on the calling thread, which is also where its progress callbacks
    /// fire: the default plan is one part swept in place, so a warm small
    /// job neither fuses nor spawns. Worlds of two ranks and up run their
    /// ranks on threads of their own.
    pub fn execute_job(
        &self,
        job_index: usize,
        job: SimJob,
        residency: &Semaphore,
        control: &JobControl,
    ) -> Result<JobResult, JobError> {
        let start = Instant::now();
        if control.cancel.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        // A SWAP is a relabeling: from here on everything (the selector, the
        // plan key, the planner, a shipped request) sees the circuit without
        // its SWAPs, and the engine hands the state back permuted by `perm`,
        // in the one pass that also undoes its ranks' final layout. Progress
        // still counts the submitted gates; the dropped SWAPs are done when
        // the permutation is.
        let (circuit, perm) = job.circuit.relabel_swaps();
        let gates_total = job.circuit.num_gates() as u64;
        let mut decision = self.config.selector.decide(&circuit, job.engine);
        if let Some(limit) = job.limit {
            decision.limit = limit;
            if decision.engine == EngineKind::Multilevel {
                decision.second_limit = decision.second_limit.min(limit);
            }
        }
        // A process-backed job runs on the launcher's worker world, not the
        // selector's virtual rank count, and ships its plan: the flat
        // baseline, which takes none, runs in-process only.
        let process = if job.backend == Backend::Process {
            if decision.engine == EngineKind::Baseline {
                let message = format!("job '{}' forces the unplanned baseline", circuit.name);
                return Err(JobError::Backend { message });
            }
            let backend = self
                .config
                .process_backend
                .clone()
                .ok_or_else(|| JobError::Backend {
                    message: format!(
                        "job '{}' requested Backend::Process but no process backend is \
                             registered (SchedulerConfig::with_process_backend)",
                        circuit.name
                    ),
                })?;
            let ranks = backend.ranks();
            assert!(
                ranks.is_power_of_two(),
                "process backend world size must be a power of two, got {ranks}"
            );
            decision.ranks = ranks;
            let rank_bits = ranks.trailing_zeros() as usize;
            let arity_floor = circuit.gates().iter().map(|g| g.arity()).max().unwrap_or(1);
            let local = circuit.num_qubits().saturating_sub(rank_bits);
            // Reject undistributable jobs here with a clear error instead
            // of launching workers whose rank bodies would assert and die.
            if circuit.num_qubits() < rank_bits || local < arity_floor {
                return Err(JobError::Backend {
                    message: format!(
                        "circuit '{}' ({} qubits, max gate arity {arity_floor}) is too small \
                         for the {ranks}-worker world: each worker needs at least \
                         {arity_floor} local qubit(s), got {local}",
                        circuit.name,
                        circuit.num_qubits(),
                    ),
                });
            }
            Some(backend)
        } else {
            None
        };
        // A distributed plan must fit each rank's local slice — a process
        // job's whatever its engine, since a hier plan runs through the
        // distributed rank body on the workers. This mirrors the clamp
        // `DistributedSimulator::run` applies, so an explicit per-job limit
        // override cannot push a working set past the local width.
        let distributed = matches!(decision.engine, EngineKind::Dist | EngineKind::Multilevel);
        if process.is_some() || distributed {
            let local = circuit.num_qubits() - decision.ranks.trailing_zeros() as usize;
            decision.limit = decision.limit.min(local.max(1));
            decision.second_limit = decision.second_limit.min(decision.limit);
        }
        let dispatch = job.kernel_dispatch;

        // Each phase is recorded twice on the shared obs clock: into the
        // global span recorder (when enabled) for whole-process traces, and
        // explicitly into the job's own timeline, which is always populated
        // so `JobResult::timeline()` works without the recorder. Recorder
        // spans carry the job index in their detail (`#<n> ...`) so
        // interleaved jobs stay attributable in a merged trace.
        let mut timeline: Vec<hisvsim_obs::SpanRecord> = Vec::with_capacity(3);
        let mut phase = |name: &'static str, start_us: u64, elapsed: &Instant, detail: String| {
            timeline.push(hisvsim_obs::SpanRecord {
                name: name.to_string(),
                cat: "job".to_string(),
                ts_us: start_us,
                dur_us: (elapsed.elapsed().as_micros() as u64).max(1),
                pid: 0,
                tid: 0,
                detail,
                bytes: 0,
            });
        };

        control.notify_planning();
        let plan_ts = hisvsim_obs::now_us();
        let plan_start = Instant::now();
        // The plan's schedule on the job's world, compiled once, is what the
        // verdict and the run read.
        let plan_span =
            hisvsim_obs::span("job", "plan").detail(format!("#{job_index} {}", circuit.name));
        let (plan, source) =
            self.obtain_plan(&circuit, &decision)
                .map_err(|error| JobError::PlanFailed {
                    circuit: circuit.name.clone(),
                    engine: decision.engine,
                    limit: decision.limit,
                    error,
                })?;
        let schedule =
            (plan.as_ref()).map(|plan| plan.fused().schedule(circuit.num_qubits(), decision.ranks));
        drop(plan_span);
        let plan_time_s = plan_start.elapsed().as_secs_f64();
        phase("plan", plan_ts, &plan_start, format!("{source:?}"));
        control.notify_plan_ready(source.is_hit());

        // The permit covers the simulation (allocation of the outer state
        // vector) through post-processing. A job cancelled while queued for
        // a slot unblocks promptly and never allocates at all.
        let _permit = residency
            .acquire_cancellable(&control.cancel)
            .map_err(|_| JobError::Cancelled)?;
        control.notify_executing(0, gates_total);
        let exec = {
            let mut exec = ExecControl::new().with_cancel(control.cancel.clone());
            if let Some(on_executing) = control.on_executing.clone() {
                exec = exec.with_progress(move |done, _| on_executing(done, gates_total));
            }
            exec
        };
        let exec_ts = hisvsim_obs::now_us();
        let exec_start = Instant::now();
        let exec_span = hisvsim_obs::span("job", "execute").detail(format!(
            "#{job_index} {} on {} ({} ranks)",
            circuit.name,
            decision.engine.name(),
            decision.ranks
        ));
        let (state, report) = match &process {
            Some(backend) => {
                let request = ProcessRequest {
                    circuit: &circuit,
                    dispatch,
                    plan: plan
                        .as_ref()
                        .expect("a process job is never the unplanned baseline")
                        .to_persisted(),
                    perm: &perm,
                };
                let (state, mut report) =
                    backend
                        .execute(request, &control.cancel)
                        .map_err(|e| match e {
                            ProcessError::Cancelled => JobError::Cancelled,
                            ProcessError::Failed(message) => JobError::Backend { message },
                        })?;
                report.engine = decision.engine.name().to_string();
                // The backend polls the token itself (remote ranks stop at
                // their cancel-vote checkpoints); this check only honours a
                // cancellation that raced the final gather.
                control.cancel.check().map_err(|_| JobError::Cancelled)?;
                (state, report)
            }
            None => self
                .simulate(&circuit, &decision, dispatch, &schedule, &perm, &exec)
                .map_err(|_| JobError::Cancelled)?,
        };
        // The engines report the relabeled circuit's gates; a process run
        // reports none.
        if process.is_some() || circuit.num_gates() as u64 != gates_total {
            control.notify_executing(gates_total, gates_total);
        }
        drop(exec_span);
        let measured_execute_s = exec_start.elapsed().as_secs_f64();
        phase(
            "execute",
            exec_ts,
            &exec_start,
            format!("{} ranks, {}", decision.ranks, decision.engine.name()),
        );

        // Predicted-vs-measured audit: each rank's passes over its slice in
        // the schedule over the nominal sweep bandwidth, plus the decision's
        // exchange estimate per redistribution the run actually performed.
        let (sweeps, swept_qubits) = match &schedule {
            Some(schedule) => (schedule.passes(), schedule.local_qubits()),
            // Only a forced baseline job has no plan: the comparison engine
            // fuses inside its own run, so the raw gate count over the whole
            // state stands in (pessimistically) for its sweeps.
            None => (circuit.num_gates(), circuit.num_qubits()),
        };
        let slice_bytes = (32u128 << swept_qubits) as f64;
        let verdict = crate::job::DecisionVerdict {
            predicted_execute_s: sweeps as f64 * slice_bytes / (NOMINAL_SWEEP_GBPS * 1e9)
                + decision.est_exchange_s * report.num_exchanges as f64,
            measured_execute_s,
        };

        // Post-processing: shot sampling and Z expectations reuse the
        // statevec measurement utilities on the engine's final state. The
        // parallel counter-based sampler keeps shots deterministic per seed
        // regardless of worker/thread count.
        let post_ts = hisvsim_obs::now_us();
        let post_start = Instant::now();
        let post_span = hisvsim_obs::span("job", "postprocess").detail(format!("#{job_index}"));
        let counts = if job.shots > 0 {
            let mut counts = std::collections::BTreeMap::new();
            for outcome in measure::sample_shots(&state, job.shots, job.seed) {
                *counts.entry(outcome).or_insert(0) += 1;
            }
            counts
        } else {
            Default::default()
        };
        let z_expectations = job
            .observables
            .iter()
            .map(|&q| (q, measure::expectation_z(&state, q)))
            .collect();
        drop(post_span);
        phase(
            "postprocess",
            post_ts,
            &post_start,
            format!("{} shots, {} observables", job.shots, job.observables.len()),
        );

        Ok(JobResult {
            job_index,
            circuit_name: circuit.name.clone(),
            engine: decision.engine,
            decision,
            verdict,
            state: self.config.retain_states.then_some(state),
            report,
            counts,
            z_expectations,
            wall_time_s: start.elapsed().as_secs_f64(),
            plan_time_s,
            plan_cache_hit: source.is_hit(),
            kernel_dispatch: dispatch,
            timeline,
        })
    }

    /// Obtain the fused partition plan for a decision from the plan cache:
    /// served from memory, rebuilt from a disk-persisted partition on a warm
    /// start, or planned from scratch. Every auto-selected engine takes one
    /// — a circuit within the cache budget gets a one-part plan, so its
    /// fusion is cached like any partition. Only the forced baseline, the
    /// paper's comparison engine, runs unplanned and fuses per job.
    fn obtain_plan(
        &self,
        circuit: &Circuit,
        decision: &EngineDecision,
    ) -> Result<(Option<CachedPlan>, PlanSource), PartitionBuildError> {
        if decision.engine == EngineKind::Baseline {
            return Ok((None, PlanSource::Planned));
        }
        let two_level = decision.engine == EngineKind::Multilevel;
        let key = PlanKey {
            fingerprint: circuit.fingerprint(),
            limit: decision.limit,
            second_limit: if two_level { decision.second_limit } else { 0 },
        };
        // A cold plan's phases, each a span inside the job's `job/plan`.
        let (plan, source) = self.cache.get_or_plan(key, || {
            let dag = {
                let _span = hisvsim_obs::span("plan", "dag");
                CircuitDag::from_circuit(circuit)
            };
            // Warm start: a persisted partition of the key's shape skips the
            // expensive partitioning, once it validates against the
            // circuit's DAG; a stale or invalid entry is planned afresh.
            let warm = (self.cache.take_warm(&key))
                .filter(|persisted| matches!(persisted, PersistedPlan::Two(_)) == two_level)
                .and_then(|persisted| {
                    persisted
                        .validate_and_fuse(circuit, &dag, decision.limit)
                        .ok()
                });
            if let Some(plan) = warm {
                return Ok((plan, PlanSource::Warm));
            }
            let partition = {
                let _span = hisvsim_obs::span("plan", "partition");
                if two_level {
                    let (first, second) = (decision.limit, decision.second_limit);
                    PersistedPlan::Two(Planner.plan_two_level(&dag, first, second)?)
                } else {
                    PersistedPlan::Single(Planner.plan_single(&dag, decision.limit)?)
                }
            };
            Ok((partition.fuse(circuit, &dag), PlanSource::Planned))
        })?;
        Ok((Some(plan), source))
    }

    /// Run the chosen engine over the job's compiled schedule, under the
    /// given execution control, handing the state back permuted by `perm`.
    fn simulate(
        &self,
        circuit: &Circuit,
        decision: &EngineDecision,
        dispatch: KernelDispatch,
        schedule: &Option<PlanSchedule<'_>>,
        perm: &[Qubit],
        exec: &ExecControl,
    ) -> Result<(StateVector, RunReport), hisvsim_statevec::Cancelled> {
        let network = self.config.selector.network;
        match decision.engine {
            EngineKind::Baseline => IqsBaseline::new(
                BaselineConfig::new(decision.ranks)
                    .with_network(network)
                    .with_kernel_dispatch(dispatch),
            )
            .run_controlled(circuit, Some(perm), exec)
            .map(|run| (run.state, run.report)),
            engine => {
                let schedule = schedule.as_ref().expect("a planned engine needs a plan");
                let (name, strategy) = (engine.name(), Strategy::DagP.name());
                let spec =
                    RunSpec::new(name, strategy, decision.ranks, network, dispatch).with_perm(perm);
                run_plan(circuit, schedule, spec, exec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::EngineSelector;
    use hisvsim_circuit::generators;
    use hisvsim_statevec::run_circuit;

    fn runner() -> JobRunner {
        JobRunner::new(SchedulerConfig::default().with_selector(EngineSelector::scaled(4, 8)))
    }

    #[test]
    fn inert_control_executes_like_the_scheduler() {
        let runner = runner();
        let residency = Semaphore::new(2);
        let circuit = generators::qft(7);
        let expected = run_circuit(&circuit);
        let result = runner
            .execute_job(0, SimJob::new(circuit), &residency, &JobControl::new())
            .unwrap();
        assert!(result.state.as_ref().unwrap().approx_eq(&expected, 1e-9));
        assert_eq!(residency.available(), 2, "permit must be released");
    }

    #[test]
    fn pre_cancelled_job_never_takes_a_residency_slot() {
        let runner = runner();
        let residency = Semaphore::new(1);
        let control = JobControl::new();
        control.cancel.cancel();
        let err = runner
            .execute_job(0, SimJob::new(generators::qft(7)), &residency, &control)
            .unwrap_err();
        assert!(matches!(err, JobError::Cancelled));
        assert_eq!(residency.available(), 1);
    }

    #[test]
    fn cancellation_unblocks_a_job_waiting_for_a_residency_slot() {
        // The only permit is held elsewhere for the whole test: a job
        // cancelled while parked in acquire must return promptly instead
        // of waiting for the holder.
        let runner = runner();
        let residency = Semaphore::new(1);
        let _held = residency.acquire();
        let control = JobControl::new();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                runner.execute_job(0, SimJob::new(generators::qft(7)), &residency, &control)
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            control.cancel.cancel();
            let err = waiter.join().unwrap().unwrap_err();
            assert!(matches!(err, JobError::Cancelled));
        });
        // No phantom permit was minted or leaked.
        assert_eq!(residency.available(), 0);
    }

    #[test]
    fn phase_callbacks_fire_in_order() {
        use std::sync::atomic::{AtomicU8, Ordering};
        let runner = runner();
        let residency = Semaphore::new(1);
        let phase = Arc::new(AtomicU8::new(0));
        let (p1, p2, p3) = (Arc::clone(&phase), Arc::clone(&phase), Arc::clone(&phase));
        let control = JobControl {
            cancel: CancelToken::new(),
            on_planning: Some(Arc::new(move || {
                p1.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .expect("planning must be the first phase");
            })),
            on_plan_ready: Some(Arc::new(move |_hit| {
                p2.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                    .expect("plan-ready must follow planning");
            })),
            on_executing: Some(Arc::new(move |_done, _total| {
                p3.store(3, Ordering::SeqCst);
            })),
        };
        runner
            .execute_job(0, SimJob::new(generators::qft(7)), &residency, &control)
            .unwrap();
        assert_eq!(phase.load(Ordering::SeqCst), 3, "executing never reported");
    }

    #[test]
    fn the_verdict_predicts_the_schedule_the_ranks_run() {
        // A forced-dist qft(21) runs on two ranks, each sweeping a 20-qubit
        // slice: the prediction is that schedule's passes over one slice, not
        // a world of one's over the whole state.
        let runner = JobRunner::new(SchedulerConfig::default());
        let residency = Semaphore::new(1);
        let circuit = generators::qft(21);
        let job = SimJob::new(circuit.clone()).with_engine(EngineKind::Dist);
        let result = runner
            .execute_job(0, job, &residency, &JobControl::new())
            .unwrap();
        let decision = &result.decision;
        assert_eq!((decision.ranks, decision.limit), (2, 20));
        let (relabeled, _) = circuit.relabel_swaps();
        let dag = CircuitDag::from_circuit(&relabeled);
        let partition = Planner.plan_single(&dag, decision.limit).unwrap();
        let plan = hisvsim_core::FusedSinglePlan::new(&relabeled, &dag, partition);
        let schedule = hisvsim_core::FusedPlan::Single(&plan).schedule(21, 2);
        assert_eq!((schedule.passes(), schedule.exchanges()), (4, 2));
        assert_eq!(result.report.num_exchanges, 2);
        let sweeps = 4.0 * (32u64 << 20) as f64 / (NOMINAL_SWEEP_GBPS * 1e9);
        let exchanges = decision.est_exchange_s * 2.0;
        assert_eq!(result.verdict.predicted_execute_s, sweeps + exchanges);
    }

    #[test]
    fn plan_failure_is_an_error_not_a_panic() {
        let runner = runner();
        let residency = Semaphore::new(1);
        // Toffoli arity 3 with an explicit limit of 2: unplannable.
        let job = SimJob::new(generators::adder(8))
            .with_engine(EngineKind::Hier)
            .with_limit(2);
        let err = runner
            .execute_job(0, job, &residency, &JobControl::new())
            .unwrap_err();
        match err {
            JobError::PlanFailed { limit, .. } => assert_eq!(limit, 2),
            other => panic!("expected PlanFailed, got {other}"),
        }
    }
}
