//! The client side of a submitted job: status snapshots, the progress
//! event stream, blocking waits and cancellation.

use crate::artifacts::{ArtifactStore, JobArtifacts};
use crate::service::{deadline_message, ServiceStats, LOG_TARGET};
use hisvsim_obs::{log, SpanRecord};
use hisvsim_runtime::{JobResult, SimJob};
use hisvsim_statevec::CancelToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

/// Scheduling priority of a submitted job. Higher priorities are popped
/// first; within a priority the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPriority {
    /// Background work (sweeps, speculative submissions).
    Low,
    /// The default.
    Normal,
    /// Latency-sensitive work; jumps every queued `Normal`/`Low` job.
    High,
}

/// One event on a job's progress stream, in lifecycle order:
/// `Queued → Planning → PlanReady → Executing…` and then exactly one of
/// `Done`, `Cancelled` or `Failed`, after which the stream disconnects.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job entered the priority queue.
    Queued,
    /// A worker claimed the job and started planning (or a cache lookup).
    Planning,
    /// The plan is ready; `cache_hit` is true when it came from the plan
    /// cache (in-memory, or re-fused from a disk-persisted partition)
    /// instead of being planned from scratch.
    PlanReady {
        /// Whether the plan came from the cache.
        cache_hit: bool,
    },
    /// The engine is executing; emitted at execution start
    /// (`gates_done == 0`) and after every completed part.
    Executing {
        /// Source gates whose parts have fully executed.
        gates_done: u64,
        /// Total source gates of the circuit.
        gates_total: u64,
    },
    /// The job finished; its [`JobResult`] is available via
    /// [`JobHandle::wait`].
    Done,
    /// The job was cancelled at a cooperative checkpoint (or while queued).
    Cancelled,
    /// The job failed (planning error or an engine panic).
    Failed {
        /// Human-readable failure description.
        message: String,
    },
}

/// A point-in-time status snapshot, returned by [`JobHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the priority queue.
    Queued,
    /// A worker is planning (or looking the plan up).
    Planning,
    /// Plan ready; waiting for a resident-state-vector slot.
    PlanReady,
    /// The engine is executing.
    Executing {
        /// Source gates whose parts have fully executed.
        gates_done: u64,
        /// Total source gates of the circuit.
        gates_total: u64,
    },
    /// Finished successfully.
    Done,
    /// Cancelled.
    Cancelled,
    /// Failed (see the [`JobEvent::Failed`] message / [`JobHandle::wait`]).
    Failed,
}

impl JobStatus {
    /// Terminal states produce no further events.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job was cancelled.
    Cancelled,
    /// Planning failed or the engine panicked.
    Failed(String),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Cancelled => f.write_str("job cancelled"),
            JobFailure::Failed(message) => write!(f, "job failed: {message}"),
        }
    }
}

impl std::error::Error for JobFailure {}

/// What every job of one service shares: the counters and gauges a job's
/// terminal transition moves, the artifact store it lands in, and the
/// registry of live jobs it leaves.
pub(crate) struct JobBook {
    /// Counters and gauges, moved together under one lock, so every
    /// snapshot satisfies `submitted == queue_depth + running + completed
    /// + cancelled + failed`.
    stats: Mutex<ServiceStats>,
    /// Terminal-job artifacts, bounded LRU.
    pub(crate) artifacts: ArtifactStore,
    /// Jobs submitted and not yet ended, by id, for status queries. Weak,
    /// so the registry never extends a job's lifetime.
    pub(crate) live: Mutex<HashMap<u64, Weak<JobShared>>>,
}

impl JobBook {
    pub(crate) fn new(artifact_capacity: usize) -> Self {
        Self {
            stats: Mutex::new(ServiceStats::default()),
            artifacts: ArtifactStore::new(artifact_capacity),
            live: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn stats(&self) -> MutexGuard<'_, ServiceStats> {
        self.stats.lock().expect("service stats poisoned")
    }
}

/// The state shared between a [`JobHandle`] and the worker executing the
/// job.
pub(crate) struct JobShared {
    pub(crate) id: u64,
    pub(crate) circuit: String,
    pub(crate) gates_total: u64,
    state_bytes: u64,
    deadline: Option<Duration>,
    pub(crate) cancel: CancelToken,
    pub(crate) state: Mutex<JobState>,
    finished: Condvar,
    /// Event sender; dropped at the terminal transition so the stream
    /// disconnects once drained.
    events: Mutex<Option<Sender<JobEvent>>>,
    /// Set by the service's deadline timer before it fires the cancel
    /// token, so a cancellation surfaces as `Failed { DeadlineExceeded }`
    /// rather than `Cancelled`.
    pub(crate) deadline_fired: AtomicBool,
    book: Arc<JobBook>,
}

pub(crate) struct JobState {
    pub(crate) status: JobStatus,
    pub(crate) outcome: Option<Result<JobResult, JobFailure>>,
}

impl JobShared {
    /// Enter `job` into `book` as queued: it takes the next id, is counted
    /// as submitted and queued, and is registered live.
    pub(crate) fn submit(book: &Arc<JobBook>, job: &SimJob, events: Sender<JobEvent>) -> Arc<Self> {
        let id = {
            let mut stats = book.stats();
            stats.submitted += 1;
            stats.queue_depth += 1;
            stats.submitted - 1
        };
        let shared = Arc::new(Self {
            id,
            circuit: job.circuit.name.clone(),
            gates_total: job.circuit.num_gates() as u64,
            state_bytes: (32u128 << job.circuit.num_qubits()).min(u64::MAX as u128) as u64,
            deadline: job.deadline,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                outcome: None,
            }),
            finished: Condvar::new(),
            events: Mutex::new(Some(events)),
            deadline_fired: AtomicBool::new(false),
            book: Arc::clone(book),
        });
        book.live
            .lock()
            .expect("live map poisoned")
            .insert(id, Arc::downgrade(&shared));
        shared
    }

    /// Emit an event to the stream (dropped silently once the handle's
    /// receiver is gone).
    pub(crate) fn emit(&self, event: JobEvent) {
        if let Some(sender) = self.events.lock().expect("event sink poisoned").as_ref() {
            let _ = sender.send(event);
        }
    }

    /// Update the non-terminal status (no-op once terminal — a late engine
    /// progress report must not resurrect a cancelled job's status).
    pub(crate) fn set_status(&self, status: JobStatus) {
        let mut state = self.state.lock().expect("job state poisoned");
        if !state.status.is_terminal() {
            state.status = status;
        }
    }

    /// A worker claims the job it popped: false if the job already ended
    /// in the queue (its transition counted and stored it; the heap entry
    /// is just dropped), else the job moves from the queued gauge to the
    /// running one, under the lock [`JobShared::finish`] decides by.
    pub(crate) fn claim(&self) -> bool {
        let mut state = self.state.lock().expect("job state poisoned");
        if state.outcome.is_some() {
            return false;
        }
        state.status = JobStatus::Planning;
        let mut stats = self.book.stats();
        stats.queue_depth -= 1;
        stats.running += 1;
        true
    }

    /// The terminal transition, the one place a job ends. `claimed` says
    /// the caller is the worker that claimed the job; a handle's cancel or
    /// the deadline timer passes false and wins only while the job is
    /// still queued. Under the job's state lock the winner (outcome unset)
    /// moves the job off its gauge onto exactly one counter (plus
    /// `deadline_exceeded` when the deadline turned a cancellation into a
    /// failure), stores its artifact, sets the outcome, sends the terminal
    /// event and closes the stream; then waiters wake. So counters,
    /// artifact and stream are final the moment [`JobHandle::wait`]
    /// returns. A losing call changes nothing.
    pub(crate) fn finish(
        &self,
        outcome: Result<JobResult, JobFailure>,
        spans: Vec<SpanRecord>,
        claimed: bool,
    ) {
        let mut state = self.state.lock().expect("job state poisoned");
        if state.outcome.is_some() || (!claimed && state.status != JobStatus::Queued) {
            return;
        }
        let deadline_hit = matches!(outcome, Err(JobFailure::Cancelled))
            && self.deadline_fired.load(Ordering::SeqCst);
        let outcome = if deadline_hit {
            Err(JobFailure::Failed(deadline_message(
                self.deadline.unwrap_or_default(),
            )))
        } else {
            outcome
        };
        let (status, event) = match &outcome {
            Ok(_) => (JobStatus::Done, JobEvent::Done),
            Err(JobFailure::Cancelled) => (JobStatus::Cancelled, JobEvent::Cancelled),
            Err(JobFailure::Failed(message)) => (
                JobStatus::Failed,
                JobEvent::Failed {
                    message: message.clone(),
                },
            ),
        };
        {
            let mut stats = self.book.stats();
            if claimed {
                stats.running -= 1;
            } else {
                stats.queue_depth -= 1;
            }
            match status {
                JobStatus::Done => stats.completed += 1,
                JobStatus::Cancelled => stats.cancelled += 1,
                _ => stats.failed += 1,
            }
            if deadline_hit {
                stats.deadline_exceeded += 1;
            }
        }
        self.book.artifacts.insert(JobArtifacts::new(
            self.id,
            self.circuit.clone(),
            self.gates_total,
            self.state_bytes,
            &outcome,
            spans,
        ));
        // A job a worker ran is logged; one that ended in the queue is not
        // (a burst of expiries would flood the log).
        if claimed {
            log_outcome(self.id, &self.circuit, &outcome);
        }
        state.status = status;
        state.outcome = Some(outcome);
        // The sender goes with the terminal event: a racing phase emit can
        // land before it but never after it.
        if let Some(sender) = self.events.lock().expect("event sink poisoned").take() {
            let _ = sender.send(event);
        }
        drop(state);
        self.finished.notify_all();
        // After the state lock: `job_status` takes the live map first.
        self.book
            .live
            .lock()
            .expect("live map poisoned")
            .remove(&self.id);
    }
}

fn log_outcome(id: u64, circuit: &str, outcome: &Result<JobResult, JobFailure>) {
    let id = id.to_string();
    match outcome {
        Ok(result) => log::info(
            LOG_TARGET,
            "job done",
            &[
                ("job", &id),
                ("circuit", circuit),
                ("engine", result.engine.name()),
                ("wall_s", &format!("{:.3}", result.wall_time_s)),
            ],
        ),
        Err(JobFailure::Cancelled) => log::info(
            LOG_TARGET,
            "job cancelled",
            &[("job", &id), ("circuit", circuit)],
        ),
        Err(JobFailure::Failed(message)) => log::warn(
            LOG_TARGET,
            "job failed",
            &[("job", &id), ("circuit", circuit), ("error", message)],
        ),
    }
}

/// A non-blocking handle to a submitted job: poll it, wait on it, cancel
/// it, or follow its progress event stream. `Send` but not `Sync` (the
/// stream's receiver is single-consumer): move it to the thread that
/// follows the job.
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
    pub(crate) events: Receiver<JobEvent>,
}

impl JobHandle {
    /// The service-assigned job id (also the `job_index` of the eventual
    /// [`JobResult`]).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Non-blocking status snapshot.
    pub fn poll(&self) -> JobStatus {
        self.shared.state.lock().expect("job state poisoned").status
    }

    /// True once the job reached `Done`, `Cancelled` or `Failed`.
    pub fn is_finished(&self) -> bool {
        self.poll().is_terminal()
    }

    /// Block until the job finishes and return its outcome. The final state
    /// is handed over, not copied: the first call that finds the job done
    /// takes [`JobResult::state`] out of the shared slot (a 22-qubit state is
    /// 64 MiB — cloning it cost a steady 45 ms under the job's lock), and
    /// every later call returns the same result with `state: None`, the
    /// shape a result has under `retain_states = false`. Everything else —
    /// counts, expectations, timeline, decision — is cloned on every call.
    /// Dropping the state gives its buffer back to the process's pool
    /// (`hisvsim_statevec::buffers`), so a caller that drops each result
    /// before its next job lets that job zero the buffer instead of
    /// faulting a fresh one in.
    pub fn wait(&self) -> Result<JobResult, JobFailure> {
        let mut state = self.shared.state.lock().expect("job state poisoned");
        while state.outcome.is_none() {
            state = self
                .shared
                .finished
                .wait(state)
                .expect("job state poisoned");
        }
        match state.outcome.as_mut().expect("outcome present") {
            Ok(result) => {
                let state = result.state.take();
                Ok(JobResult {
                    state,
                    ..result.clone()
                })
            }
            Err(failure) => Err(failure.clone()),
        }
    }

    /// Request cooperative cancellation. A job still queued ends here, in
    /// its terminal transition: counted, its artifact stored and its
    /// stream closed before this returns. A running job stops at its next
    /// checkpoint (between fused parts / passes of a part) and ends on
    /// its worker, releasing its residency slot. Cancelling a finished job
    /// is a no-op. When the job's deadline has fired, the cancellation
    /// surfaces as `Failed { DeadlineExceeded }`.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        self.shared
            .finish(Err(JobFailure::Cancelled), Vec::new(), false);
    }

    /// The progress event stream (see [`JobEvent`] for the order). Events
    /// are buffered from submission, so a late subscriber still sees the
    /// full history; the channel disconnects after the terminal event.
    pub fn progress(&self) -> &Receiver<JobEvent> {
        &self.events
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.shared.id)
            .field("status", &self.poll())
            .finish()
    }
}
