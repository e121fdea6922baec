//! The client side of a submitted job: status snapshots, the progress
//! event stream, blocking waits and cancellation.

use crossbeam::channel::{Receiver, Sender};
use hisvsim_runtime::JobResult;
use hisvsim_statevec::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// The state shared between a [`JobHandle`] and the worker executing the
/// job.
pub(crate) struct JobShared {
    pub(crate) id: u64,
    pub(crate) cancel: CancelToken,
    pub(crate) state: Mutex<JobState>,
    pub(crate) finished: Condvar,
    /// Event sender; dropped at the terminal transition so the stream
    /// disconnects once drained.
    pub(crate) events: Mutex<Option<Sender<JobEvent>>>,
    /// Set by the service's deadline timer before it fires the cancel
    /// token, so a deadline-cancelled run surfaces as `Failed
    /// { DeadlineExceeded }` rather than `Cancelled`.
    pub(crate) deadline_fired: AtomicBool,
    /// Service-wide count of jobs finalized *while still queued* (handle
    /// cancel, deadline expiry) and not yet lazily dropped by a worker.
    /// Shared with the service so `stats()` can report an honest queue
    /// depth as `heap len − this`, without locking per-job state.
    pub(crate) finalized_queued: Arc<AtomicU64>,
}

pub(crate) struct JobState {
    pub(crate) status: JobStatus,
    pub(crate) outcome: Option<Result<JobResult, JobFailure>>,
}

impl JobShared {
    pub(crate) fn new(id: u64, events: Sender<JobEvent>, finalized_queued: Arc<AtomicU64>) -> Self {
        Self {
            id,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                outcome: None,
            }),
            finished: Condvar::new(),
            events: Mutex::new(Some(events)),
            deadline_fired: AtomicBool::new(false),
            finalized_queued,
        }
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

    /// Terminal transition: record the outcome exactly once, emit the
    /// matching event, close the stream and wake every waiter. Returns
    /// false if the job was already finalized (e.g. cancel-after-complete).
    pub(crate) fn finalize(&self, outcome: Result<JobResult, JobFailure>) -> bool {
        self.finalize_impl(outcome, false)
    }

    /// [`JobShared::finalize`], but only if the job is still *queued*
    /// (never claimed by a worker). The status check and the terminal
    /// transition happen under one lock hold, so the caller's
    /// finalized-while-queued accounting is exact even against a racing
    /// claim — a worker marks the job claimed under the same lock.
    pub(crate) fn finalize_queued(&self, outcome: Result<JobResult, JobFailure>) -> bool {
        self.finalize_impl(outcome, true)
    }

    fn finalize_impl(&self, outcome: Result<JobResult, JobFailure>, only_if_queued: bool) -> bool {
        let event = {
            let mut state = self.state.lock().expect("job state poisoned");
            if state.outcome.is_some() {
                return false;
            }
            if only_if_queued && state.status != JobStatus::Queued {
                return false;
            }
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
            state.status = status;
            state.outcome = Some(outcome);
            event
        };
        // Send the terminal event and close the stream under one lock hold,
        // so a racing phase emit can land before the terminal event but
        // never after it (the sender is gone); receivers observe disconnect
        // after draining.
        {
            let mut sink = self.events.lock().expect("event sink poisoned");
            if let Some(sender) = sink.take() {
                let _ = sender.send(event);
            }
        }
        self.finished.notify_all();
        true
    }
}

/// A non-blocking handle to a submitted job: poll it, wait on it, cancel
/// it, or follow its progress event stream.
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

    /// Request cooperative cancellation. A queued job is finalized
    /// immediately; a running job stops at its next checkpoint (between
    /// fused parts / gather assignments), releasing its residency slot.
    /// Cancelling a finished job is a no-op.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        // Fast path: a job still in the queue is finalized here and never
        // claimed (workers skip jobs with an outcome); it stays in the
        // heap until lazily dropped, so the phantom-entry counter feeding
        // the service's queue-depth gauge is bumped. Running jobs are
        // finalized by their worker at the next checkpoint.
        // Pre-bump so the gauge is consistent the instant a `wait()` on
        // this job returns (finalize wakes waiters); undo on the paths
        // that did not actually finalize a queued entry.
        self.shared.finalized_queued.fetch_add(1, Ordering::Relaxed);
        if !self.shared.finalize_queued(Err(JobFailure::Cancelled)) {
            self.shared.finalized_queued.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The progress event stream (see [`JobEvent`] for the order). Events
    /// are buffered from submission, so a late subscriber still sees the
    /// full history; the channel disconnects after the terminal event.
    /// Each event is delivered to exactly one receiver — clone intended
    /// for a single consumer.
    pub fn progress(&self) -> Receiver<JobEvent> {
        self.events.clone()
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
