//! The long-lived job service: a priority queue in front of the runtime's
//! worker-pool core.

use crate::artifacts::{JobArtifacts, JobStatusReport, DEFAULT_ARTIFACT_CAPACITY};
use crate::handle::{JobBook, JobEvent, JobFailure, JobHandle, JobPriority, JobShared, JobStatus};
use hisvsim_obs::log;
use hisvsim_obs::{Counter, Histogram, Registry};
use hisvsim_runtime::pool::{JobControl, JobError, JobRunner, Semaphore};
use hisvsim_runtime::{CacheStats, PlanCache, SchedulerConfig, SimJob};
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reason prefix carried by the `Failed` event/outcome of a job whose
/// deadline timer fired (distinguishes it from an explicit `cancel()`).
pub const DEADLINE_EXCEEDED: &str = "DeadlineExceeded";

pub(crate) const LOG_TARGET: &str = "hisvsim-service";

pub(crate) fn deadline_message(deadline: Duration) -> String {
    format!(
        "{DEADLINE_EXCEEDED}: job exceeded its {:.3}s deadline",
        deadline.as_secs_f64()
    )
}

/// Service configuration: the scheduler configuration the worker-pool core
/// runs with, plus the service-level persistence and retention knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker count, residency bound, engine selector, process backend —
    /// identical semantics to batch mode.
    pub scheduler: SchedulerConfig,
    /// Plan-cache snapshot location. When set, the snapshot is loaded at
    /// startup (missing file = cold start, not an error) and written at
    /// shutdown, so a restarted service replans nothing it already planned.
    pub persist_path: Option<PathBuf>,
    /// Bound of the completed-job artifact LRU (status, timeline, spans,
    /// profile delta retained per terminal job for later download).
    pub artifact_capacity: usize,
    /// When true, each completed job drains the global span recorder into
    /// its own artifact. Off by default because the drain is process-wide:
    /// callers that drain the recorder themselves (timeline exporters)
    /// would race it.
    pub trace_artifacts: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scheduler: SchedulerConfig::default(),
            persist_path: None,
            artifact_capacity: DEFAULT_ARTIFACT_CAPACITY,
            trace_artifacts: false,
        }
    }
}

impl ServiceConfig {
    /// The default configuration (no persistence).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: use this scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builder: persist the plan cache at `path` (loaded at startup,
    /// saved at shutdown and via [`SimService::persist_plans`]).
    pub fn with_persistence(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist_path = Some(path.into());
        self
    }

    /// Builder: retain artifacts for up to `capacity` completed jobs
    /// (default [`DEFAULT_ARTIFACT_CAPACITY`]).
    pub fn with_artifact_capacity(mut self, capacity: usize) -> Self {
        self.artifact_capacity = capacity;
        self
    }

    /// Builder: drain the span recorder into each completing job's
    /// artifact, making `/jobs/<id>/trace` downloads carry kernel and
    /// collective spans. See [`ServiceConfig::trace_artifacts`] for why
    /// this is opt-in.
    pub fn with_trace_artifacts(mut self, on: bool) -> Self {
        self.trace_artifacts = on;
        self
    }
}

/// Lifetime counters and current gauges of a service instance. A job's
/// terminal transition moves it off a gauge and onto one counter in the
/// same step, so every snapshot holds `submitted == queue_depth + running +
/// completed + cancelled + failed` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted by [`SimService::submit`].
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs cancelled (while queued or mid-execution).
    pub cancelled: u64,
    /// Jobs that failed (planning error, backend error or engine panic),
    /// including deadline expiries.
    pub failed: u64,
    /// Jobs whose deadline timer fired before they completed (a subset of
    /// `failed`).
    pub deadline_exceeded: u64,
    /// Jobs waiting to run: submitted, not claimed by a worker and not
    /// ended. A job cancelled or timed out in the queue leaves this gauge
    /// in its terminal transition, though its heap entry stays until a
    /// worker pops and drops it.
    pub queue_depth: usize,
    /// Jobs claimed by a worker and not yet ended.
    pub running: usize,
}

/// A queued job: max-heap ordering is priority first, FIFO within a
/// priority (lower id wins).
struct QueuedJob {
    priority: JobPriority,
    job: SimJob,
    shared: Arc<JobShared>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.shared.id == other.shared.id
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.shared.id.cmp(&self.shared.id))
    }
}

/// One armed deadline: when it is due and the job it belongs to. The job
/// reference is weak: the heap is not rebalanced when a job ends, and a
/// strong reference would pin the finished job's outcome (including a possibly huge result
/// state vector) until the entry's due time. Live jobs are kept alive by
/// the queue / their worker / their handle; an entry that no longer
/// upgrades belongs to a job nobody can observe anymore and fires as a
/// no-op.
struct DeadlineEntry {
    due: Instant,
    job_id: u64,
    shared: std::sync::Weak<JobShared>,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.job_id == other.job_id
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the timer wants the
        // *earliest* due entry on top. Ties broken by job id for a total
        // order.
        other
            .due
            .cmp(&self.due)
            .then(other.job_id.cmp(&self.job_id))
    }
}

/// The deadline min-heap owned by the service's single timer thread.
/// [`arm_deadline`] pushes an entry here and at most **one** timer thread
/// (spawned lazily on the first armed deadline) sleeps until the earliest
/// due time, pops everything expired, and fires each. Entries whose job
/// finished in time are discarded when popped.
struct DeadlineQueue {
    heap: Mutex<BinaryHeap<DeadlineEntry>>,
    /// Wakes the timer for a new earliest deadline or for shutdown.
    wake: Condvar,
    /// Set (then notified) at shutdown, after the workers have drained.
    stop: AtomicBool,
    /// Timer threads ever spawned — 0 before the first deadline, 1 after;
    /// observable via [`SimService::deadline_timer_threads`].
    threads_spawned: AtomicUsize,
}

impl Default for DeadlineQueue {
    fn default() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            threads_spawned: AtomicUsize::new(0),
        }
    }
}

/// The service's slice of the unified obs registry: histogram/counter
/// handles updated on the hot path (per completed job), while the plain
/// service/cache counters are synced into the registry at scrape time.
struct ServiceMetrics {
    registry: Registry,
    job_wall_seconds: Arc<Histogram>,
    job_plan_seconds: Arc<Histogram>,
    selector_misprediction_ratio: Arc<Histogram>,
    comm_bytes_total: Arc<Counter>,
    comm_messages_total: Arc<Counter>,
    comm_wall_seconds_total: Arc<Counter>,
}

impl ServiceMetrics {
    fn new(registry: Registry) -> Self {
        Self {
            job_wall_seconds: registry.histogram(
                "hisvsim_job_wall_seconds",
                "End-to-end wall time per completed job (plan + execute + postprocess).",
            ),
            job_plan_seconds: registry.histogram(
                "hisvsim_job_plan_seconds",
                "Seconds spent obtaining the plan per completed job (~0 on a cache hit).",
            ),
            selector_misprediction_ratio: registry.histogram(
                "hisvsim_selector_misprediction_ratio",
                "Measured-over-predicted execute seconds per completed job (1.0 = perfect \
                 cost model; drift here says the static model is stale).",
            ),
            comm_bytes_total: registry.counter(
                "hisvsim_comm_bytes_sent_total",
                "Bytes moved by collectives across all ranks of completed jobs.",
            ),
            comm_messages_total: registry.counter(
                "hisvsim_comm_messages_total",
                "Messages sent by collectives across all ranks of completed jobs.",
            ),
            comm_wall_seconds_total: registry.counter(
                "hisvsim_comm_wall_seconds_total",
                "Wall seconds ranks of completed jobs spent inside collectives.",
            ),
            registry,
        }
    }

    /// Record one successfully completed job.
    fn observe_job(&self, result: &hisvsim_runtime::JobResult) {
        self.job_wall_seconds.observe(result.wall_time_s);
        self.job_plan_seconds.observe(result.plan_time_s);
        if result.verdict.predicted_execute_s > 0.0 {
            self.selector_misprediction_ratio
                .observe(result.verdict.ratio());
        }
        let comm = result.comm_stats();
        self.comm_bytes_total.add(comm.bytes_sent as f64);
        self.comm_messages_total.add(comm.messages_sent as f64);
        self.comm_wall_seconds_total.add(comm.wall_time_s);
    }
}

struct Inner {
    runner: JobRunner,
    metrics: ServiceMetrics,
    residency: Semaphore,
    /// Worker threads the pool was started with (for readiness probes).
    worker_count: usize,
    /// Resident-state-vector slot capacity backing `residency`.
    resident_capacity: usize,
    /// Counters, gauges, artifacts and live jobs, shared with every job.
    book: Arc<JobBook>,
    /// Per-job drain of the span recorder into artifacts (see
    /// [`ServiceConfig::trace_artifacts`]).
    trace_artifacts: bool,
    queue: Mutex<BinaryHeap<QueuedJob>>,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    /// The armed-deadline min-heap (one timer thread for all jobs).
    deadlines: DeadlineQueue,
    /// The timer thread, spawned on the first armed deadline and joined at
    /// shutdown (after the workers, so deadlines keep firing mid-drain).
    timer: Mutex<Option<JoinHandle<()>>>,
}

/// A long-lived simulation job service: non-blocking [`SimService::submit`]
/// returning a [`JobHandle`] with `poll`/`wait`/`cancel` and a progress
/// event stream, a mixed-priority queue drained by the runtime's
/// worker-pool core, and an optionally disk-persisted plan cache so a
/// restarted service starts warm.
///
/// Dropping the service (or calling [`SimService::shutdown`]) drains the
/// queue — every already-submitted job still runs to a terminal state —
/// then joins the workers and writes the plan-cache snapshot if
/// persistence is configured.
pub struct SimService {
    inner: Arc<Inner>,
    persist_path: Option<PathBuf>,
    workers: Vec<JoinHandle<()>>,
}

impl SimService {
    /// Start a service: loads the plan-cache snapshot when persistence is
    /// configured (a missing snapshot is a cold start, not an error; an
    /// unreadable one is a cold start and a warning), then spawns the worker
    /// threads.
    pub fn start(config: ServiceConfig) -> Self {
        let runner = JobRunner::new(config.scheduler.clone());
        if let Some(path) = &config.persist_path {
            if path.exists() {
                if let Err(e) = runner.cache().load_snapshot(path) {
                    log::warn(
                        LOG_TARGET,
                        "plan snapshot unreadable; starting cold",
                        &[
                            ("path", &path.display().to_string()),
                            ("error", &e.to_string()),
                        ],
                    );
                }
            }
        }
        let worker_count = config.scheduler.workers.max(1);
        let resident_capacity = config.scheduler.max_resident.max(1);
        let inner = Arc::new(Inner {
            residency: Semaphore::new(resident_capacity),
            runner,
            metrics: ServiceMetrics::new(Registry::new()),
            worker_count,
            resident_capacity,
            book: Arc::new(JobBook::new(config.artifact_capacity)),
            trace_artifacts: config.trace_artifacts,
            queue: Mutex::new(BinaryHeap::new()),
            queue_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            deadlines: DeadlineQueue::default(),
            timer: Mutex::new(None),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        log::info(
            LOG_TARGET,
            "service started",
            &[
                ("workers", &worker_count.to_string()),
                ("resident_slots", &resident_capacity.to_string()),
                ("artifact_capacity", &config.artifact_capacity.to_string()),
            ],
        );
        Self {
            inner,
            persist_path: config.persist_path,
            workers,
        }
    }

    /// Submit a job at [`JobPriority::Normal`]. Non-blocking: returns a
    /// handle immediately; execution happens on the worker pool.
    pub fn submit(&self, job: SimJob) -> JobHandle {
        self.submit_with_priority(job, JobPriority::Normal)
    }

    /// Submit a job at an explicit priority. When the job carries a
    /// [`SimJob::with_deadline`], a timer is armed *from submission*: if the
    /// job has not reached a terminal state when it fires, the job's cancel
    /// token is raised and the outcome surfaces as
    /// `Failed { DeadlineExceeded }` rather than `Cancelled`.
    pub fn submit_with_priority(&self, job: SimJob, priority: JobPriority) -> JobHandle {
        let (sender, receiver) = std::sync::mpsc::channel();
        let shared = JobShared::submit(&self.inner.book, &job, sender);
        shared.emit(JobEvent::Queued);
        let handle = JobHandle {
            shared: Arc::clone(&shared),
            events: receiver,
        };
        if let Some(deadline) = job.deadline {
            arm_deadline(&self.inner, &shared, deadline);
        }
        self.inner
            .queue
            .lock()
            .expect("job queue poisoned")
            .push(QueuedJob {
                priority,
                job,
                shared,
            });
        self.inner.queue_ready.notify_one();
        handle
    }

    /// The worker-pool core's persistent plan cache.
    pub fn cache(&self) -> &PlanCache {
        self.inner.runner.cache()
    }

    /// Plan-cache counters (lifetime of this service instance, plus
    /// whatever warm entries the snapshot provided).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.runner.cache().stats()
    }

    /// A consistent snapshot of the service's counters and gauges.
    pub fn stats(&self) -> ServiceStats {
        *self.inner.book.stats()
    }

    /// The unified obs registry backing [`SimService::metrics_text`].
    /// Cheap to clone; callers may register their own series alongside the
    /// service's (they appear in the same exposition).
    pub fn registry(&self) -> Registry {
        self.inner.metrics.registry.clone()
    }

    /// A Prometheus text snapshot of the unified metrics registry: the
    /// service counters (queue depth, terminal-state totals, deadline
    /// expiries), the plan-cache counters (hits, warm hits, misses,
    /// evictions, in-flight dedups), the per-job wall/plan-time histograms,
    /// and the communication totals of completed jobs. A thin view over
    /// [`SimService::registry`]: the ad-hoc `ServiceStats`/`CacheStats`
    /// atomics are synced into the registry at scrape time, everything else
    /// is already there.
    pub fn metrics_text(&self) -> String {
        let s = self.stats();
        let c = self.cache_stats();
        let reg = &self.inner.metrics.registry;
        let counter = |name: &str, help: &str, value: u64| {
            reg.counter(name, help).set(value as f64);
        };
        counter(
            "hisvsim_service_jobs_submitted_total",
            "Jobs accepted by submit().",
            s.submitted,
        );
        counter(
            "hisvsim_service_jobs_completed_total",
            "Jobs that finished successfully.",
            s.completed,
        );
        counter(
            "hisvsim_service_jobs_cancelled_total",
            "Jobs cancelled while queued or mid-execution.",
            s.cancelled,
        );
        counter(
            "hisvsim_service_jobs_failed_total",
            "Jobs that failed (planning, backend, panic or deadline).",
            s.failed,
        );
        counter(
            "hisvsim_service_jobs_deadline_exceeded_total",
            "Jobs whose deadline fired before completion (subset of failed).",
            s.deadline_exceeded,
        );
        counter(
            "hisvsim_plan_cache_hits_total",
            "Plan lookups served from memory.",
            c.hits,
        );
        counter(
            "hisvsim_plan_cache_warm_hits_total",
            "Plan lookups served by re-fusing a disk-persisted partition.",
            c.warm_hits,
        );
        counter(
            "hisvsim_plan_cache_misses_total",
            "Plan lookups that planned from scratch.",
            c.misses,
        );
        counter(
            "hisvsim_plan_cache_evictions_total",
            "Plans evicted by the LRU bound.",
            c.evictions,
        );
        counter(
            "hisvsim_plan_cache_inflight_dedups_total",
            "Plan lookups that waited out another worker's in-flight planning of the same key.",
            c.inflight_dedups,
        );
        counter(
            "hisvsim_fusion_fallback_total",
            "Fusion groups whose modelled fused sweep cost exceeded their unfused cost and \
             were emitted in their cheaper solo form instead (process-wide).",
            hisvsim_statevec::fusion::fusion_fallback_count(),
        );
        counter(
            "hisvsim_hier_parts_total",
            "Parts run by the rank body, which runs every part of every served job \
             (hier and dist) in place (process-wide).",
            hisvsim_core::hier::parts_executed(),
        );
        counter(
            "hisvsim_obs_spans_dropped_total",
            "Trace spans discarded because a thread's ring buffer was full (process-wide; \
             nonzero means timelines and profile deltas are incomplete).",
            hisvsim_obs::dropped(),
        );
        let gauge = |name: &str, help: &str, value: f64| {
            reg.gauge(name, help).set(value);
        };
        gauge(
            "hisvsim_buffer_pool_bytes",
            "Bytes of amplitude buffers (states, rank slices, exchange messages, inner vectors) \
             the process keeps between uses (process-wide; buffers in use are not counted).",
            hisvsim_statevec::buffers::retained_bytes() as f64,
        );
        gauge(
            "hisvsim_service_queue_depth",
            "Jobs currently waiting in the priority queue.",
            s.queue_depth as f64,
        );
        gauge(
            "hisvsim_plan_cache_entries",
            "Plans currently resident in the cache.",
            c.entries as f64,
        );
        gauge(
            "hisvsim_plan_cache_hit_rate",
            "Hits (memory + warm) over total lookups.",
            c.hit_rate(),
        );
        gauge(
            "hisvsim_service_workers",
            "Worker threads draining the priority queue.",
            self.inner.worker_count as f64,
        );
        gauge(
            "hisvsim_service_jobs_in_flight",
            "Jobs claimed by a worker and not yet terminal.",
            s.running as f64,
        );
        let (slots_in_use, slots_capacity) = self.resident_slots();
        gauge(
            "hisvsim_service_resident_slots",
            "Resident-state-vector slot capacity (scheduler max_resident).",
            slots_capacity as f64,
        );
        gauge(
            "hisvsim_service_resident_slots_in_use",
            "Resident-state-vector slots currently held by executing jobs.",
            slots_in_use as f64,
        );
        gauge(
            "hisvsim_service_job_artifacts_retained",
            "Completed-job artifacts currently held in the bounded LRU.",
            self.inner.book.artifacts.len() as f64,
        );
        counter(
            "hisvsim_service_job_artifacts_evicted_total",
            "Completed-job artifacts dropped by the LRU bound.",
            self.inner.book.artifacts.evicted(),
        );
        if let Some(pool) = self
            .inner
            .runner
            .config()
            .process_backend
            .as_ref()
            .and_then(|backend| backend.pool_stats())
        {
            counter(
                "hisvsim_pool_worlds_spawned_total",
                "Worker worlds spawned by the process backend (1 after warm-up unless a \
                 world was dropped by a failure).",
                pool.worlds_spawned,
            );
            counter(
                "hisvsim_pool_jobs_total",
                "Jobs submitted to the process backend's worker pool.",
                pool.jobs_run,
            );
            counter(
                "hisvsim_pool_jobs_reused_world_total",
                "Pool jobs that ran on an already-resident worker world.",
                pool.jobs_reused_world,
            );
            counter(
                "hisvsim_pool_jobs_cancelled_total",
                "Pool jobs stopped at a cooperative cancel checkpoint (world kept warm).",
                pool.jobs_cancelled,
            );
            counter(
                "hisvsim_pool_jobs_failed_total",
                "Pool jobs that failed and dropped their worker world.",
                pool.jobs_failed,
            );
            gauge(
                "hisvsim_pool_launch_seconds_total",
                "Total seconds spent spawning worker worlds and running the rendezvous \
                 (kept out of per-job wall time).",
                pool.launch_seconds_total,
            );
        }
        reg.render()
    }

    /// Worker threads the service was started with.
    pub fn worker_count(&self) -> usize {
        self.inner.worker_count
    }

    /// Resident-state-vector slot occupancy as `(in_use, capacity)`.
    pub fn resident_slots(&self) -> (usize, usize) {
        let capacity = self.inner.resident_capacity;
        (
            capacity.saturating_sub(self.inner.residency.available()),
            capacity,
        )
    }

    /// A point-in-time status report for job `id`: live jobs are
    /// snapshotted from their shared state, terminal jobs are reconstructed
    /// from their retained artifacts. `None` when the id was never
    /// submitted or its artifact has been evicted.
    pub fn job_status(&self, id: u64) -> Option<JobStatusReport> {
        if let Some(artifacts) = self.inner.book.artifacts.get(id) {
            return Some(JobStatusReport::from_artifacts(&artifacts));
        }
        // The live map's lock is released before the job's state lock is
        // taken: a terminal transition drops the live entry after its own
        // state lock.
        let shared = self
            .inner
            .book
            .live
            .lock()
            .expect("live map poisoned")
            .get(&id)?
            .upgrade()?;
        let status = shared.state.lock().expect("job state poisoned").status;
        let total = shared.gates_total;
        let (phase, gates_done, gates_total) = match status {
            JobStatus::Queued => ("queued", 0, total),
            JobStatus::Planning => ("planning", 0, total),
            JobStatus::PlanReady => ("plan_ready", 0, total),
            JobStatus::Executing {
                gates_done,
                gates_total,
            } => ("executing", gates_done, gates_total),
            JobStatus::Done => ("done", total, total),
            JobStatus::Cancelled => ("cancelled", 0, total),
            JobStatus::Failed => ("failed", 0, total),
        };
        Some(JobStatusReport {
            id,
            circuit: shared.circuit.clone(),
            phase: phase.to_string(),
            gates_done,
            gates_total,
            decision: None,
            verdict: None,
            wall_time_s: None,
            plan_time_s: None,
            plan_cache_hit: None,
            failure: None,
            retained_spans: 0,
        })
    }

    /// The retained artifacts of a terminal job (timeline, drained spans,
    /// decision audit, profile delta). `None` while the job is still live,
    /// or once the LRU evicted it.
    pub fn job_artifacts(&self, id: u64) -> Option<JobArtifacts> {
        self.inner.book.artifacts.get(id)
    }

    /// A terminal job's merged timeline + recorder spans as Chrome
    /// trace-event JSON (see [`JobArtifacts::trace_json`]).
    pub fn job_trace_json(&self, id: u64) -> Option<String> {
        self.inner.book.artifacts.get(id).map(|a| a.trace_json())
    }

    /// A terminal job's measured [`CostProfile`](hisvsim_obs::CostProfile)
    /// delta as JSON. `None` when the job is not terminal/retained *or*
    /// completed without a profile delta (cancelled or failed before
    /// executing).
    pub fn job_profile_json(&self, id: u64) -> Option<String> {
        self.inner
            .book
            .artifacts
            .get(id)
            .and_then(|a| a.profile_json())
    }

    /// Timer threads the deadline machinery has ever spawned: `0` before
    /// the first [`SimJob::with_deadline`] submission, `1` after — never
    /// more, regardless of how many deadlined jobs are in flight (they all
    /// share one min-heap).
    pub fn deadline_timer_threads(&self) -> usize {
        self.inner.deadlines.threads_spawned.load(Ordering::SeqCst)
    }

    /// Write the plan-cache snapshot now (requires persistence to be
    /// configured). Returns the number of persisted plans.
    pub fn persist_plans(&self) -> std::io::Result<usize> {
        let path = self.persist_path.as_ref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no persist_path configured")
        })?;
        self.inner.runner.cache().save_snapshot(path)
    }

    /// Drain the queue, join the workers and persist the plan cache (when
    /// configured). Equivalent to dropping the service, but explicit and
    /// able to report the flush.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.shutdown_impl();
        Ok(())
    }

    fn shutdown_impl(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Stop the deadline timer only after the workers drained: deadlines
        // must keep firing for jobs still running out the queue. Every job
        // is terminal now, so pending heap entries are inert. The stop flag
        // is set and notified *under the heap lock*: the timer's
        // check-then-wait is atomic under that lock, so the notification
        // cannot fall between its stop check and its wait (a lost wakeup
        // would hang the join below forever on an empty heap).
        {
            let _heap = self
                .inner
                .deadlines
                .heap
                .lock()
                .expect("deadline heap poisoned");
            self.inner.deadlines.stop.store(true, Ordering::SeqCst);
            self.inner.deadlines.wake.notify_all();
        }
        if let Some(timer) = self
            .inner
            .timer
            .lock()
            .expect("timer handle poisoned")
            .take()
        {
            let _ = timer.join();
        }
        if let Some(path) = &self.persist_path {
            let _ = self.inner.runner.cache().save_snapshot(path);
        }
        // Workers and timer are gone, so no job can reach the backend any
        // more: tear its resident worker world down cleanly (a no-op for
        // stateless backends).
        if let Some(backend) = &self.inner.runner.config().process_backend {
            backend.shutdown();
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// Arm a deadline for a submitted job: push an entry onto the shared
/// deadline min-heap and make sure the (single) timer thread exists. No
/// per-job thread is spawned — 200 deadlined jobs still park exactly one
/// watcher.
fn arm_deadline(inner: &Arc<Inner>, shared: &Arc<JobShared>, deadline: Duration) {
    let entry = DeadlineEntry {
        due: Instant::now() + deadline,
        job_id: shared.id,
        shared: Arc::downgrade(shared),
    };
    inner
        .deadlines
        .heap
        .lock()
        .expect("deadline heap poisoned")
        .push(entry);
    // Wake the timer: the new entry may be the earliest due.
    inner.deadlines.wake.notify_one();
    let mut timer = inner.timer.lock().expect("timer handle poisoned");
    if timer.is_none() {
        inner
            .deadlines
            .threads_spawned
            .fetch_add(1, Ordering::SeqCst);
        let inner = Arc::clone(inner);
        *timer = Some(std::thread::spawn(move || deadline_timer_loop(&inner)));
    }
}

/// The single timer thread: sleep until the earliest armed deadline, pop
/// and fire everything expired, repeat. Entries whose job already reached a
/// terminal state are discarded when popped (the heap is not rebalanced on
/// job completion — an entry for a finished job costs one pop at its due
/// time, never a thread).
fn deadline_timer_loop(inner: &Inner) {
    let mut heap = inner.deadlines.heap.lock().expect("deadline heap poisoned");
    loop {
        if inner.deadlines.stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        match heap.peek().map(|entry| entry.due) {
            None => {
                heap = inner
                    .deadlines
                    .wake
                    .wait(heap)
                    .expect("deadline heap poisoned");
            }
            Some(due) if due <= now => {
                let entry = heap.pop().expect("peeked entry present");
                // A dead weak reference means the job ended and every
                // observer dropped it — nothing left to fire.
                if let Some(shared) = entry.shared.upgrade() {
                    // Fire outside the heap lock: the terminal transition
                    // takes the job's state lock and wakes waiters, neither
                    // of which should serialise against `arm_deadline`.
                    drop(heap);
                    fire_deadline(&shared);
                    heap = inner.deadlines.heap.lock().expect("deadline heap poisoned");
                }
            }
            Some(due) => {
                let (guard, _timeout) = inner
                    .deadlines
                    .wake
                    .wait_timeout(heap, due - now)
                    .expect("deadline heap poisoned");
                heap = guard;
            }
        }
    }
}

/// Fire one expired deadline: mark it fired and raise the job's cancel
/// token. A job still queued ends here as `Failed { DeadlineExceeded }`; a
/// running one stops at its next checkpoint and its worker's transition
/// turns the cancellation into the same failure; a finished job is
/// untouched.
fn fire_deadline(shared: &JobShared) {
    shared.deadline_fired.store(true, Ordering::SeqCst);
    shared.cancel.cancel();
    shared.finish(Err(JobFailure::Cancelled), Vec::new(), false);
}

/// Worker body: pop the highest-priority job, run it through the pool core
/// with the handle's cancel token and event callbacks wired in, end it.
/// Exits once shutdown is flagged *and* the queue is drained.
fn worker_loop(inner: &Inner) {
    loop {
        let next = {
            let mut queue = inner.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = queue.pop() {
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = inner.queue_ready.wait(queue).expect("job queue poisoned");
            }
        };
        match next {
            Some(queued) => run_one(inner, queued),
            None => return,
        }
    }
}

fn run_one(inner: &Inner, queued: QueuedJob) {
    let QueuedJob { job, shared, .. } = queued;
    // A job that ended in the queue already counted and stored itself.
    if !shared.claim() {
        return;
    }
    let control = {
        let (planning, plan_ready, executing) = (
            Arc::clone(&shared),
            Arc::clone(&shared),
            Arc::clone(&shared),
        );
        JobControl {
            cancel: shared.cancel.clone(),
            on_planning: Some(Arc::new(move || {
                planning.set_status(JobStatus::Planning);
                planning.emit(JobEvent::Planning);
            })),
            on_plan_ready: Some(Arc::new(move |cache_hit| {
                plan_ready.set_status(JobStatus::PlanReady);
                plan_ready.emit(JobEvent::PlanReady { cache_hit });
            })),
            on_executing: Some(Arc::new(move |gates_done, gates_total| {
                executing.set_status(JobStatus::Executing {
                    gates_done,
                    gates_total,
                });
                executing.emit(JobEvent::Executing {
                    gates_done,
                    gates_total,
                });
            })),
        }
    };

    // A panicking engine must kill the job, not the worker thread.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        inner
            .runner
            .execute_job(shared.id as usize, job, &inner.residency, &control)
    }));
    let outcome = match outcome {
        Ok(Ok(result)) => {
            inner.metrics.observe_job(&result);
            Ok(result)
        }
        Ok(Err(JobError::Cancelled)) => Err(JobFailure::Cancelled),
        Ok(Err(error)) => Err(JobFailure::Failed(error.to_string())),
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "engine panicked".to_string());
            Err(JobFailure::Failed(message))
        }
    };
    // With `trace_artifacts` on, the recorder's spans go into this job's
    // artifact.
    let spans = if inner.trace_artifacts && hisvsim_obs::enabled() {
        hisvsim_obs::drain()
    } else {
        Vec::new()
    };
    shared.finish(outcome, spans, true);
}
