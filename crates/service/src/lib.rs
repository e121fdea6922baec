//! # hisvsim-service
//!
//! The asynchronous job service over the HiSVSIM batch runtime — the
//! "general interface for other simulators to use as a library" the paper
//! sketches (Sec. III-D), grown into a long-lived serving layer:
//!
//! * **Non-blocking submission** — [`SimService::submit`] enqueues a
//!   [`SimJob`](hisvsim_runtime::SimJob) on a mixed-priority queue and
//!   returns a [`JobHandle`] immediately.
//! * **Polling and waiting** — [`JobHandle::poll`] snapshots the lifecycle
//!   (`Queued → Planning → PlanReady → Executing → Done/Cancelled/Failed`);
//!   [`JobHandle::wait`] blocks for the
//!   [`JobResult`](hisvsim_runtime::JobResult).
//! * **Progress streaming** — [`JobHandle::progress`] is a channel of
//!   [`JobEvent`]s, including `Executing { gates_done, gates_total }`
//!   updates emitted by the engines between fused parts.
//! * **Cooperative cancellation** — [`JobHandle::cancel`] stops a running
//!   job at its next checkpoint (between the passes of a part / part
//!   switches), releasing its resident-state-vector
//!   slot; cancelling a queued job removes it without running, and
//!   cancelling a finished job is a no-op.
//! * **Retained job artifacts** — every terminal job folds its decision
//!   audit, per-phase timeline, optionally-drained recorder spans and
//!   measured [`CostProfile`](hisvsim_obs::CostProfile) delta into a
//!   bounded LRU, servable after completion via
//!   [`SimService::job_status`], [`SimService::job_trace_json`] and
//!   [`SimService::job_profile_json`] (the `hisvsim-http` front door's
//!   `/jobs/<id>` endpoints).
//! * **Disk-backed warm start** — with
//!   [`ServiceConfig::with_persistence`], cached partitions are snapshotted
//!   at shutdown (keyed by
//!   [`Circuit::fingerprint`](hisvsim_circuit::Circuit::fingerprint)) and
//!   re-fused on first use after a restart, so a repeated workload replans
//!   nothing.
//!
//! The execution pipeline is the runtime's worker-pool core
//! ([`hisvsim_runtime::pool::JobRunner`]) — the very same code path as
//! [`Scheduler::run_batch`](hisvsim_runtime::Scheduler::run_batch), so
//! results are bit-identical to batch mode.
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::generators;
//! use hisvsim_runtime::{EngineSelector, SchedulerConfig, SimJob};
//! use hisvsim_service::prelude::*;
//!
//! let service = SimService::start(ServiceConfig::new().with_scheduler(
//!     SchedulerConfig::default().with_selector(EngineSelector::scaled(4, 8)),
//! ));
//! // Non-blocking submissions at mixed priorities.
//! let background = service.submit_with_priority(
//!     SimJob::new(generators::qft(7)),
//!     JobPriority::Low,
//! );
//! let urgent = service.submit_with_priority(
//!     SimJob::new(generators::cat_state(6)).with_shots(64),
//!     JobPriority::High,
//! );
//! // Follow the urgent job's lifecycle on its event stream.
//! let events = urgent.progress();
//! let result = urgent.wait().expect("job succeeded");
//! assert_eq!(result.counts.values().sum::<usize>(), 64);
//! assert_eq!(events.recv(), Ok(JobEvent::Queued));
//! // Cancel-after-complete is a no-op.
//! urgent.cancel();
//! assert_eq!(urgent.poll(), JobStatus::Done);
//! background.wait().expect("background job succeeded");
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod handle;
pub mod service;

pub use artifacts::{JobArtifacts, JobStatusReport, DEFAULT_ARTIFACT_CAPACITY};
pub use handle::{JobEvent, JobFailure, JobHandle, JobPriority, JobStatus};
pub use service::{ServiceConfig, ServiceStats, SimService, DEADLINE_EXCEEDED};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::artifacts::{JobArtifacts, JobStatusReport};
    pub use crate::handle::{JobEvent, JobFailure, JobHandle, JobPriority, JobStatus};
    pub use crate::service::{ServiceConfig, ServiceStats, SimService};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use hisvsim_circuit::generators;
    use hisvsim_runtime::{EngineSelector, SchedulerConfig, SimJob};

    fn scaled_service(workers: usize) -> SimService {
        SimService::start(
            ServiceConfig::new().with_scheduler(
                SchedulerConfig::default()
                    .with_workers(workers)
                    .with_selector(EngineSelector::scaled(4, 8)),
            ),
        )
    }

    #[test]
    fn submit_wait_returns_the_result_and_the_full_event_history() {
        let service = scaled_service(2);
        let handle = service.submit(SimJob::new(generators::qft(7)).with_shots(32));
        let result = handle.wait().expect("job succeeded");
        assert_eq!(result.counts.values().sum::<usize>(), 32);
        assert_eq!(handle.poll(), JobStatus::Done);

        // The stream buffers from submission: Queued first, Done last,
        // Planning/PlanReady/Executing in between, then disconnect.
        let events: Vec<JobEvent> = handle.progress().try_iter().collect();
        assert_eq!(events.first(), Some(&JobEvent::Queued));
        assert_eq!(events.last(), Some(&JobEvent::Done));
        assert!(events.contains(&JobEvent::Planning));
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::PlanReady { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Executing { .. })));
    }

    #[test]
    fn high_priority_jobs_overtake_queued_normal_ones() {
        use hisvsim_runtime::EngineKind;
        // One worker, pinned busy: submit a blocker and hold it by waiting
        // for its Executing event, then queue Normal before High. The
        // single worker serialises execution, so if High truly overtakes,
        // it must be *finished* by the time Normal starts planning.
        let service = scaled_service(1);
        // Wide enough to still be running when the cancel lands, with the
        // kernels optimised even in the debug profile.
        let blocker = service.submit(
            SimJob::new(generators::qft(20))
                .with_engine(EngineKind::Hier)
                .with_limit(5),
        );
        let blocker_events = blocker.progress();
        loop {
            match blocker_events.recv().expect("blocker must start") {
                JobEvent::Executing { .. } => break,
                _ => continue,
            }
        }
        let normal = service.submit(SimJob::new(generators::qft(6)));
        let high = service.submit_with_priority(SimJob::new(generators::qft(6)), JobPriority::High);
        blocker.cancel();
        let _ = blocker.wait();

        let normal_events = normal.progress();
        loop {
            match normal_events.recv().expect("normal must eventually run") {
                JobEvent::Planning => break,
                JobEvent::Queued => continue,
                other => panic!("unexpected event before Planning: {other:?}"),
            }
        }
        assert!(
            high.is_finished(),
            "High was queued after Normal but must complete before Normal starts"
        );
        high.wait().unwrap();
        normal.wait().unwrap();
        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn failed_planning_surfaces_as_a_failed_job_not_a_dead_worker() {
        use hisvsim_runtime::EngineKind;
        let service = scaled_service(1);
        // Toffoli arity 3 at an explicit limit of 2: planning fails.
        let bad = service.submit(
            SimJob::new(generators::adder(8))
                .with_engine(EngineKind::Hier)
                .with_limit(2),
        );
        match bad.wait() {
            Err(JobFailure::Failed(message)) => {
                assert!(message.contains("planning failed"), "got: {message}")
            }
            other => panic!("expected a planning failure, got {other:?}"),
        }
        assert_eq!(bad.poll(), JobStatus::Failed);
        // The worker survived: the next job runs normally.
        let ok = service.submit(SimJob::new(generators::qft(6)));
        ok.wait().expect("worker must survive a failed job");
        assert_eq!(service.stats().failed, 1);
    }
}
