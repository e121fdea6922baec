//! A traced process-backed job's profile artifact carries the remote ranks'
//! measurements: the workers ship their spans back in `RankReport.spans`,
//! the pool re-records them, and the service builds the job's `CostProfile`
//! from what it drains. Alone in its test binary because the span recorder
//! is process-global.

use hisvsim_circuit::generators;
use hisvsim_net::WorkerPool;
use hisvsim_runtime::{Backend, EngineKind, EngineSelector, SchedulerConfig, SimJob};
use hisvsim_service::{ServiceConfig, SimService};
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn traced_process_job_profile_has_remote_kernel_and_collective_cells() {
    let pool = WorkerPool::with_worker_binary(2, PathBuf::from(env!("CARGO_BIN_EXE_hisvsim-net")));
    hisvsim_obs::set_enabled(true);
    let service = SimService::start(
        ServiceConfig::new()
            .with_scheduler(
                SchedulerConfig::default()
                    .with_selector(EngineSelector::scaled(4, 8))
                    .with_process_backend(Arc::new(pool)),
            )
            .with_trace_artifacts(true),
    );
    let handle = service.submit(
        SimJob::new(generators::qft(12))
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process),
    );
    let id = handle.id();
    handle.wait().expect("job must complete");
    hisvsim_obs::set_enabled(false);

    let artifacts = service.job_artifacts(id).expect("artifacts are retained");
    // The launcher sweeps nothing and joins no collective: every kernel and
    // alltoallv span of this job was recorded on a worker (pid = rank + 1).
    for (cat, prefix) in [("kernel", "sweep:"), ("comm", "alltoallv")] {
        let lanes: Vec<u32> = artifacts
            .spans
            .iter()
            .filter(|s| s.cat == cat && s.name.starts_with(prefix))
            .map(|s| s.pid)
            .collect();
        assert!(
            !lanes.is_empty() && lanes.iter().all(|&pid| pid >= 1),
            "{cat}/{prefix} spans must come from the worker ranks, got lanes {lanes:?}"
        );
    }
    let profile = artifacts
        .profile_delta
        .expect("a completed job has a profile");
    assert!(!profile.kernels.is_empty(), "no kernel cells: {profile:?}");
    assert!(
        profile
            .collectives
            .iter()
            .any(|c| c.collective == "alltoallv" && c.bytes > 0),
        "no alltoallv cell: {profile:?}"
    );
    let phases: Vec<&str> = profile.phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(phases, ["execute", "plan", "postprocess"]);
    service.shutdown().unwrap();
}
