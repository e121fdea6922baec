//! A cold plan names its phases in the trace: building the job's DAG
//! (`plan/dag`), partitioning it (`plan/partition`) and fusing every part
//! (`plan/fuse`), in that order, each inside the job's `job/plan` span on
//! the runner's thread. A plan served from memory records none of them; one
//! re-fused from a disk snapshot records the DAG and the fusion only.
//! Alone in its test binary, and one test function, because the span
//! recorder is process-global.

use hisvsim_circuit::generators;
use hisvsim_obs::SpanRecord;
use hisvsim_runtime::{EngineKind, JobControl, JobRunner, SchedulerConfig, Semaphore, SimJob};

/// Run `job` with the recorder on and hand back its spans.
fn traced(runner: &JobRunner, index: usize, job: SimJob) -> Vec<SpanRecord> {
    let _ = hisvsim_obs::drain();
    let residency = Semaphore::new(1);
    let outcome = runner.execute_job(index, job, &residency, &JobControl::new());
    assert!(outcome.is_ok(), "{outcome:?}");
    hisvsim_obs::drain()
}

fn phases(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    spans.iter().filter(|span| span.cat == "plan").collect()
}

#[test]
fn a_cold_plan_records_its_phases_inside_job_plan_and_a_memory_hit_none() {
    let runner = JobRunner::new(SchedulerConfig::default());
    // A `plan_cold` job in miniature: a random circuit forced hier below
    // its width, so dagP splits it into several parts.
    let job = SimJob::new(generators::random_circuit(11, 400, 7))
        .with_engine(EngineKind::Hier)
        .with_limit(8);

    hisvsim_obs::set_enabled(true);
    let cold = traced(&runner, 0, job.clone());
    let hit = traced(&runner, 1, job.clone());
    let dir = std::env::temp_dir().join(format!("hisvsim-plan-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let snapshot = dir.join("plans.json");
    runner
        .cache()
        .save_snapshot(&snapshot)
        .expect("the snapshot saves");
    let restarted = JobRunner::new(SchedulerConfig::default());
    assert_eq!(restarted.cache().load_snapshot(&snapshot).ok(), Some(1));
    let warm = traced(&restarted, 2, job);
    hisvsim_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    let plan = (cold.iter())
        .find(|span| span.cat == "job" && span.name == "plan")
        .expect("the job records job/plan");
    let phases_cold = phases(&cold);
    let names: Vec<&str> = phases_cold.iter().map(|span| span.name.as_str()).collect();
    assert_eq!(names, ["dag", "partition", "fuse"]);
    for phase in &phases_cold {
        assert_eq!(
            phase.tid, plan.tid,
            "{} runs on the runner's thread",
            phase.name
        );
        assert!(
            plan.ts_us <= phase.ts_us && phase.ts_us + phase.dur_us <= plan.ts_us + plan.dur_us,
            "plan/{} lies outside job/plan",
            phase.name
        );
    }
    for pair in phases_cold.windows(2) {
        assert!(
            pair[0].ts_us + pair[0].dur_us <= pair[1].ts_us,
            "phases overlap"
        );
    }

    assert!(hit
        .iter()
        .any(|span| span.cat == "job" && span.name == "plan"));
    assert!(
        phases(&hit).is_empty(),
        "a memory hit planned: {:?}",
        phases(&hit)
    );

    let phases_warm = phases(&warm);
    let names: Vec<&str> = phases_warm.iter().map(|span| span.name.as_str()).collect();
    assert_eq!(names, ["dag", "fuse"], "a warm start re-fuses without dagP");
}
