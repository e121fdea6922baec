//! What a small job costs once the service is warm: the selector routes a
//! circuit within the cache budget to a one-part plan, so from its second
//! submission on the job is a cache hit and one in-place part on the thread
//! that called the runner — no fusion, no rank thread. One test function,
//! because it reads the process-wide part tally.

use hisvsim_circuit::generators;
use hisvsim_core::hier::parts_executed;
use hisvsim_runtime::{EngineKind, JobControl, JobRunner, SchedulerConfig, Semaphore, SimJob};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

#[test]
fn a_warm_small_job_is_a_cache_hit_and_one_in_place_part_on_the_callers_thread() {
    let runner = JobRunner::new(SchedulerConfig::default());
    let residency = Semaphore::new(1);
    let job = || SimJob::new(generators::by_name("qnn", 13)).with_shots(64);

    let progress_threads: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let sink = Arc::clone(&progress_threads);
    let watched = JobControl {
        on_executing: Some(Arc::new(move |_done, _total| {
            sink.lock()
                .expect("no panic under the lock")
                .push(thread::current().id());
        })),
        ..JobControl::new()
    };

    let run = |control: &JobControl| {
        runner
            .execute_job(0, job(), &residency, control)
            .expect("the job runs")
    };
    let cold = run(&JobControl::new());
    let second = run(&JobControl::new());
    let before = parts_executed();
    let warm = run(&watched);
    let after = parts_executed();

    for result in [&cold, &second, &warm] {
        assert_eq!(result.engine, EngineKind::Hier);
        assert_eq!((result.decision.limit, result.decision.ranks), (13, 1));
        assert_eq!(result.report.num_parts, 1);
        assert_eq!(result.counts.values().sum::<usize>(), 64);
    }
    assert_eq!(
        [
            cold.plan_cache_hit,
            second.plan_cache_hit,
            warm.plan_cache_hit
        ],
        [false, true, true],
        "a repeated small job plans once and hits ever after"
    );
    let cache = runner.cache().stats();
    assert_eq!((cache.misses, cache.entries), (1, 1));
    assert_eq!(cold.state, warm.state);

    assert_eq!(after - before, 1, "the warm run is one part");
    let seen = progress_threads.lock().expect("no panic under the lock");
    assert!(seen.len() >= 2, "execution start and the completed part");
    assert!(
        seen.iter().all(|&id| id == thread::current().id()),
        "progress fired off the thread that called execute_job"
    );
}
