//! Where the default route puts a circuit past the selector's cache budget:
//! one part at limit `n`, planned once and swept in place, each pass of
//! several ops a walk over 2^16-amplitude tiles — strided where its ops
//! reach above the tile's chunks. Checked at CI widths with a 17-qubit
//! budget, so that an 18-qubit state is past it and above one tile:
//!
//! * `qft(18)`: limit 18, one part of 2 passes, one of them strided;
//! * `random_circuit(18, 400, 1)`: limit 18, one part of 8 passes;
//! * a job forcing limit 17 keeps that plan, three parts, each in place;
//! * a job forcing the engine is partitioned at the cache limit;
//! * a repeat, in the same process or after a snapshot, plans nothing, and
//!   takes one lookup, keyed at its limit.
//!
//! One test function: it reads the process-wide strided-pass tally and the
//! span recorder.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_runtime::{
    EngineKind, EngineSelector, JobControl, JobResult, JobRunner, PlanKey, PlanSource,
    SchedulerConfig, Semaphore, SimJob,
};
use hisvsim_statevec::fusion;

fn scaled_runner() -> JobRunner {
    JobRunner::new(SchedulerConfig::default().with_selector(EngineSelector::scaled(17, 30)))
}

/// Run `job` and return its result, the strided passes it ran and the
/// details of its `part` spans.
fn run(runner: &JobRunner, job: SimJob) -> (JobResult, u64, Vec<String>) {
    let residency = Semaphore::new(1);
    let _ = hisvsim_obs::drain();
    let before = fusion::strided_passes();
    let result = runner
        .execute_job(0, job, &residency, &JobControl::new())
        .expect("the job runs");
    let parts = hisvsim_obs::drain()
        .into_iter()
        .filter(|span| span.cat == "kernel" && span.name == "part")
        .map(|span| span.detail)
        .collect();
    (result, fusion::strided_passes() - before, parts)
}

/// The key the plan that ran is cached under.
fn key(circuit: &Circuit, limit: usize) -> PlanKey {
    PlanKey {
        fingerprint: circuit.without_swaps().fingerprint(),
        limit,
    }
}

#[test]
fn the_default_route_plans_one_part_past_the_cache_budget() {
    hisvsim_obs::set_enabled(true);
    let runner = scaled_runner();
    let qft = generators::qft(18);

    let (cold, strided, parts) = run(&runner, SimJob::new(qft.clone()));
    assert_eq!(cold.engine, EngineKind::Hier);
    assert_eq!((cold.decision.limit, cold.report.num_parts), (18, 1));
    assert!(strided > 0, "qft(18) strides no tile");
    assert!(
        cold.decision
            .reason
            .contains("exceed the 17-qubit LLC budget but fit one node"),
        "{}",
        cold.decision.reason
    );
    assert_eq!(parts, ["ws=18 passes=2"]);
    assert!(!cold.plan_cache_hit);
    assert_eq!(runner.cache().stats().misses, 1, "one lookup");

    let random = generators::random_circuit(18, 400, 1);
    let (wide, _, parts) = run(&runner, SimJob::new(random));
    assert_eq!((wide.decision.limit, wide.report.num_parts), (18, 1));
    assert_eq!(parts, ["ws=18 passes=8"]);

    let (forced, _, parts) = run(&runner, SimJob::new(qft.clone()).with_limit(17));
    assert_eq!((forced.decision.limit, forced.report.num_parts), (17, 3));
    assert_eq!(parts, ["ws=17 passes=2", "ws=17 passes=1", "ws=2 passes=1"]);
    let (held, ran) = (cold.state.as_ref(), forced.state.as_ref());
    assert!(ran
        .expect("retained")
        .approx_eq(held.expect("retained"), 1e-12));
    let (engine, _, _) = run(
        &runner,
        SimJob::new(qft.clone()).with_engine(EngineKind::Hier),
    );
    assert_eq!((engine.decision.limit, engine.report.num_parts), (17, 3));

    // A warm repeat plans nothing and runs the plan keyed at limit 18.
    let misses = runner.cache().stats().misses;
    let (warm, _, _) = run(&runner, SimJob::new(qft.clone()));
    assert!(warm.plan_cache_hit);
    assert_eq!(runner.cache().stats().misses, misses, "a warm job plans");
    assert_eq!((warm.decision.limit, warm.report.num_parts), (18, 1));
    assert_eq!(warm.decision.reason, cold.decision.reason);
    assert_eq!(warm.state, cold.state);
    let (served, source) = runner
        .cache()
        .get_or_plan(key(&qft, 18), || panic!("the plan that ran is cached"))
        .expect("a cached plan");
    assert_eq!(source, PlanSource::Memory);
    assert_eq!(served.partition.num_parts(), 1);

    // So does a restart from the snapshot: one lookup, a disk rebuild.
    let path = std::env::temp_dir().join(format!("wide-route-{}.json", std::process::id()));
    runner.cache().save_snapshot(&path).expect("snapshot saved");
    let restarted = scaled_runner();
    restarted
        .cache()
        .load_snapshot(&path)
        .expect("snapshot loaded");
    std::fs::remove_file(&path).ok();
    let (warm, _, _) = run(&restarted, SimJob::new(qft));
    let stats = restarted.cache().stats();
    assert!(warm.plan_cache_hit);
    assert_eq!((stats.misses, stats.warm_hits), (0, 1));
    assert_eq!((warm.decision.limit, warm.report.num_parts), (18, 1));
    assert_eq!(warm.state, cold.state);
    hisvsim_obs::set_enabled(false);
}
