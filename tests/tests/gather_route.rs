//! Where the default route keeps a hierarchy: a circuit past the selector's
//! cache budget is planned at the budget, and keeps that plan only if
//! gathering shortens one of its parts (`PartPasses::gather_shortens`, an
//! exact count over the fused plan). Otherwise it runs at limit `n`, one part
//! swept in place. Checked at CI widths with a 17-qubit budget, so that an
//! 18-qubit state is past it and above one tile:
//!
//! * `qft(18)`: three parts at limit 17, none shortened (part 1 makes 4 passes
//!   in place against 2 + 4 gathered) → limit 18, one part, no gather;
//! * `random_circuit(18, 400, 1)`: four parts at limit 17, every one
//!   gathered; its 16-qubit part's inner vector fits one tile, so it counts
//!   0 + 4 gathered passes against 5 in place;
//! * a job forcing limit 17 keeps the selector's plan whatever it counts;
//! * a repeat, in the same process or after a snapshot, plans nothing, and
//!   the plan that runs is the one keyed at its limit.
//!
//! One test function: it reads the process-wide gathered-part tally and the
//! span recorder.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::{parts_executed, PartMode};
use hisvsim_runtime::{
    EngineKind, EngineSelector, JobControl, JobResult, JobRunner, PlanKey, SchedulerConfig,
    Semaphore, SimJob,
};

fn scaled_runner() -> JobRunner {
    JobRunner::new(SchedulerConfig::default().with_selector(EngineSelector::scaled(17, 30)))
}

/// Run `job` and return its result, the gathered parts it ran and the
/// details of its `part` spans.
fn run(runner: &JobRunner, job: SimJob) -> (JobResult, u64, Vec<String>) {
    let residency = Semaphore::new(1);
    let _ = hisvsim_obs::drain();
    let before = parts_executed(PartMode::Gather);
    let result = runner
        .execute_job(0, job, &residency, &JobControl::new())
        .expect("the job runs");
    let parts = hisvsim_obs::drain()
        .into_iter()
        .filter(|span| span.cat == "kernel" && span.name == "part")
        .map(|span| span.detail)
        .collect();
    (result, parts_executed(PartMode::Gather) - before, parts)
}

/// The key the plan that ran is cached under.
fn key(circuit: &Circuit, limit: usize) -> PlanKey {
    PlanKey {
        fingerprint: circuit.relabel_swaps().0.fingerprint(),
        limit,
        second_limit: 0,
    }
}

#[test]
fn the_default_route_keeps_a_hierarchy_only_where_gathering_shortens_a_part() {
    hisvsim_obs::set_enabled(true);
    let runner = scaled_runner();
    let qft = generators::qft(18);

    let (cold, gathered, parts) = run(&runner, SimJob::new(qft.clone()));
    assert_eq!(cold.engine, EngineKind::Hier);
    assert_eq!((cold.decision.limit, cold.report.num_parts), (18, 1));
    assert_eq!(gathered, 0, "qft(18) gathers nothing");
    assert!(
        cold.decision
            .reason
            .contains("closest, part 1 of 3: 4 passes in place against 2 + 4 gathered"),
        "{}",
        cold.decision.reason
    );
    assert_eq!(parts.len(), 1);
    assert!(parts[0].starts_with("mode=in_place ws=18 "), "{parts:?}");
    assert!(!cold.plan_cache_hit);

    let random = generators::random_circuit(18, 400, 1);
    let (kept, gathered, parts) = run(&runner, SimJob::new(random));
    assert_eq!((kept.decision.limit, kept.report.num_parts), (17, 4));
    assert_eq!(gathered, 4, "every part of the kept plan gathers");
    assert!(
        kept.decision
            .reason
            .contains("gathering shortens part 4 of 4"),
        "{}",
        kept.decision.reason
    );
    assert!(
        parts.contains(&"mode=gather ws=16 passes=5 gathered=0".to_string()),
        "{parts:?}"
    );

    let (forced, _, _) = run(&runner, SimJob::new(qft.clone()).with_limit(17));
    assert_eq!((forced.decision.limit, forced.report.num_parts), (17, 3));

    // A warm repeat plans nothing and runs the plan keyed at limit 18.
    let misses = runner.cache().stats().misses;
    let (warm, gathered, _) = run(&runner, SimJob::new(qft.clone()));
    assert!(warm.plan_cache_hit);
    assert_eq!(runner.cache().stats().misses, misses, "a warm job plans");
    assert_eq!(
        (warm.decision.limit, warm.report.num_parts, gathered),
        (18, 1, 0)
    );
    assert_eq!(warm.decision.reason, cold.decision.reason);
    assert_eq!(warm.state, cold.state);
    let (served, hit) = runner
        .cache()
        .get_or_plan(key(&qft, 18), || panic!("the plan that ran is cached"))
        .expect("a cached plan");
    assert!(hit);
    assert_eq!(served.num_parts(), 1);

    // So does a restart from the snapshot: both lookups are disk rebuilds.
    let path = std::env::temp_dir().join(format!("gather-route-{}.json", std::process::id()));
    runner.cache().save_snapshot(&path).expect("snapshot saved");
    let restarted = scaled_runner();
    restarted
        .cache()
        .load_snapshot(&path)
        .expect("snapshot loaded");
    std::fs::remove_file(&path).ok();
    let (warm, gathered, _) = run(&restarted, SimJob::new(qft));
    let stats = restarted.cache().stats();
    assert!(warm.plan_cache_hit);
    assert_eq!((stats.misses, stats.warm_hits), (0, 2));
    assert_eq!(
        (warm.decision.limit, warm.report.num_parts, gathered),
        (18, 1, 0)
    );
    assert_eq!(warm.state, cold.state);
    hisvsim_obs::set_enabled(false);
}
