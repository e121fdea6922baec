//! The worker-pool batch scheduler.
//!
//! [`Scheduler::run_batch`] executes a vector of [`SimJob`]s concurrently on
//! OS threads. Three resources are managed:
//!
//! * **Workers** — at most `workers` jobs execute at once (each distributed
//!   engine may additionally spawn its own rank threads; those are bounded
//!   by the engine's rank count).
//! * **Resident state vectors** — a counting semaphore caps the number of
//!   jobs holding live simulation state at `max_resident`, bounding peak
//!   memory at roughly `max_resident × 2^{n_max} × 16` bytes regardless of
//!   batch size or worker count.
//! * **Plans** — every planned job goes through the shared [`PlanCache`]
//!   (at most [`CAPACITY`](crate::cache::CAPACITY) plans), so structurally
//!   identical jobs plan once (with in-flight deduplication).
//!
//! The plan–execute pipeline itself lives in [`crate::pool::JobRunner`] —
//! the scheduler drives it with inert [`JobControl`]s, and the long-lived
//! `hisvsim-service` drives the very same core with real cancellation
//! tokens and progress callbacks. Results are returned in submission order
//! with per-job and per-batch accounting (engine choice, plan time, cache
//! hit rate).

use crate::cache::{CacheStats, PlanCache};
use crate::job::{JobResult, SimJob};
use crate::pool::{JobControl, JobError, JobRunner, ProcessBackend, Semaphore};
use crate::selector::{EngineKind, EngineSelector};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scheduler configuration. Planning is not configured: every job with a
/// plan looks it up in the runner's one [`PlanCache`], which holds
/// [`CAPACITY`](crate::cache::CAPACITY) plans.
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Worker threads executing jobs concurrently.
    pub workers: usize,
    /// Maximum jobs holding live simulation state at once (the memory
    /// bound `K`).
    pub max_resident: usize,
    /// The engine selector (thresholds + network model).
    pub selector: EngineSelector,
    /// Keep each job's final state in its [`JobResult`]. Disable for
    /// fire-and-forget sampling workloads where only counts/expectations
    /// matter, so batch memory stays bounded by `max_resident`.
    pub retain_states: bool,
    /// The multi-process execution backend jobs with
    /// [`Backend::Process`](crate::job::Backend::Process) run on (e.g.
    /// `hisvsim_net::WorkerPool`); `None` rejects such jobs.
    pub process_backend: Option<Arc<dyn ProcessBackend>>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8);
        Self {
            workers,
            max_resident: workers,
            selector: EngineSelector::default(),
            retain_states: true,
            process_backend: None,
        }
    }
}

impl std::fmt::Debug for SchedulerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerConfig")
            .field("workers", &self.workers)
            .field("max_resident", &self.max_resident)
            .field("selector", &self.selector)
            .field("retain_states", &self.retain_states)
            .field(
                "process_backend",
                &self.process_backend.as_ref().map(|b| b.ranks()),
            )
            .finish()
    }
}

impl SchedulerConfig {
    /// Builder: set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: set the resident-state bound `K`.
    pub fn with_max_resident(mut self, k: usize) -> Self {
        self.max_resident = k.max(1);
        self
    }

    /// Builder: set the engine selector.
    pub fn with_selector(mut self, selector: EngineSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Builder: register the multi-process execution backend serving
    /// [`Backend::Process`](crate::job::Backend::Process) jobs.
    pub fn with_process_backend(mut self, backend: Arc<dyn ProcessBackend>) -> Self {
        self.process_backend = Some(backend);
        self
    }
}

/// Per-batch aggregate statistics ([`RunReport`](hisvsim_core::RunReport)-
/// style, one level up).
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Wall-clock seconds for the whole batch.
    pub total_wall_s: f64,
    /// Sum of per-job wall times (> `total_wall_s` ⇒ concurrency paid off).
    pub job_wall_sum_s: f64,
    /// Seconds spent planning across the batch (cache misses only).
    pub plan_time_s: f64,
    /// Plan-cache counters for this batch (delta, not lifetime).
    pub cache: CacheStats,
    /// Jobs per engine, indexed by [`EngineKind::index`] (the
    /// [`EngineKind::ALL`] order).
    pub engine_counts: [usize; 4],
    /// Total measurement shots sampled.
    pub shots: usize,
}

impl BatchStats {
    /// Cache hit rate within this batch.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} jobs in {:.3} s (sum of job times {:.3} s)",
            self.jobs, self.total_wall_s, self.job_wall_sum_s
        )?;
        write!(f, "engines:")?;
        for (kind, count) in EngineKind::ALL.iter().zip(self.engine_counts) {
            if count > 0 {
                write!(f, " {kind}={count}")?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "plan cache: {} hits / {} misses ({:.0}% hit rate), {:.3} s planning",
            self.cache.hits + self.cache.warm_hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.plan_time_s
        )
    }
}

/// A batch's results (submission order) plus aggregate statistics.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, indexed like the submitted vector.
    pub results: Vec<JobResult>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

/// The concurrent batch scheduler. Cheap to share behind an `Arc`; the plan
/// cache persists across batches, so a long-lived scheduler keeps getting
/// faster on recurring circuit structures.
pub struct Scheduler {
    runner: JobRunner,
}

impl Scheduler {
    /// Create a scheduler (allocates the persistent plan cache).
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            runner: JobRunner::new(config),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        self.runner.config()
    }

    /// The persistent plan cache (for inspection; stats survive batches).
    pub fn cache(&self) -> &PlanCache {
        self.runner.cache()
    }

    /// The underlying job-execution core (shared with the service layer).
    pub fn runner(&self) -> &JobRunner {
        &self.runner
    }

    /// Execute every job and return results in submission order.
    ///
    /// # Panics
    ///
    /// Panics if a job's *explicit* limit override is below its circuit's
    /// largest gate arity (automatic limits always respect the arity
    /// floor), if a worker thread panics, or if a
    /// [`Backend::Process`](crate::job::Backend::Process) job fails in the
    /// launcher/worker pipeline — batch mode has no per-job error surface;
    /// use `hisvsim-service` for workloads that must survive individual
    /// job failures (it converts the same errors to `JobFailure::Failed`).
    pub fn run_batch(&self, jobs: Vec<SimJob>) -> BatchReport {
        let start = Instant::now();
        let cache_before = self.cache().stats();
        let num_jobs = jobs.len();

        let queue: Mutex<VecDeque<(usize, SimJob)>> =
            Mutex::new(jobs.into_iter().enumerate().collect());
        let results: Mutex<Vec<Option<JobResult>>> =
            Mutex::new((0..num_jobs).map(|_| None).collect());
        let residency = Semaphore::new(self.config().max_resident.max(1));
        let control = JobControl::new();

        let worker_count = self.config().workers.clamp(1, num_jobs.max(1));
        std::thread::scope(|scope| {
            for _ in 0..worker_count {
                scope.spawn(|| loop {
                    let Some((index, job)) = queue.lock().expect("job queue poisoned").pop_front()
                    else {
                        return;
                    };
                    let result = match self.runner.execute_job(index, job, &residency, &control) {
                        Ok(result) => result,
                        Err(e @ (JobError::PlanFailed { .. } | JobError::Backend { .. })) => {
                            panic!("{e}")
                        }
                        Err(JobError::Cancelled) => {
                            unreachable!("run_batch uses an inert control")
                        }
                    };
                    results.lock().expect("result board poisoned")[index] = Some(result);
                });
            }
        });

        let results: Vec<JobResult> = results
            .into_inner()
            .expect("result board poisoned")
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no result")))
            .collect();

        let mut engine_counts = [0usize; 4];
        for r in &results {
            engine_counts[r.engine.index()] += 1;
        }
        let stats = BatchStats {
            jobs: num_jobs,
            total_wall_s: start.elapsed().as_secs_f64(),
            job_wall_sum_s: results.iter().map(|r| r.wall_time_s).sum(),
            plan_time_s: results.iter().map(|r| r.plan_time_s).sum(),
            cache: self.cache().stats().since(&cache_before),
            engine_counts,
            shots: results
                .iter()
                .map(|r| r.counts.values().sum::<usize>())
                .sum(),
        };
        BatchReport { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::EngineSelector;
    use hisvsim_circuit::generators;
    use hisvsim_statevec::run_circuit;

    fn scaled_config() -> SchedulerConfig {
        SchedulerConfig::default()
            .with_workers(4)
            .with_selector(EngineSelector::scaled(4, 8))
    }

    #[test]
    fn every_engine_choice_matches_the_flat_reference() {
        let scheduler = Scheduler::new(scaled_config());
        // Widths walking the selector ladder: hier over the whole circuit
        // (one part) within the cache budget and past it, multilevel past
        // the node; and hier forced, at the cache limit.
        let mut jobs: Vec<SimJob> = [4usize, 6, 9]
            .iter()
            .map(|&n| SimJob::new(generators::qft(n)))
            .collect();
        jobs.push(SimJob::new(generators::qft(6)).with_engine(EngineKind::Hier));
        let expected: Vec<_> = jobs.iter().map(|j| run_circuit(&j.circuit)).collect();
        let batch = scheduler.run_batch(jobs);
        let engines: Vec<EngineKind> = batch.results.iter().map(|r| r.engine).collect();
        assert_eq!(
            engines,
            vec![
                EngineKind::Hier,
                EngineKind::Hier,
                EngineKind::Multilevel,
                EngineKind::Hier
            ]
        );
        let parts: Vec<usize> = batch.results.iter().map(|r| r.report.num_parts).collect();
        assert_eq!(parts[0], 1, "a circuit within the cache budget is one part");
        assert_eq!(parts[1], 1, "so is one within the node budget");
        assert!(parts[3] > 1, "a forced hier job is partitioned");
        for (result, expected) in batch.results.iter().zip(&expected) {
            assert!(
                result.state.as_ref().unwrap().approx_eq(expected, 1e-9),
                "job {} ({}) diverged",
                result.job_index,
                result.engine
            );
        }
    }

    #[test]
    fn forced_engines_are_used_and_still_correct() {
        let scheduler = Scheduler::new(scaled_config());
        let circuit = generators::by_name("ising", 8);
        let expected = run_circuit(&circuit);
        let jobs: Vec<SimJob> = EngineKind::ALL
            .iter()
            .map(|&engine| SimJob::new(circuit.clone()).with_engine(engine))
            .collect();
        let batch = scheduler.run_batch(jobs);
        for (result, &wanted) in batch.results.iter().zip(EngineKind::ALL.iter()) {
            assert_eq!(result.engine, wanted);
            assert!(result.state.as_ref().unwrap().approx_eq(&expected, 1e-9));
        }
        // Engine histogram: one job each.
        assert_eq!(batch.stats.engine_counts, [1, 1, 1, 1]);
    }

    #[test]
    fn results_return_in_submission_order_under_concurrency() {
        let scheduler = Scheduler::new(scaled_config().with_workers(8));
        let jobs: Vec<SimJob> = (0..12)
            .map(|i| SimJob::new(generators::random_circuit(6, 30 + i, i as u64)))
            .collect();
        let batch = scheduler.run_batch(jobs);
        for (i, result) in batch.results.iter().enumerate() {
            assert_eq!(result.job_index, i);
        }
        assert_eq!(batch.stats.jobs, 12);
    }

    #[test]
    fn tight_residency_bound_completes_without_deadlock() {
        let scheduler = Scheduler::new(scaled_config().with_workers(6).with_max_resident(1));
        let jobs: Vec<SimJob> = (0..8)
            .map(|i| SimJob::new(generators::random_circuit(6, 40, i)))
            .collect();
        let expected: Vec<_> = jobs.iter().map(|j| run_circuit(&j.circuit)).collect();
        let batch = scheduler.run_batch(jobs);
        for (result, expected) in batch.results.iter().zip(&expected) {
            assert!(result.state.as_ref().unwrap().approx_eq(expected, 1e-9));
        }
    }

    #[test]
    fn repeated_structures_hit_the_cache_and_agree_exactly() {
        let scheduler = Scheduler::new(scaled_config());
        // Two submissions of the same structure under different names, plus
        // one structurally different job in between.
        let mut first = generators::qft(7);
        first.name = "tenant-a".into();
        let mut second = generators::qft(7);
        second.name = "tenant-b".into();
        let other = generators::by_name("bv", 7);

        let batch = scheduler.run_batch(vec![
            SimJob::new(first),
            SimJob::new(other),
            SimJob::new(second),
        ]);
        let hits: Vec<bool> = batch.results.iter().map(|r| r.plan_cache_hit).collect();
        assert_eq!(
            hits.iter().filter(|&&h| h).count(),
            1,
            "exactly the repeat hits"
        );
        assert!(batch.results[2].plan_cache_hit || batch.results[0].plan_cache_hit);

        // Identical plans ⇒ identical execution ⇒ identical amplitudes
        // (same engine, same partition, same gate order: bitwise equal).
        let a = batch.results[0].state.as_ref().unwrap();
        let b = batch.results[2].state.as_ref().unwrap();
        assert_eq!(a, b, "cached plan changed the result");
        assert!(batch.stats.cache_hit_rate() > 0.0);
    }

    #[test]
    fn shots_and_observables_are_deterministic_per_seed() {
        let mut config = scaled_config();
        config.retain_states = false;
        let scheduler = Scheduler::new(config);
        let make_jobs = || {
            vec![SimJob::new(generators::cat_state(6))
                .with_shots(2000)
                .with_observables(vec![0, 5])
                .with_seed(7)]
        };
        let a = scheduler.run_batch(make_jobs());
        let b = scheduler.run_batch(make_jobs());
        assert!(
            a.results[0].state.is_none(),
            "retain_states=false must drop states"
        );
        assert_eq!(a.results[0].counts, b.results[0].counts);
        // GHZ: only |00…0⟩ and |11…1⟩ appear; ⟨Z⟩ = 0 on every qubit.
        let total: usize = a.results[0].counts.values().sum();
        assert_eq!(total, 2000);
        for &outcome in a.results[0].counts.keys() {
            assert!(outcome == 0 || outcome == 0b111111);
        }
        for &(_, z) in &a.results[0].z_expectations {
            assert!(z.abs() < 0.1, "GHZ marginals are maximally mixed, got {z}");
        }
    }

    #[test]
    fn explicit_limit_above_local_width_is_clamped_not_fatal() {
        // Regression: a Dist/Multilevel job whose explicit limit exceeds the
        // per-rank local qubit count must be clamped (as the engine's own
        // `run` clamps), not panic inside a worker thread.
        let scheduler = Scheduler::new(scaled_config());
        let circuit = generators::qft(9);
        let expected = run_circuit(&circuit);
        let batch = scheduler.run_batch(vec![
            SimJob::new(circuit.clone())
                .with_engine(EngineKind::Dist)
                .with_limit(9),
            SimJob::new(circuit.clone())
                .with_engine(EngineKind::Multilevel)
                .with_limit(9),
        ]);
        for result in &batch.results {
            assert!(result.state.as_ref().unwrap().approx_eq(&expected, 1e-9));
        }
    }

    #[test]
    fn batch_stats_report_cache_and_planning() {
        let scheduler = Scheduler::new(scaled_config());
        let jobs: Vec<SimJob> = (0..6).map(|_| SimJob::new(generators::qft(7))).collect();
        let batch = scheduler.run_batch(jobs);
        assert_eq!(
            batch.stats.cache.misses, 1,
            "one structure ⇒ one planning miss"
        );
        assert_eq!(batch.stats.cache.hits, 5);
        assert!((batch.stats.cache_hit_rate() - 5.0 / 6.0).abs() < 1e-12);
        let rendered = format!("{}", batch.stats);
        assert!(rendered.contains("hit rate"));
    }
}
