//! The traced run: every per-layer metric of one workload, each derived from
//! the benchmark's own spans around calls into that layer (`layers.rs`), on
//! the workload's probe circuit and job templates. The program's recorder
//! stays off except for the `obs.*` rows.

use crate::host;
use crate::layers::{self, Collectives, JobOutcome};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{self, within_tolerance, Env, Kind, Sizes};
use hisvsim_circuit::generators;
use hisvsim_runtime::{Backend, EngineKind, SimJob};
use hisvsim_statevec::StateVector;
use std::time::Instant;

/// Share of `--seconds` one row may spend repeating its call.
const ROW_SHARE: f64 = 1.0 / 40.0;
/// Share of `--seconds` the traced closed-loop drive runs for.
const DRIVE_SHARE: f64 = 0.25;
/// GETs per `http.*` row.
const HTTP_GETS: usize = 200;
/// Armed spans per `obs.span_ns` repetition.
const OBS_SPANS: usize = 100_000;

/// What a traced run produced.
pub struct Traced {
    /// `(metric, value)` for every per-layer metric that could be measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Outputs checked.
    pub attempted: usize,
    /// Outputs that were wrong.
    pub failed: usize,
    /// Sibling binaries that were not found (their rows are missing).
    pub missing_binaries: Vec<&'static str>,
    /// The benchmark's spans.
    pub tracer: Tracer,
    /// The program's own recorder output for one job, Chrome-trace JSON.
    pub program_trace_json: String,
}

struct Run<'a> {
    tracer: &'a Tracer,
    row_s: f64,
    metrics: Vec<(&'static str, f64)>,
    attempted: usize,
    failed: usize,
}

impl Run<'_> {
    /// Call `f(i)` inside `name` spans at least `min` times, then until the
    /// row's time is spent (at most `max` times); returns the median seconds.
    fn repeat(&self, name: &'static str, min: usize, max: usize, mut f: impl FnMut(usize)) -> f64 {
        let clock = Instant::now();
        let mut seconds = Vec::new();
        while seconds.len() < min
            || (seconds.len() < max && clock.elapsed().as_secs_f64() < self.row_s)
        {
            let i = seconds.len();
            seconds.push(self.tracer.seconds_of(name, i, || f(i)));
        }
        median(&seconds)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    fn check_state(&mut self, state: &StateVector, reference: &StateVector) {
        self.check(within_tolerance(state, reference));
    }
}

fn gbps(bytes: f64, seconds: f64) -> f64 {
    bytes / seconds / 1e9
}

/// The engine call behind a job, prepared outside the span that times it.
enum EngineCall {
    Flat,
    Hier(Box<hisvsim_core::FusedSinglePlan>, usize),
    Dist(Box<hisvsim_core::FusedSinglePlan>, usize),
}

fn prepare_engine_call(job: &SimJob) -> EngineCall {
    let engine = layers::selected_engine(job);
    let plan = |engine| {
        let (limit, _) = layers::engine_limits(&job.circuit, engine, job.limit);
        let dag = layers::dag_build(&job.circuit);
        (
            Box::new(layers::runtime_plan(&job.circuit, &dag, limit)),
            limit,
        )
    };
    match engine {
        EngineKind::Baseline => EngineCall::Flat,
        EngineKind::Hier => {
            let (p, limit) = plan(EngineKind::Hier);
            EngineCall::Hier(p, limit)
        }
        EngineKind::Dist | EngineKind::Multilevel => {
            let (p, limit) = plan(EngineKind::Dist);
            EngineCall::Dist(p, limit)
        }
    }
}

/// The runtime and service rows use the thread-world form of every job, so
/// "over the engine" and "over the runner" compare like with like; what the
/// process boundary adds is the `net.*` rows' business.
fn local(job: &SimJob) -> SimJob {
    job.clone().with_backend(Backend::Local)
}

/// Run every per-layer row for `kind`.
pub fn run_traced(kind: Kind, sizes: Sizes, seed: u64, seconds: f64) -> Result<Traced, String> {
    let row_s = seconds * ROW_SHARE;
    let tracer = Tracer::new(kind.name());
    let mut run = Run {
        tracer: &tracer,
        row_s,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut missing_binaries = Vec::new();

    let env = Env::setup(kind, sizes, seed)?;
    let (references, reference_failures) = env.references()?;
    run.attempted += reference_failures;
    run.failed += reference_failures;
    let probe = env.inputs.probe().clone();
    let circuit = &probe.circuit;
    let n = circuit.num_qubits();
    let computed;
    let reference: &StateVector = match references.get(env.inputs.probe_index()) {
        Some(reference) => reference,
        None => {
            computed = layers::reference_state(circuit);
            &computed
        }
    };
    let sweep_bytes = 32.0 * (1u64 << n) as f64;

    // ---- host -----------------------------------------------------------
    let host = host::Host::detect();
    let array_bytes = sizes
        .triad_array_bytes
        .unwrap_or_else(|| host.triad_array_bytes());
    let triad = tracer.time("host.triad", 0, || host::triad(array_bytes, host.cores, 2));
    run.put("host.triad_gbps", triad.gbps);

    // ---- statevec: raw kernels at the workload width ---------------------
    let ops = layers::KernelOperands::new();
    let mut state = layers::zero_state(n);
    layers::statevec_k1(&mut state, 0, &ops); // touch every page before timing
    let sweeps = n.max(3);
    let s = run.repeat("statevec.k1", 3, sweeps, |i| {
        layers::statevec_k1(&mut state, i % n, &ops)
    });
    run.put("statevec.k1_gbps", gbps(sweep_bytes, s));
    let s = run.repeat("statevec.diag", 3, sweeps, |i| {
        layers::statevec_diag(&mut state, i % n, &ops)
    });
    run.put("statevec.diag_gbps", gbps(sweep_bytes, s));
    let s = run.repeat("statevec.k2", 3, sweeps, |i| {
        layers::statevec_k2(&mut state, i % n, (i + n / 2) % n, &ops)
    });
    run.put("statevec.k2_gbps", gbps(sweep_bytes, s));
    let s = run.repeat("statevec.k3", 3, sweeps, |i| {
        let qubits = [i % n, (i + n / 3) % n, (i + 2 * n / 3) % n];
        layers::statevec_k3(&mut state, qubits, &ops)
    });
    let k3_gbps = gbps(sweep_bytes, s);
    run.put("statevec.k3_gbps", k3_gbps);
    run.put("statevec.k3_roofline_frac", k3_gbps / triad.gbps);
    drop(state);

    // ---- statevec: fusion and the fused executor -------------------------
    let mut fused = layers::statevec_fuse(circuit);
    let s = run.repeat("statevec.fuse", 1, 20, |_| {
        fused = layers::statevec_fuse(circuit)
    });
    let num_ops = layers::fused_ops(&fused);
    run.put("statevec.fuse_ms", s * 1e3);
    run.put("statevec.fused_ops", num_ops as f64);

    let mut state = layers::zero_state(n);
    let fused_apply_s = run.repeat("statevec.fused_apply", 1, 5, |_| {
        state = layers::zero_state(n);
        layers::statevec_fused_apply(&fused, &mut state)
    });
    // The span above holds the allocation too, which is a calloc: the pages
    // are touched by the first sweep either way, as they are in a real job.
    run.check_state(&state, reference);
    run.put("statevec.fused_apply_s", fused_apply_s);
    run.put(
        "statevec.fused_apply_gbps",
        gbps(num_ops as f64 * sweep_bytes, fused_apply_s),
    );

    let mut passes = Vec::new();
    let clock = Instant::now();
    while passes.is_empty() || (passes.len() < 5 && clock.elapsed().as_secs_f64() < row_s) {
        let first = passes.len() * num_ops;
        state = layers::zero_state(n);
        let mut pass_s = 0.0;
        layers::statevec_fused_ops_one_by_one(&fused, &mut state, |op, apply| {
            pass_s += tracer.seconds_of("statevec.fused_op", first + op, apply)
        });
        passes.push(pass_s);
    }
    run.check_state(&state, reference);
    run.put(
        "statevec.fused_over_kernels_ratio",
        fused_apply_s / median(&passes),
    );

    let map = layers::gather_map(n);
    let mut inner = layers::gather_inner(&map);
    let s = run.repeat("statevec.gather_scatter", 1, 10, |_| {
        layers::statevec_gather_scatter(&map, &mut state, &mut inner)
    });
    run.check_state(&state, reference); // gather then scatter is the identity
    run.put("statevec.gather_scatter_gbps", gbps(2.0 * sweep_bytes, s));
    drop((state, inner));

    for (metric, span, width) in [
        ("statevec.sweep14_us", "statevec.sweep14", 14),
        ("statevec.sweep16_us", "statevec.sweep16", 16),
    ] {
        let small = layers::statevec_fuse(&generators::qft(width));
        let mut state = layers::zero_state(width);
        layers::statevec_fused_apply(&small, &mut state);
        let s = run.repeat(span, 5, 200, |_| {
            layers::statevec_fused_apply(&small, &mut state)
        });
        run.put(metric, s / layers::fused_ops(&small) as f64 * 1e6);
    }

    // ---- dag, partition, plan -------------------------------------------
    let mut dag = layers::dag_build(circuit);
    let s = run.repeat("dag.build", 1, 20, |_| dag = layers::dag_build(circuit));
    run.put("dag.build_ms", s * 1e3);

    let (hier_limit, _) = layers::engine_limits(circuit, EngineKind::Hier, probe.limit);
    let mut plans = Vec::new();
    for ((ms_metric, parts_metric, span), strategy) in [
        (
            "partition.dagp_ms",
            "partition.dagp_parts",
            "partition.dagp",
        ),
        ("partition.dfs_ms", "partition.dfs_parts", "partition.dfs"),
        ("partition.nat_ms", "partition.nat_parts", "partition.nat"),
    ]
    .into_iter()
    .zip(layers::STRATEGIES)
    {
        let mut partition = layers::partition(strategy, &dag, hier_limit);
        let s = run.repeat(span, 1, 10, |_| {
            partition = layers::partition(strategy, &dag, hier_limit)
        });
        run.put(ms_metric, s * 1e3);
        run.put(parts_metric, layers::num_parts(&partition) as f64);
        plans.push(layers::core_fuse_plan(circuit, &dag, partition));
    }
    let s = run.repeat("runtime.plan", 1, 10, |_| {
        layers::runtime_plan(circuit, &dag, hier_limit);
    });
    run.put("runtime.plan_ms", s * 1e3);

    // ---- core: the four engines on prebuilt plans -------------------------
    let mut last: Option<(StateVector, hisvsim_core::RunReport)> = None;
    let flat_s = run.repeat("core.flat", 1, 3, |_| {
        last = Some(layers::core_flat(circuit))
    });
    run.check_state(&last.take().expect("ran at least once").0, reference);
    run.put("core.flat_s", flat_s);

    let mut hier_s = [0.0; 3];
    for ((slot, span), plan) in hier_s
        .iter_mut()
        .zip(["core.hier", "core.hier_dfs", "core.hier_nat"])
        .zip(&plans)
    {
        *slot = run.repeat(span, 1, 3, |_| {
            last = Some(layers::core_hier(circuit, plan, hier_limit))
        });
        run.check_state(&last.take().expect("ran at least once").0, reference);
    }
    run.put("core.hier_s", hier_s[0]);
    run.put("core.hier_over_flat_ratio", hier_s[0] / flat_s);
    run.put("core.hier_dfs_over_dagp_ratio", hier_s[1] / hier_s[0]);
    run.put("core.hier_nat_over_dagp_ratio", hier_s[2] / hier_s[0]);
    run.put("core.flat_over_executor_ratio", flat_s / fused_apply_s);
    drop(plans);

    let (dist_limit, _) = layers::engine_limits(circuit, EngineKind::Dist, probe.limit);
    let dist_plan = layers::runtime_plan(circuit, &dag, dist_limit);
    let s = run.repeat("core.dist2", 1, 3, |_| {
        last = Some(layers::core_dist2(circuit, &dist_plan, dist_limit))
    });
    let (dist_state, dist_report) = last.take().expect("ran at least once");
    run.check_state(&dist_state, reference);
    let (bytes, exchanges, comm_wall_s) = layers::comm_of(&dist_report);
    run.put("core.dist2_s", s);
    run.put("core.comm_bytes", bytes as f64);
    run.put("core.exchanges", exchanges as f64);
    run.put("core.comm_wall_s", comm_wall_s);
    drop((dist_state, dist_plan));

    let (first, second) = layers::engine_limits(circuit, EngineKind::Multilevel, probe.limit);
    let two_level = layers::runtime_plan_two_level(circuit, &dag, first, second);
    let s = run.repeat("core.multilevel2", 1, 3, |_| {
        last = Some(layers::core_multilevel2(circuit, &two_level, second))
    });
    run.check_state(&last.take().expect("ran at least once").0, reference);
    run.put("core.multilevel2_s", s);
    drop(two_level);

    // ---- cluster and net: the same collectives over both transports -------
    let amps = sizes.exchange_amps;
    let exchange_bytes = (layers::RANKS * amps * 16) as f64;
    let collectives = |exchange: &'static str, barrier: Option<&'static str>| {
        let tracer = &tracer;
        move |comm: &mut dyn Collectives| {
            for i in 0..5 {
                let send = layers::exchange_payload(amps);
                if comm.rank() == 0 {
                    tracer.time(exchange, i, || comm.exchange(send));
                } else {
                    comm.exchange(send);
                }
            }
            let Some(barrier) = barrier else { return };
            let hundred = |comm: &mut dyn Collectives| (0..100).for_each(|_| comm.barrier());
            if comm.rank() == 0 {
                tracer.time(barrier, 0, || hundred(comm));
            } else {
                hundred(comm);
            }
        }
    };
    layers::cluster_thread_world(collectives(
        "cluster.alltoallv",
        Some("cluster.barrier_x100"),
    ));
    run.put(
        "cluster.alltoallv_gbps",
        gbps(exchange_bytes, median(&tracer.seconds("cluster.alltoallv"))),
    );
    run.put(
        "cluster.barrier_us",
        median(&tracer.seconds("cluster.barrier_x100")) / 100.0 * 1e6,
    );
    layers::net_tcp_world(collectives("net.tcp_alltoallv", None))
        .map_err(|e| format!("loopback TCP mesh: {e}"))?;
    run.put(
        "net.tcp_alltoallv_gbps",
        gbps(exchange_bytes, median(&tracer.seconds("net.tcp_alltoallv"))),
    );

    // ---- runtime and service: per template, one client --------------------
    let scheduler = layers::runtime_scheduler(None);
    let mut runner_over_engine_ms = Vec::new();
    let mut service_over_runner_ms = Vec::new();
    for (t, template) in env.inputs.templates.iter().enumerate() {
        let job = local(template);
        let template_reference = references.get(t).unwrap_or(reference);
        let call = prepare_engine_call(&job);
        // Each overhead is the difference of two times that are seconds long
        // on the large workloads, so the calls are interleaved and the
        // fastest round of each is kept: a median of so few would be noise.
        let (mut engine_s, mut batch_s, mut service_s) = (f64::MAX, f64::MAX, f64::MAX);
        let mut outcome: JobOutcome = layers::runtime_run_batch(&scheduler, job.clone());
        let mut result = Err(String::new());
        let clock = Instant::now();
        let mut round = 0;
        while round < 2 || (round < 5 && clock.elapsed().as_secs_f64() < 3.0 * row_s) {
            engine_s = engine_s.min(tracer.seconds_of("runtime.engine", round, || {
                last = Some(match &call {
                    EngineCall::Flat => layers::core_flat(&job.circuit),
                    EngineCall::Hier(plan, limit) => layers::core_hier(&job.circuit, plan, *limit),
                    EngineCall::Dist(plan, limit) => layers::core_dist2(&job.circuit, plan, *limit),
                })
            }));
            batch_s = batch_s.min(tracer.seconds_of("runtime.run_batch", round, || {
                outcome = layers::runtime_run_batch(&scheduler, job.clone())
            }));
            service_s = service_s.min(tracer.seconds_of("service.single_job", round, || {
                result = layers::service_wait(&layers::service_submit(&env.service, job.clone()))
            }));
            round += 1;
        }
        run.check_state(
            &last.take().expect("ran at least once").0,
            template_reference,
        );
        run.check(
            outcome.plan_cache_hit == outcome.planned
                && within_tolerance(&outcome.state, template_reference),
        );
        run.check(result.is_ok_and(|o| within_tolerance(&o.state, template_reference)));
        runner_over_engine_ms.push((batch_s - engine_s) * 1e3);
        service_over_runner_ms.push((service_s - batch_s) * 1e3);
    }
    run.put(
        "runtime.runner_over_engine_ms",
        median(&runner_over_engine_ms),
    );
    run.put("service.over_runner_ms", median(&service_over_runner_ms));

    // ---- the workload itself, driven through the front door with spans ----
    let jobs = kind.jobs_per_client(sizes, seconds * DRIVE_SHARE);
    let log = workloads::drive(&env, &references, jobs, Some(&tracer));
    run.attempted += log.attempted;
    run.failed += log.failed;
    run.put("runtime.plan_share", log.plan_share);
    run.put("runtime.cache_hit_rate", log.cache_hit_rate);
    run.put("runtime.cache_misses", log.cache_misses as f64);
    run.put("runtime.postprocess_ms", log.postprocess_ms);
    run.put(
        "service.submit_us_p50",
        median(&tracer.seconds("service.submit")) * 1e6,
    );
    run.put(
        "service.queue_wait_ms_p50",
        median(&tracer.seconds("service.queue_wait")) * 1e3,
    );
    run.put("net.bytes_sent", log.comm.0 as f64);
    run.put("net.messages_sent", log.comm.1 as f64);
    run.put("net.comm_wall_s", log.comm.2);

    // ---- net: the probe circuit on worker processes vs rank threads -------
    let dist_job = SimJob::new(circuit.clone()).with_engine(EngineKind::Dist);
    let dist_job = match probe.limit {
        Some(limit) => dist_job.with_limit(limit),
        None => dist_job,
    };
    let mut thread_outcome = layers::runtime_run_batch(&scheduler, dist_job.clone());
    let thread_s = run.repeat("net.thread_job", 1, 3, |_| {
        thread_outcome = layers::runtime_run_batch(&scheduler, dist_job.clone())
    });
    run.check_state(&thread_outcome.state, reference);
    run.put("net.thread_job_s", thread_s);
    if layers::net_worker_binary().is_some() {
        let pool = layers::net_pool()?;
        let on_pool = layers::runtime_scheduler(Some(&pool));
        let small = SimJob::new(generators::qft(n.min(6)))
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process);
        let spawn_s = run.repeat("net.pool_spawn", 1, 1, |_| {
            layers::runtime_run_batch(&on_pool, small.clone());
        });
        run.put("net.pool_spawn_s", spawn_s);
        let process_job = dist_job.with_backend(Backend::Process);
        let mut outcome = layers::runtime_run_batch(&on_pool, process_job.clone());
        let pool_s = run.repeat("net.pool_job", 1, 3, |_| {
            outcome = layers::runtime_run_batch(&on_pool, process_job.clone())
        });
        run.check(layers::states_identical(
            &outcome.state,
            &thread_outcome.state,
        ));
        run.put("net.pool_job_s", pool_s);
        run.put("net.process_over_thread_ratio", pool_s / thread_s);
    } else {
        missing_binaries.push("hisvsim-net");
    }
    drop(thread_outcome);

    // ---- http: the read-only door of a spawned server ---------------------
    match layers::http_binary() {
        None => missing_binaries.push("hisvsim-http"),
        Some(binary) => {
            let (qubits, jobs) = sizes.http;
            let server = layers::http_serve(&binary, qubits, jobs)
                .map_err(|e| format!("hisvsim-http serve: {e}"))?;
            for (metric, span, path, scale) in [
                ("http.healthz_us_p50", "http.healthz", "/healthz", 1e6),
                ("http.status_us_p50", "http.status", "/jobs/0", 1e6),
                ("http.metrics_ms_p50", "http.metrics", "/metrics", 1e3),
                ("http.trace_ms_p50", "http.trace", "/jobs/0/trace", 1e3),
            ] {
                let mut answer = Ok((0, 0));
                let s = run.repeat(span, HTTP_GETS, HTTP_GETS, |_| {
                    answer = layers::http_get(&server.addr, path)
                });
                run.check(matches!(answer, Ok((200, _))));
                run.put(metric, s * scale);
                if span == "http.trace" {
                    let bytes = answer.map_or(0, |(_, bytes)| bytes);
                    run.put("http.trace_kib", bytes as f64 / 1024.0);
                }
            }
        }
    }

    // ---- obs: the program's own recorder, on only for these rows ----------
    layers::obs_set_enabled(true);
    let s = run.repeat("obs.span_loop", 1, 5, |_| {
        layers::obs_span_loop(OBS_SPANS, n)
    });
    run.put("obs.span_ns", s / OBS_SPANS as f64 * 1e9);
    let job = local(&probe);
    layers::service_wait(&layers::service_submit(&env.service, job.clone()))?;
    let (spans_per_job, program_trace_json) = layers::obs_drain_trace();
    run.put("obs.spans_per_job", spans_per_job as f64);
    let clock = Instant::now();
    let mut i = 0;
    while i < 2 || (i < 10 && clock.elapsed().as_secs_f64() < 4.0 * row_s) {
        for (span, on) in [("obs.job_traced", true), ("obs.job_untraced", false)] {
            layers::obs_set_enabled(on);
            let result = tracer.time(span, i, || {
                layers::service_wait(&layers::service_submit(&env.service, job.clone()))
            });
            run.check(result.is_ok());
            layers::obs_drain_trace();
        }
        i += 1;
    }
    layers::obs_set_enabled(false);
    run.put(
        "obs.traced_over_untraced_ratio",
        median(&tracer.seconds("obs.job_traced")) / median(&tracer.seconds("obs.job_untraced")),
    );

    let Run {
        metrics,
        attempted,
        failed,
        ..
    } = run;
    drop(scheduler);
    env.teardown();
    Ok(Traced {
        metrics,
        attempted,
        failed,
        missing_binaries,
        tracer,
        program_trace_json,
    })
}
