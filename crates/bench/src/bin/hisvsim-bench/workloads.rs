//! The five workloads: what each submits, why it exists, how its inputs are
//! made from the seed, and the closed-loop driver that pushes them through
//! the front door (`SimService::submit(job).wait()`) and verifies what comes
//! back. The program only ever sees the generated circuits.

use crate::layers::{self, Pool, Service};
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use hisvsim_circuit::{generators, Circuit, GateKind};
use hisvsim_runtime::{Backend, EngineKind, SimJob};
use hisvsim_statevec::StateVector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Largest amplitude error a job's state may have against the reference.
const MAX_ABS_ERROR: f64 = 1e-10;
/// Largest deviation of ‖ψ‖² from one.
const MAX_NORM_ERROR: f64 = 1e-9;
/// Jobs every client submits however short the run.
const MIN_JOBS: usize = 3;
/// How often set-up is repeated in an end-to-end run (the median is reported).
const SETUPS: usize = 3;
/// Structure of `large_random`. A 528-gate random circuit costs 1.07–1.72 s
/// depending on how its gates happen to fall into parts, which is wider than
/// any bound; fixing the gate sequence and letting the seed draw only the
/// rotation angles keeps the *work* identical across seeds while the
/// amplitudes (and so the reference) still differ.
const LARGE_RANDOM_STRUCTURE: u64 = 1;

/// Input sizes. `FULL` is what the ledger records; `TOY` is what the tier-1
/// smoke test runs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Width of `large_qft` and `large_random`.
    pub large_qubits: usize,
    /// Gates of `large_random`.
    pub large_random_gates: usize,
    /// Narrowest and widest `burst_warm` template.
    pub burst_widths: (usize, usize),
    /// Shots per `burst_warm` job.
    pub burst_shots: usize,
    /// Untimed `burst_warm` jobs per set-up.
    pub burst_warmup: usize,
    /// Width, gates and forced limit of every `plan_cold` circuit.
    pub cold: (usize, usize, usize),
    /// Width of `cluster_qft`.
    pub cluster_qubits: usize,
    /// `--qubits` and `--jobs` of the spawned `hisvsim-http serve`.
    pub http: (usize, usize),
    /// Amplitudes per peer in the collective rows.
    pub exchange_amps: usize,
    /// Bytes per STREAM array; `None` sizes them from the host's LLC.
    pub triad_array_bytes: Option<usize>,
    /// Timed jobs per second of `--seconds`, all clients together, in the
    /// order of [`Kind::ALL`]. A run submits a fixed number of jobs, not as
    /// many as fit: the sample count — and with it the tail percentile, the
    /// plan-cache population and peak memory — is then the same on every host
    /// and every commit. The rates are about what the sizing host completes,
    /// so a run there lasts about `--seconds`.
    pub jobs_per_second: [f64; 5],
}

impl Sizes {
    /// The recorded sizes (sized on a 2-core, 16 GiB host).
    pub const FULL: Sizes = Sizes {
        large_qubits: 22,
        large_random_gates: 528,
        burst_widths: (10, 16),
        burst_shots: 64,
        burst_warmup: 500,
        cold: (11, 3000, 8),
        cluster_qubits: 21,
        http: (16, 4),
        exchange_amps: 1 << 20,
        triad_array_bytes: None,
        jobs_per_second: [2.0, 0.8, 800.0, 20.0, 1.2],
    };
    /// Smoke-test sizes: every code path, no meaningful timing.
    #[cfg(test)]
    pub const TOY: Sizes = Sizes {
        large_qubits: 10,
        large_random_gates: 60,
        burst_widths: (8, 9),
        burst_shots: 16,
        burst_warmup: 12,
        cold: (8, 120, 5),
        cluster_qubits: 9,
        http: (8, 2),
        exchange_amps: 1 << 10,
        triad_array_bytes: Some(1 << 20),
        jobs_per_second: [50.0; 5],
    };
}

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One QFT-22 at a time through the default selector.
    LargeQft,
    /// One deep random 22-qubit circuit at a time.
    LargeRandom,
    /// A burst of small, plan-cached jobs from two clients.
    BurstWarm,
    /// Structurally distinct circuits: every job misses the plan cache.
    PlanCold,
    /// QFT-21 on a two-process worker pool.
    ClusterQft,
}

impl Kind {
    /// Every workload, in ledger order.
    pub const ALL: [Kind; 5] = [
        Kind::LargeQft,
        Kind::LargeRandom,
        Kind::BurstWarm,
        Kind::PlanCold,
        Kind::ClusterQft,
    ];

    /// Name on the command line and in every file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LargeQft => "large_qft",
            Kind::LargeRandom => "large_random",
            Kind::BurstWarm => "burst_warm",
            Kind::PlanCold => "plan_cold",
            Kind::ClusterQft => "cluster_qft",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Why the workload exists (one line, recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::LargeQft => {
                "qft(22), one job at a time, selector picks hier: diagonal-heavy, ~54 fused \
                 sweeps, so time is streaming kernels, L2 tiling and gather/scatter (ROADMAP 1a)"
            }
            Kind::LargeRandom => {
                "random 22q x 528 gates, one at a time: ~180 dense 3-qubit fused groups, \
                 compute-bound in apply_k_qubit (ROADMAP 1b); a kernel fix shows here, not on \
                 large_qft"
            }
            Kind::BurstWarm => {
                "2 clients x 42 templates (6 families x 10..16q), 64 shots, selector picks flat: \
                 state is cache-resident and nothing is planned, so cost is runtime + service + a \
                 thread spawn per sweep"
            }
            Kind::PlanCold => {
                "distinct random 11q x 3000-gate circuits forced hier at limit 8: every job \
                 misses the plan cache, so dag build + dagP + fusion is over half the wall time"
            }
            Kind::ClusterQft => {
                "qft(21) forced dist on a 2-process WorkerPool over loopback TcpComm: the only \
                 workload with collectives, plan shipping and gather-back on the critical path"
            }
        }
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Kind::BurstWarm | Kind::PlanCold => 2,
            _ => 1,
        }
    }

    /// Timed jobs each client submits in a run sized for `seconds`.
    pub fn jobs_per_client(self, sizes: Sizes, seconds: f64) -> usize {
        let rate = sizes.jobs_per_second[self as usize];
        let jobs = (rate * seconds / self.clients() as f64).round() as usize;
        jobs.max(MIN_JOBS)
    }

    /// Check every n-th job's state in full (every job is checked for
    /// success and for the expected plan-cache outcome).
    fn verify_every(self) -> usize {
        match self {
            Kind::BurstWarm => 32,
            Kind::PlanCold => 8,
            _ => 1,
        }
    }

    /// Whether a timed job's plan (if its engine takes one) must come from
    /// the cache.
    fn expect_cache_hit(self) -> bool {
        self != Kind::PlanCold
    }

    /// Whether the workload runs on worker processes.
    pub fn uses_pool(self) -> bool {
        self == Kind::ClusterQft
    }
}

/// SplitMix64: a stateless hash of `(seed, stream, index)` to a u64.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `circuit` with every rotation angle redrawn from `seed` (gate kinds and
/// operands untouched).
fn with_angles_from(circuit: &Circuit, seed: u64) -> Circuit {
    let mut out = Circuit::named(format!("{}_s{seed}", circuit.name), circuit.num_qubits());
    for (index, gate) in circuit.gates().iter().enumerate() {
        let angle = (mix(seed, 0xA6, index as u64) >> 11) as f64 / (1u64 << 53) as f64
            * std::f64::consts::PI;
        let kind = match gate.kind {
            GateKind::Rx(_) => GateKind::Rx(angle),
            GateKind::Ry(_) => GateKind::Ry(angle),
            GateKind::Rz(_) => GateKind::Rz(angle),
            GateKind::P(_) => GateKind::P(angle),
            GateKind::Cp(_) => GateKind::Cp(angle),
            other => other,
        };
        out.add(kind, &gate.qubits);
    }
    out
}

/// The inputs of one run, generated from the seed.
pub struct Inputs {
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    /// The distinct jobs the workload submits (`plan_cold` holds only the
    /// circuit the per-layer rows probe; its stream is generated on demand).
    pub templates: Vec<SimJob>,
    next_cold: AtomicU64,
}

impl Inputs {
    /// Generate the inputs of `kind` for `seed`.
    pub fn generate(kind: Kind, sizes: Sizes, seed: u64) -> Self {
        let n = sizes.large_qubits;
        let templates = match kind {
            Kind::LargeQft => vec![SimJob::new(generators::qft(n))],
            Kind::LargeRandom => {
                let structure =
                    generators::random_circuit(n, sizes.large_random_gates, LARGE_RANDOM_STRUCTURE);
                vec![SimJob::new(with_angles_from(&structure, seed))]
            }
            Kind::BurstWarm => {
                let (lo, hi) = sizes.burst_widths;
                let mut templates = Vec::new();
                for width in lo..=hi {
                    let s = mix(seed, 0xB0, width as u64);
                    for circuit in [
                        generators::qft(width),
                        generators::qaoa(width, 2, s),
                        generators::ising(width, 3),
                        generators::bv(width, s),
                        generators::qnn(width, 2, s),
                        generators::adder(width),
                    ] {
                        templates.push(SimJob::new(circuit).with_shots(sizes.burst_shots));
                    }
                }
                templates
            }
            Kind::PlanCold => vec![Self::cold_job(sizes, seed, u64::MAX)],
            Kind::ClusterQft => vec![SimJob::new(generators::qft(sizes.cluster_qubits))
                .with_engine(EngineKind::Dist)
                .with_backend(Backend::Process)],
        };
        Self {
            kind,
            sizes,
            seed,
            templates,
            next_cold: AtomicU64::new(0),
        }
    }

    fn cold_job(sizes: Sizes, seed: u64, index: u64) -> SimJob {
        let (qubits, gates, limit) = sizes.cold;
        SimJob::new(generators::random_circuit(
            qubits,
            gates,
            mix(seed, 0xC0, index),
        ))
        .with_engine(EngineKind::Hier)
        .with_limit(limit)
    }

    /// The `k`-th job of `client`, and the template it instantiates (`None`
    /// for a freshly generated `plan_cold` circuit).
    pub fn job(&self, client: usize, k: usize) -> (SimJob, Option<usize>) {
        match self.kind {
            Kind::BurstWarm => {
                let draw = mix(self.seed, 0xD0 + client as u64, k as u64);
                let template = (draw % self.templates.len() as u64) as usize;
                let job = self.templates[template].clone().with_seed(draw);
                (job, Some(template))
            }
            Kind::PlanCold => {
                let index = self.next_cold.fetch_add(1, Ordering::Relaxed);
                (Self::cold_job(self.sizes, self.seed, index), None)
            }
            _ => (self.templates[0].clone(), Some(0)),
        }
    }

    /// Index of [`Inputs::probe`] among the templates.
    pub fn probe_index(&self) -> usize {
        match self.kind {
            Kind::BurstWarm => self.templates.len() - 6,
            _ => 0,
        }
    }

    /// The circuit the per-layer rows measure on: the workload's own circuit,
    /// or the widest QFT template of the burst.
    pub fn probe(&self) -> &SimJob {
        &self.templates[self.probe_index()]
    }
}

/// A set-up workload: the service (and worker pool) started, inputs
/// generated, warm-up jobs run.
pub struct Env {
    /// Which workload this is.
    pub kind: Kind,
    /// The generated inputs.
    pub inputs: Inputs,
    /// The running front door.
    pub service: Service,
    /// The worker pool behind it, for `cluster_qft`.
    pub pool: Option<Pool>,
}

impl Env {
    /// Everything `setup_s` covers: start the pool and the service, generate
    /// the circuits, run the warm-up jobs.
    pub fn setup(kind: Kind, sizes: Sizes, seed: u64) -> Result<Env, String> {
        let pool = kind.uses_pool().then(layers::net_pool).transpose()?;
        let service = layers::service_start(pool.as_ref());
        let inputs = Inputs::generate(kind, sizes, seed);
        let warmups: Vec<SimJob> = match kind {
            Kind::BurstWarm => {
                // Every template once, so every later plan lookup hits, then
                // the shuffled stream.
                let stream = (0..sizes.burst_warmup).map(|k| inputs.job(kind.clients(), k).0);
                inputs.templates.iter().cloned().chain(stream).collect()
            }
            Kind::PlanCold => (0..8)
                .map(|k| Inputs::cold_job(sizes, seed, u64::MAX - 1 - k))
                .collect(),
            _ => vec![inputs.templates[0].clone()],
        };
        for job in warmups {
            layers::service_wait(&layers::service_submit(&service, job))
                .map_err(|e| format!("{} warm-up job: {e}", kind.name()))?;
        }
        Ok(Env {
            kind,
            inputs,
            service,
            pool,
        })
    }

    /// Peak resident memory of the pool's worker processes, MiB.
    fn workers_peak_rss_mib(&self) -> f64 {
        self.pool.as_ref().map_or(0.0, |pool| {
            layers::net_pool_pids(pool)
                .iter()
                .filter_map(|pid| crate::host::proc_status_mib(&pid.to_string(), "VmHWM"))
                .sum()
        })
    }

    /// Shut the service (and through it the pool) down.
    pub fn teardown(self) {
        layers::service_shutdown(self.service);
    }

    /// One reference state per template. Every workload checks against the
    /// unfused `run_circuit`; `cluster_qft` jobs are compared bit for bit
    /// with the thread-world run of the same job, which is itself checked
    /// against `run_circuit` here. Returns the references and how many of
    /// those thread-world checks failed.
    pub fn references(&self) -> Result<(Vec<StateVector>, usize), String> {
        if self.kind == Kind::PlanCold {
            return Ok((Vec::new(), 0));
        }
        let unfused = self
            .inputs
            .templates
            .iter()
            .map(|job| layers::reference_state(&job.circuit));
        if self.kind != Kind::ClusterQft {
            return Ok((unfused.collect(), 0));
        }
        let mut failed = 0;
        let mut references = Vec::new();
        for (job, unfused) in self.inputs.templates.iter().zip(unfused) {
            let local = job.clone().with_backend(Backend::Local);
            let outcome = layers::service_wait(&layers::service_submit(&self.service, local))?;
            failed += usize::from(!within_tolerance(&outcome.state, &unfused));
            references.push(outcome.state);
        }
        Ok((references, failed))
    }
}

pub(crate) fn within_tolerance(state: &StateVector, reference: &StateVector) -> bool {
    let (abs, norm) = layers::state_error(state, reference);
    abs <= MAX_ABS_ERROR && norm <= MAX_NORM_ERROR
}

/// What one closed-loop drive of a workload produced.
#[derive(Debug, Default)]
pub struct DriveLog {
    /// Submit→result wall time of every job, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Jobs submitted.
    pub attempted: usize,
    /// Jobs that errored, were refused, or failed any check.
    pub failed: usize,
    /// Verified jobs / timed wall. A client's clock runs only inside
    /// submit→wait (generating the next circuit and checking the last
    /// result are the benchmark's own time); the timed wall is the longest
    /// client's.
    pub jobs_per_s: f64,
    /// Σ `JobResult.plan_time_s` / Σ `JobResult.wall_time_s`.
    pub plan_share: f64,
    /// `CacheStats::since(..).hit_rate()` over the drive (0 when no job
    /// consulted the cache).
    pub cache_hit_rate: f64,
    /// Plan-cache misses over the drive.
    pub cache_misses: u64,
    /// Median `postprocess` phase, milliseconds.
    pub postprocess_ms: f64,
    /// Engine of the last job.
    pub engine: &'static str,
    /// Comm counters of the last job: bytes, messages, blocked seconds.
    pub comm: (u64, u64, f64),
}

#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    plan_s: f64,
    wall_s: f64,
    postprocess_ms: Vec<f64>,
    last: Option<(&'static str, (u64, u64, f64))>,
    deferred: Vec<(Circuit, StateVector)>,
}

fn spanned<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    iter: usize,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tracer) => tracer.time(name, iter, f),
        None => f(),
    }
}

fn client_loop(
    env: &Env,
    references: &[StateVector],
    client: usize,
    jobs: usize,
    clients: usize,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let kind = env.kind;
    let mut log = ClientLog::default();
    for k in 0..jobs {
        let (job, template) = env.inputs.job(client, k);
        let shots = job.shots;
        let circuit =
            (template.is_none() && k % kind.verify_every() == 0).then(|| job.circuit.clone());
        // Span ids interleave the clients so every job of a run has its own.
        let id = k * clients + client;
        let clock = Instant::now();
        let result = spanned(tracer, "service.job", id, || {
            let handle = spanned(tracer, "service.submit", id, || {
                layers::service_submit(&env.service, job)
            });
            if tracer.is_some() {
                spanned(tracer, "service.queue_wait", id, || {
                    layers::service_await_planning(&handle)
                });
            }
            layers::service_wait(&handle)
        });
        log.latencies_ms.push(clock.elapsed().as_secs_f64() * 1e3);
        log.attempted += 1;
        match result {
            Err(_) => log.failed += 1,
            Ok(outcome) => {
                log.plan_s += outcome.plan_s;
                log.wall_s += outcome.wall_s;
                log.postprocess_ms.push(outcome.postprocess_s * 1e3);
                log.last = Some((
                    outcome.engine,
                    (
                        outcome.comm_bytes,
                        outcome.comm_messages,
                        outcome.comm_wall_s,
                    ),
                ));
                let expect_hit = kind.expect_cache_hit() && outcome.planned;
                let mut ok = outcome.plan_cache_hit == expect_hit && outcome.shots == shots;
                if ok && k % kind.verify_every() == 0 {
                    match (template, circuit) {
                        (Some(t), _) if kind == Kind::ClusterQft => {
                            ok = layers::states_identical(&outcome.state, &references[t]);
                        }
                        (Some(t), _) => ok = within_tolerance(&outcome.state, &references[t]),
                        (None, Some(circuit)) => log.deferred.push((circuit, outcome.state)),
                        (None, None) => unreachable!("the circuit is kept for every checked job"),
                    }
                }
                log.failed += usize::from(!ok);
            }
        }
    }
    log
}

/// Drive the workload's closed loop against a set-up environment: every
/// client submits `jobs` jobs, each when its previous one has returned. With
/// a tracer, every job is wrapped in `service.job` / `service.submit` /
/// `service.queue_wait` spans.
pub fn drive(
    env: &Env,
    references: &[StateVector],
    jobs: usize,
    tracer: Option<&Tracer>,
) -> DriveLog {
    let clients = env.kind.clients();
    let cache_before = layers::service_cache_stats(&env.service);
    let logs: Vec<ClientLog> = if clients == 1 {
        vec![client_loop(env, references, 0, jobs, 1, tracer)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || client_loop(env, references, c, jobs, clients, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        })
    };
    let cache_after = layers::service_cache_stats(&env.service);

    let (cache_hit_rate, cache_misses) = layers::cache_window(&cache_after, &cache_before);
    let mut out = DriveLog {
        cache_hit_rate,
        cache_misses,
        ..DriveLog::default()
    };
    let (mut plan_s, mut wall_s, mut postprocess_ms) = (0.0, 0.0, Vec::new());
    let mut timed_wall_s = 0.0f64;
    for log in logs {
        timed_wall_s = timed_wall_s.max(log.latencies_ms.iter().sum::<f64>() * 1e-3);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.latencies_ms.extend(log.latencies_ms);
        plan_s += log.plan_s;
        wall_s += log.wall_s;
        postprocess_ms.extend(log.postprocess_ms);
        if let Some((engine, comm)) = log.last {
            out.engine = engine;
            out.comm = comm;
        }
        // Off every clock: the references of the kept `plan_cold` states.
        for (circuit, state) in log.deferred {
            let reference = layers::reference_state(&circuit);
            out.failed += usize::from(!within_tolerance(&state, &reference));
        }
    }
    out.jobs_per_s = (out.attempted - out.failed) as f64 / timed_wall_s;
    out.plan_share = if wall_s > 0.0 { plan_s / wall_s } else { 0.0 };
    out.postprocess_ms = stats::median(&postprocess_ms);
    out
}

/// The result of one end-to-end run (program tracing off).
pub struct EndToEnd {
    /// The closed-loop drive.
    pub log: DriveLog,
    /// Latency summary of the drive.
    pub latency: Summary,
    /// Median of the `SETUPS` set-up times, seconds.
    pub setup_s: f64,
    /// Peak resident memory of this process plus the pool's workers, MiB.
    pub peak_rss_mib: f64,
    /// Seconds the benchmark spent computing references (not a metric).
    pub reference_s: f64,
}

/// Set up (several times, for a steady `setup_s`), compute the references,
/// drive the closed loop with the job count `seconds` stands for, tear down.
pub fn run_end_to_end(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(previous) = env.take() {
            Env::teardown(previous);
        }
        let clock = Instant::now();
        env = Some(Env::setup(kind, sizes, seed)?);
        setups.push(clock.elapsed().as_secs_f64());
    }
    let env = env.expect("SETUPS is at least one");

    let clock = Instant::now();
    let (references, reference_failures) = env.references()?;
    let reference_s = clock.elapsed().as_secs_f64();

    let mut log = drive(
        &env,
        &references,
        kind.jobs_per_client(sizes, seconds),
        None,
    );
    log.attempted += reference_failures;
    log.failed += reference_failures;
    let latency = stats::summarize(&log.latencies_ms).ok_or("the drive ran no job")?;
    let peak_rss_mib =
        crate::host::proc_status_mib("self", "VmHWM").unwrap_or(0.0) + env.workers_peak_rss_mib();
    env.teardown();
    Ok(EndToEnd {
        log,
        latency,
        setup_s: stats::median(&setups),
        peak_rss_mib,
        reference_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_different_ones() {
        for kind in Kind::ALL {
            let a = Inputs::generate(kind, Sizes::TOY, 7);
            let b = Inputs::generate(kind, Sizes::TOY, 7);
            let c = Inputs::generate(kind, Sizes::TOY, 8);
            let prints = |inputs: &Inputs| -> Vec<u64> {
                (0..6)
                    .map(|k| inputs.job(k % 2, k).0.circuit.fingerprint())
                    .collect()
            };
            assert_eq!(prints(&a), prints(&b), "{}", kind.name());
            let seeded = !matches!(kind, Kind::LargeQft | Kind::ClusterQft);
            assert_eq!(prints(&a) != prints(&c), seeded, "{}", kind.name());
        }
    }

    #[test]
    fn large_random_keeps_its_structure_across_seeds() {
        let shape = |seed| -> Vec<(&'static str, Vec<usize>)> {
            Inputs::generate(Kind::LargeRandom, Sizes::TOY, seed).templates[0]
                .circuit
                .gates()
                .iter()
                .map(|g| (g.kind.name(), g.qubits.clone()))
                .collect()
        };
        assert_eq!(shape(1), shape(2));
    }

    #[test]
    fn plan_cold_never_repeats_a_circuit() {
        let inputs = Inputs::generate(Kind::PlanCold, Sizes::TOY, 3);
        let mut prints: Vec<u64> = (0..64)
            .map(|k| inputs.job(k % 2, k / 2).0.circuit.fingerprint())
            .collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), 64);
    }

    #[test]
    fn every_why_fits_the_contract() {
        for kind in Kind::ALL {
            assert!(kind.why().len() <= 200, "{}", kind.name());
            assert!(!kind.why().contains('\n'));
            assert_eq!(Kind::parse(kind.name()), Some(kind));
            // `Sizes::jobs_per_second` is indexed by the discriminant.
            assert_eq!(Kind::ALL[kind as usize], kind);
        }
    }
}
