//! The adapter: every call the benchmark makes into the program is in this
//! file, one function per row of the per-layer table in `README.md`, through
//! the entry points the program means to keep (`run`, `run_with_fused_plan`,
//! `FusedCircuit::apply`, `Scheduler::run_batch`, `SimService::submit`,
//! `WorkerPool::new`). Nothing here reads a clock — timing belongs to the
//! callers' spans — so when the program's surface changes, this is the only
//! file that has to follow.

use hisvsim_circuit::{Circuit, Complex64, GateKind, Qubit, UnitaryMatrix};
use hisvsim_cluster::{run_spmd, NetworkModel, RankComm};
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, FusedSinglePlan, FusedTwoLevelPlan,
    HierConfig, HierarchicalSimulator, IqsBaseline, MultilevelConfig, MultilevelSimulator,
    RunReport,
};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_net::{find_worker_binary, tcp_world, WorkerPool};
use hisvsim_partition::Strategy;
use hisvsim_runtime::{
    CacheStats, EngineKind, EngineSelector, JobResult, PlanEffort, Planner, Scheduler,
    SchedulerConfig, SimJob,
};
use hisvsim_service::{JobEvent, JobHandle, ServiceConfig, SimService};
use hisvsim_statevec::{
    kernels, ApplyOptions, FusedCircuit, FusedOp, FusionStrategy, GatherMap, KernelDispatch,
    StateVector, DEFAULT_FUSION_WIDTH,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// A shared handle to a worker pool.
pub type Pool = Arc<WorkerPool>;
/// The running front door.
pub type Service = SimService;

/// Ranks of every distributed measurement: one per core of the sizing host,
/// so the numbers measure the program and not the scheduler.
pub const RANKS: usize = 2;

// ---------------------------------------------------------------- host ----

/// `KernelDispatch::resolved_name` of the default dispatch.
pub fn resolved_kernel_dispatch() -> &'static str {
    KernelDispatch::Auto.resolved_name()
}

// ------------------------------------------------------------ statevec ----

/// Operands for the four raw-kernel rows: dense matrices with no zero entry,
/// so no sparse-row shortcut flatters the number.
pub struct KernelOperands {
    single: [Complex64; 4],
    diagonal: (Complex64, Complex64),
    two: UnitaryMatrix,
    three: UnitaryMatrix,
}

impl KernelOperands {
    /// Build the operands (Kronecker products of `ry` rotations).
    pub fn new() -> Self {
        let ry = |theta: f64| GateKind::Ry(theta).matrix();
        let single: [Complex64; 4] = ry(0.7)
            .as_slice()
            .try_into()
            .expect("a one-qubit matrix has four entries");
        let two = ry(0.7).kron(&ry(1.1));
        let three = two.kron(&ry(1.9));
        Self {
            single,
            diagonal: (Complex64::cis(0.3), Complex64::cis(-0.4)),
            two,
            three,
        }
    }
}

/// A fresh `|0…0⟩`.
pub fn zero_state(qubits: usize) -> StateVector {
    StateVector::zero_state(qubits)
}

/// `statevec.k1_gbps`: one `apply_single` sweep on qubit `q`.
pub fn statevec_k1(state: &mut StateVector, q: Qubit, ops: &KernelOperands) {
    kernels::apply_single(state, q, &ops.single, &ApplyOptions::default());
}

/// `statevec.diag_gbps`: one `apply_diagonal_single` sweep on qubit `q`.
pub fn statevec_diag(state: &mut StateVector, q: Qubit, ops: &KernelOperands) {
    let (d0, d1) = ops.diagonal;
    kernels::apply_diagonal_single(state, q, d0, d1, &ApplyOptions::default());
}

/// `statevec.k2_gbps`: one `apply_two_qubit_dense` sweep on `(a, b)`.
pub fn statevec_k2(state: &mut StateVector, a: Qubit, b: Qubit, ops: &KernelOperands) {
    kernels::apply_two_qubit_dense(state, a, b, &ops.two, &ApplyOptions::default());
}

/// `statevec.k3_gbps`: one `apply_k_qubit` sweep at k = 3.
pub fn statevec_k3(state: &mut StateVector, qubits: [Qubit; 3], ops: &KernelOperands) {
    kernels::apply_k_qubit(state, &qubits, &ops.three, &ApplyOptions::default());
}

/// `statevec.fuse_ms` / `statevec.fused_ops`: fuse with the job defaults.
pub fn statevec_fuse(circuit: &Circuit) -> FusedCircuit {
    FusedCircuit::with_strategy(circuit, DEFAULT_FUSION_WIDTH, FusionStrategy::default())
}

/// Number of sweeps in a fused circuit.
pub fn fused_ops(fused: &FusedCircuit) -> usize {
    fused.num_ops()
}

/// `statevec.fused_apply_s`: the whole fused circuit on `state`.
pub fn statevec_fused_apply(fused: &FusedCircuit, state: &mut StateVector) {
    fused.apply(state, &ApplyOptions::default());
}

/// `statevec.fused_over_kernels_ratio` denominator: the fused ops one by one.
pub fn statevec_fused_ops_one_by_one(
    fused: &FusedCircuit,
    state: &mut StateVector,
    mut each: impl FnMut(usize, &mut dyn FnMut()),
) {
    let opts = ApplyOptions::default();
    for (index, op) in fused.ops().iter().enumerate() {
        let op: &FusedOp = op;
        each(index, &mut || op.apply(state, &opts));
    }
}

/// The gather map of a part that leaves the four highest qubits free.
pub fn gather_map(qubits: usize) -> GatherMap {
    let part: Vec<Qubit> = (0..qubits.saturating_sub(4).max(1)).collect();
    GatherMap::new(qubits, &part)
}

/// An inner state sized for `map`.
pub fn gather_inner(map: &GatherMap) -> StateVector {
    StateVector::zero_state(map.inner_qubits())
}

/// `statevec.gather_scatter_gbps`: gather then scatter every assignment once.
pub fn statevec_gather_scatter(map: &GatherMap, outer: &mut StateVector, inner: &mut StateVector) {
    for assignment in 0..1usize << map.num_free_qubits() {
        map.gather_into(outer, assignment, inner);
        map.scatter(inner, outer, assignment);
    }
}

// -------------------------------------------------- dag and partition ----

/// `dag.build_ms`.
pub fn dag_build(circuit: &Circuit) -> CircuitDag {
    CircuitDag::from_circuit(circuit)
}

/// The three strategies of the paper, in the order the rows list them.
pub const STRATEGIES: [Strategy; 3] = [Strategy::DagP, Strategy::Dfs, Strategy::Nat];

/// `partition.<strategy>_ms` / `partition.<strategy>_parts`.
pub fn partition(strategy: Strategy, dag: &CircuitDag, limit: usize) -> Partition {
    strategy
        .partition(dag, limit)
        .expect("the limit is at least the widest gate, so every strategy can partition")
}

/// Parts in a partition.
pub fn num_parts(partition: &Partition) -> usize {
    partition.num_parts()
}

// ---------------------------------------------------------------- core ----

/// What the selector would give a job forcing `engine` on `circuit`:
/// `(limit, second_limit)`, clamped like the runner clamps them for `RANKS`.
pub fn engine_limits(
    circuit: &Circuit,
    engine: EngineKind,
    limit: Option<usize>,
) -> (usize, usize) {
    let decision = EngineSelector::default().decide(circuit, Some(engine));
    let mut first = limit.unwrap_or(decision.limit);
    let mut second = decision.second_limit.min(first);
    if matches!(engine, EngineKind::Dist | EngineKind::Multilevel) {
        let local = circuit.num_qubits() - RANKS.trailing_zeros() as usize;
        first = first.min(local.max(1));
        second = second.min(first);
    }
    (first, second)
}

/// Fuse an already chosen partition into an executable plan.
pub fn core_fuse_plan(
    circuit: &Circuit,
    dag: &CircuitDag,
    partition: Partition,
) -> FusedSinglePlan {
    FusedSinglePlan::build_with_strategy(
        circuit,
        dag,
        partition,
        DEFAULT_FUSION_WIDTH,
        FusionStrategy::default(),
    )
}

/// `core.flat_s`: the flat baseline on one rank.
pub fn core_flat(circuit: &Circuit) -> (StateVector, RunReport) {
    let run = IqsBaseline::new(BaselineConfig::new(1)).run(circuit);
    (run.state, run.report)
}

/// `core.hier_s`: gather–execute–scatter over a prebuilt plan.
pub fn core_hier(
    circuit: &Circuit,
    plan: &FusedSinglePlan,
    limit: usize,
) -> (StateVector, RunReport) {
    let run = HierarchicalSimulator::new(HierConfig::new(limit)).run_with_fused_plan(circuit, plan);
    (run.state, run.report)
}

/// `core.dist2_s`: the distributed engine on a two-rank thread world.
pub fn core_dist2(
    circuit: &Circuit,
    plan: &FusedSinglePlan,
    limit: usize,
) -> (StateVector, RunReport) {
    let run = DistributedSimulator::new(DistConfig::new(RANKS).with_limit(limit))
        .run_with_fused_plan(circuit, plan);
    (run.state, run.report)
}

/// `core.multilevel2_s`: the two-level engine on a two-rank thread world.
pub fn core_multilevel2(
    circuit: &Circuit,
    plan: &FusedTwoLevelPlan,
    second_limit: usize,
) -> (StateVector, RunReport) {
    let run = MultilevelSimulator::new(MultilevelConfig::new(RANKS, second_limit))
        .run_with_fused_plan(circuit, plan);
    (run.state, run.report)
}

/// `core.comm_bytes`, `core.exchanges`, `core.comm_wall_s` of a report
/// (bytes and wall seconds are summed over the ranks).
pub fn comm_of(report: &RunReport) -> (u64, usize, f64) {
    (
        report.comm.bytes_sent,
        report.num_exchanges,
        report.comm.wall_time_s,
    )
}

// ------------------------------------------------- cluster and net ----

/// The collectives the transport rows time, over either transport.
pub trait Collectives {
    /// This rank's index.
    fn rank(&self) -> usize;
    /// One all-to-all-v exchange of `send` (one buffer per peer).
    fn exchange(&mut self, send: Vec<Vec<Complex64>>);
    /// One barrier.
    fn barrier(&mut self);
}

impl<C: RankComm<Complex64>> Collectives for C {
    fn rank(&self) -> usize {
        RankComm::rank(self)
    }
    fn exchange(&mut self, send: Vec<Vec<Complex64>>) {
        std::hint::black_box(self.alltoallv(send, 1));
    }
    fn barrier(&mut self) {
        RankComm::barrier(self);
    }
}

/// Send buffers for one exchange: `amps` amplitudes to each of `RANKS` peers.
pub fn exchange_payload(amps: usize) -> Vec<Vec<Complex64>> {
    vec![vec![Complex64::ONE; amps]; RANKS]
}

/// `cluster.*`: run `body` on every rank of a `LocalComm` thread world.
pub fn cluster_thread_world(body: impl Fn(&mut dyn Collectives) + Sync) {
    run_spmd::<Complex64, (), _>(RANKS, NetworkModel::ideal(), |mut comm| body(&mut comm));
}

/// `net.tcp_alltoallv_gbps`: run `body` on every rank of a loopback
/// `TcpComm` mesh living in this process.
pub fn net_tcp_world(body: impl Fn(&mut dyn Collectives) + Sync) -> std::io::Result<()> {
    let world = tcp_world::<Complex64>(RANKS, NetworkModel::ideal())?;
    let body = &body;
    std::thread::scope(|scope| {
        for mut comm in world {
            scope.spawn(move || body(&mut comm));
        }
    });
    Ok(())
}

/// The `hisvsim-net` worker binary, if it has been built.
pub fn net_worker_binary() -> Option<PathBuf> {
    find_worker_binary()
}

/// `net.pool_spawn_s`: a two-rank `WorkerPool` (the world spawns on its
/// first job).
pub fn net_pool() -> Result<Pool, String> {
    WorkerPool::new(RANKS)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Process ids of the pool's resident workers.
pub fn net_pool_pids(pool: &WorkerPool) -> Vec<u32> {
    pool.worker_pids()
}

// ------------------------------------------------------------- runtime ----

/// `runtime.plan_ms`: one cold `Planner::plan_single_fused`.
pub fn runtime_plan(circuit: &Circuit, dag: &CircuitDag, limit: usize) -> FusedSinglePlan {
    Planner::new(PlanEffort::Fast)
        .plan_single_fused(
            circuit,
            dag,
            limit,
            DEFAULT_FUSION_WIDTH,
            FusionStrategy::default(),
        )
        .expect("the limit is at least the widest gate")
}

/// The two-level counterpart of [`runtime_plan`].
pub fn runtime_plan_two_level(
    circuit: &Circuit,
    dag: &CircuitDag,
    first_limit: usize,
    second_limit: usize,
) -> FusedTwoLevelPlan {
    Planner::new(PlanEffort::Fast)
        .plan_two_level_fused(
            circuit,
            dag,
            first_limit,
            second_limit,
            DEFAULT_FUSION_WIDTH,
            FusionStrategy::default(),
        )
        .expect("the limits are at least the widest gate")
}

fn scheduler_config(workers: usize, pool: Option<&Pool>) -> SchedulerConfig {
    let config = SchedulerConfig::default().with_workers(workers);
    match pool {
        Some(pool) => config.with_process_backend(Arc::clone(pool) as _),
        None => config,
    }
}

/// A batch scheduler with the default selector.
pub fn runtime_scheduler(pool: Option<&Pool>) -> Scheduler {
    Scheduler::new(scheduler_config(RANKS, pool))
}

/// What the benchmark reads off a finished job.
pub struct JobOutcome {
    /// Final state.
    pub state: StateVector,
    /// Engine the selector (or the job) chose.
    pub engine: &'static str,
    /// `JobResult.wall_time_s`.
    pub wall_s: f64,
    /// `JobResult.plan_time_s`.
    pub plan_s: f64,
    /// `JobResult.plan_cache_hit`.
    pub plan_cache_hit: bool,
    /// Whether the engine takes a partition plan at all: the flat baseline
    /// fuses inside the engine on every run and never consults the plan
    /// cache, so it can neither hit nor miss.
    pub planned: bool,
    /// The `postprocess` entry of `JobResult::timeline()`, seconds.
    pub postprocess_s: f64,
    /// Shots in the returned histogram.
    pub shots: usize,
    /// `JobResult::comm_stats()`: bytes sent, summed over ranks.
    pub comm_bytes: u64,
    /// `JobResult::comm_stats()`: messages sent, summed over ranks.
    pub comm_messages: u64,
    /// `JobResult::comm_stats()`: seconds blocked in communication, summed
    /// over ranks.
    pub comm_wall_s: f64,
}

impl From<JobResult> for JobOutcome {
    fn from(result: JobResult) -> Self {
        let postprocess_s = result
            .timeline()
            .iter()
            .find(|phase| phase.name == "postprocess")
            .map_or(0.0, |phase| phase.dur_us as f64 * 1e-6);
        let comm = *result.comm_stats();
        Self {
            engine: result.engine.name(),
            wall_s: result.wall_time_s,
            plan_s: result.plan_time_s,
            plan_cache_hit: result.plan_cache_hit,
            planned: result.engine != EngineKind::Baseline,
            postprocess_s,
            shots: result.counts.values().sum(),
            comm_bytes: comm.bytes_sent,
            comm_messages: comm.messages_sent,
            comm_wall_s: comm.wall_time_s,
            state: result
                .state
                .expect("the benchmark's schedulers retain states"),
        }
    }
}

/// `runtime.runner_over_engine_ms`: one job through `Scheduler::run_batch`.
pub fn runtime_run_batch(scheduler: &Scheduler, job: SimJob) -> JobOutcome {
    let mut report = scheduler.run_batch(vec![job]);
    report
        .results
        .pop()
        .expect("a one-job batch has one result")
        .into()
}

/// Which engine the default selector gives `job`.
pub fn selected_engine(job: &SimJob) -> EngineKind {
    EngineSelector::default()
        .decide(&job.circuit, job.engine)
        .engine
}

// ------------------------------------------------------------- service ----

/// Start the front door: a `SimService` with `RANKS` workers, the default
/// selector, and `pool` registered as its process backend when given.
pub fn service_start(pool: Option<&Pool>) -> SimService {
    SimService::start(ServiceConfig::new().with_scheduler(scheduler_config(RANKS, pool)))
}

/// `service.submit_us_p50`: `SimService::submit`.
pub fn service_submit(service: &SimService, job: SimJob) -> JobHandle {
    service.submit(job)
}

/// `service.queue_wait_ms_p50`: block until the job's `Planning` event (or
/// its stream ends, for a job that failed before planning).
pub fn service_await_planning(handle: &JobHandle) {
    let events = handle.progress();
    while let Ok(event) = events.recv() {
        if event == JobEvent::Planning {
            return;
        }
    }
}

/// `JobHandle::wait`, with the failure flattened to its message.
pub fn service_wait(handle: &JobHandle) -> Result<JobOutcome, String> {
    handle
        .wait()
        .map(JobOutcome::from)
        .map_err(|failure| failure.to_string())
}

/// The service's plan-cache counters.
pub fn service_cache_stats(service: &SimService) -> CacheStats {
    service.cache_stats()
}

/// `runtime.cache_hit_rate` and `runtime.cache_misses`: `CacheStats::since`
/// over a window.
pub fn cache_window(now: &CacheStats, earlier: &CacheStats) -> (f64, u64) {
    let window = now.since(earlier);
    (window.hit_rate(), window.misses)
}

/// Drain the queue, join the workers and shut the process backend down.
pub fn service_shutdown(service: SimService) {
    service
        .shutdown()
        .expect("the benchmark configures no persistence, so shutdown writes nothing");
}

// ---------------------------------------------------------------- http ----

/// The sibling `hisvsim-http` binary, found the way `find_worker_binary`
/// finds `hisvsim-net`: `HISVSIM_HTTP_BIN`, else up to three directories up
/// from this executable.
pub fn http_binary() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os("HISVSIM_HTTP_BIN").map(PathBuf::from) {
        if path.is_file() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("hisvsim-http{}", std::env::consts::EXE_SUFFIX);
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join(&name))
        .find(|candidate| candidate.is_file())
}

/// A spawned `hisvsim-http serve`; killed and reaped on drop.
pub struct HttpServer {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `hisvsim-http serve --qubits <qubits> --jobs <jobs> --trace` on an
/// ephemeral port and wait for its listen line.
pub fn http_serve(binary: &Path, qubits: usize, jobs: usize) -> std::io::Result<HttpServer> {
    let mut child = Command::new(binary)
        .args(["serve", "--qubits", &qubits.to_string()])
        .args(["--jobs", &jobs.to_string(), "--trace"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut server = HttpServer {
        child,
        addr: String::new(),
    };
    for line in BufReader::new(stdout).lines() {
        if let Some((_, addr)) = line?.split_once("listening on http://") {
            server.addr = addr.trim().to_string();
            return Ok(server);
        }
    }
    Err(std::io::Error::other(
        "hisvsim-http exited before printing its listen address",
    ))
}

/// `http.*`: one plain `std::net` GET; returns the status code and the body
/// length in bytes.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, usize)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok((status, raw.len() - head_end - 4))
}

// ----------------------------------------------------------------- obs ----

/// Switch the program's own span recorder on or off.
pub fn obs_set_enabled(on: bool) {
    hisvsim_obs::set_enabled(on);
}

/// `obs.spans_per_job`: drain the recorder; returns how many spans it held
/// and those spans as Chrome-trace JSON.
pub fn obs_drain_trace() -> (usize, String) {
    let spans = hisvsim_obs::drain();
    (spans.len(), hisvsim_obs::chrome_trace_json(&spans))
}

/// `obs.span_ns`: open and close `count` armed spans with a typical detail
/// string, then drain them (the `obs_overhead` probe).
pub fn obs_span_loop(count: usize, qubits: usize) {
    for i in 0..count {
        let _guard = hisvsim_obs::span("kernel", "probe")
            .detail(format!("{i} gates, {} amps", 1usize << qubits));
    }
    let _ = hisvsim_obs::drain();
}

// -------------------------------------------------------- verification ----

/// The unfused reference: `run_circuit`, one kernel call per gate.
pub fn reference_state(circuit: &Circuit) -> StateVector {
    kernels::run_circuit(circuit)
}

/// `(max |a − b|, |‖a‖² − 1|)`.
pub fn state_error(state: &StateVector, reference: &StateVector) -> (f64, f64) {
    (
        state.max_abs_diff(reference),
        (state.norm_sqr() - 1.0).abs(),
    )
}

/// Whether two states agree bit for bit.
pub fn states_identical(a: &StateVector, b: &StateVector) -> bool {
    let bits = |c: &Complex64| (c.re.to_bits(), c.im.to_bits());
    a.len() == b.len()
        && a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .all(|(x, y)| bits(x) == bits(y))
}
