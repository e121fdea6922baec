//! [`WorkerPool`]: the persistent worker world. Spawns the worker
//! processes **once**, keeps their control channels and TCP mesh alive
//! across jobs, and streams epoch-tagged [`WorkerCommand`] frames down the
//! resident connections — the multi-process `mpirun` of this reproduction
//! grown into a job server, and the
//! [`ProcessBackend`] the runtime's scheduler drives for
//! [`Backend::Process`](hisvsim_runtime::Backend::Process) jobs. The launch
//! plumbing lives here too: the error type, worker-binary discovery, the
//! child-process guard and the liveness-aware socket helpers.
//!
//! Residency is what the paper's batch workloads want: after the first
//! job warms the world up, a batch of repeats pays zero spawn/rendezvous
//! cost and amplitude buffers come warm from each process's pool. Each
//! worker checks and re-fuses the shipped partition on every job: that is
//! O(gates) beside sweeps over a whole slice, so no worker keeps plans.
//! Failure policy is crash-only: any failure of a job drops the whole world
//! (the next job respawns it); a cooperative cancel keeps it warm, because
//! the cancel *vote* guarantees no rank was mid-collective.

use crate::proto::{
    LaunchSpec, RankReport, RankStatus, ShippedJob, WorkerCommand, WorkerHello, AMPS_TAG,
};
use crate::wire::{read_items_frame_into, recv_json, send_json};
use hisvsim_circuit::{Complex64, Qubit};
use hisvsim_core::{aggregate_outcomes, CancelToken, Gathered, RankFigures, RunReport};
use hisvsim_obs::log;
use hisvsim_runtime::{ProcessBackend, ProcessError, ProcessPoolStats, ProcessRequest};
use hisvsim_statevec::{buffers, StateVector};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const LOG_TARGET: &str = "hisvsim-net::pool";

/// How often the canceller thread polls the job's [`CancelToken`]. The
/// end-to-end cancel latency is this poll interval plus one cancel-vote
/// interval on the workers (one fused part).
const CANCEL_POLL: Duration = Duration::from_millis(5);

/// How long [`WorkerPool::shutdown`] waits for workers to honour the
/// `Shutdown` frame before killing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Errors of the pool/worker pipeline.
#[derive(Debug)]
pub enum NetError {
    /// Socket or process I/O failed.
    Io(io::Error),
    /// The control protocol was violated (bad frame, wrong rank or epoch).
    Protocol(String),
    /// A worker process exited abnormally.
    Worker(String),
    /// Every rank agreed to stop at a cancel-vote checkpoint; the job
    /// produced no result but the worker world is still healthy.
    Cancelled,
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Worker(msg) => write!(f, "worker failed: {msg}"),
            NetError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for NetError {}

/// Locate the `hisvsim-net` worker binary: the `HISVSIM_NET_WORKER`
/// environment variable wins; otherwise walk up from the current
/// executable's directory (covers `target/<profile>/`,
/// `target/<profile>/deps/` for test binaries, and
/// `target/<profile>/examples/`).
pub fn find_worker_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("HISVSIM_NET_WORKER") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("hisvsim-net{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?;
    for _ in 0..3 {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

/// A resident worker world: the child processes plus one control stream
/// per rank. The TCP mesh between the workers stays up for the world's
/// whole lifetime.
struct World {
    guard: ChildGuard,
    controls: Vec<TcpStream>,
}

struct PoolInner {
    world: Option<World>,
    /// Pool-global monotonically increasing job epoch. Never reset — a
    /// world respawned after a failure starts at the next fresh epoch, so
    /// a stale `Cancel` frame can never match a new job.
    next_epoch: u64,
}

#[derive(Default)]
struct PoolMetrics {
    worlds_spawned: AtomicU64,
    jobs_run: AtomicU64,
    jobs_reused_world: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    launch_micros_total: AtomicU64,
}

/// Spawns `workers` processes of the `hisvsim-net` binary in worker mode
/// **once**, then serves jobs over the resident control channels:
/// [`WorkerPool::execute`] ships a `Run { epoch, job }` frame to every
/// rank and gathers the per-rank results, leaving the world warm for the
/// next job. The pool ships whatever partition it is handed, so plan reuse
/// across jobs is the runtime's plan cache upstream (a warm one means zero
/// replans); each worker validates and fuses the partition per job.
///
/// Jobs are serialized — the world runs one job at a time, which is
/// exactly the SPMD model (every rank participates in every job).
pub struct WorkerPool {
    workers: usize,
    worker_bin: PathBuf,
    handshake_timeout: Duration,
    inner: Mutex<PoolInner>,
    metrics: PoolMetrics,
}

impl WorkerPool {
    /// A pool of `workers` processes (a power of two), discovering the
    /// worker binary automatically (see [`find_worker_binary`]).
    pub fn new(workers: usize) -> Result<Self, NetError> {
        let worker_bin = find_worker_binary().ok_or_else(|| {
            NetError::Protocol(
                "cannot locate the hisvsim-net worker binary; build it (cargo build -p \
                 hisvsim-net) or set HISVSIM_NET_WORKER"
                    .to_string(),
            )
        })?;
        Ok(Self::with_worker_binary(workers, worker_bin))
    }

    /// A pool using an explicit worker binary path.
    pub fn with_worker_binary(workers: usize, worker_bin: PathBuf) -> Self {
        assert!(
            workers.is_power_of_two(),
            "worker count must be a power of two, got {workers}"
        );
        Self {
            workers,
            worker_bin,
            handshake_timeout: Duration::from_secs(60),
            inner: Mutex::new(PoolInner {
                world: None,
                next_epoch: 0,
            }),
            metrics: PoolMetrics::default(),
        }
    }

    /// The worker-process world size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lifetime counters: worlds spawned, jobs run/reused/cancelled/failed,
    /// and total launch (spawn + rendezvous) seconds — the reuse evidence
    /// (`worlds_spawned == 1` across a warm batch) and the launch-cost
    /// accounting that is deliberately kept out of per-job wall time.
    pub fn metrics(&self) -> ProcessPoolStats {
        ProcessPoolStats {
            worlds_spawned: self.metrics.worlds_spawned.load(Ordering::Relaxed),
            jobs_run: self.metrics.jobs_run.load(Ordering::Relaxed),
            jobs_reused_world: self.metrics.jobs_reused_world.load(Ordering::Relaxed),
            jobs_cancelled: self.metrics.jobs_cancelled.load(Ordering::Relaxed),
            jobs_failed: self.metrics.jobs_failed.load(Ordering::Relaxed),
            launch_seconds_total: self.metrics.launch_micros_total.load(Ordering::Relaxed) as f64
                / 1e6,
        }
    }

    /// Operating-system pids of the resident workers (empty when no world
    /// is up) — for tests that kill a rank mid-job.
    pub fn worker_pids(&self) -> Vec<u32> {
        let inner = self.inner.lock().expect("pool lock poisoned");
        inner
            .world
            .as_ref()
            .map(|world| world.guard.pids())
            .unwrap_or_default()
    }

    /// Execute `job` on the resident worker world (spawning it on the
    /// first call, or after a failure dropped it), and assemble the full
    /// state plus the aggregated run report (per-rank comm stats merged
    /// exactly like the in-process engines'). The state comes back with its
    /// qubits where `perm` wants them, in the standard order for `None` (see
    /// [`aggregate_outcomes`]): one pass on the launcher that also undoes the
    /// ranks' final layout. `perm` stays on the launcher.
    ///
    /// While the job runs, a canceller thread polls `cancel` and, once it
    /// fires, ships `Cancel { epoch }` to every rank: the workers stop
    /// together at their next cancel-vote checkpoint (mid-sweep, not at the
    /// job boundary) and the call returns [`NetError::Cancelled`] with the
    /// world still warm. Any other error fails the job on one path: the
    /// world is dropped (its state is unknowable) and counted in
    /// `jobs_failed`, and the next job respawns it at a fresh epoch.
    pub fn execute(
        &self,
        job: &ShippedJob,
        perm: Option<&[Qubit]>,
        cancel: &CancelToken,
    ) -> Result<(StateVector, RunReport), NetError> {
        // One job at a time: the lock *is* the job queue (SPMD — every
        // rank participates in every job, so there is nothing to overlap).
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        self.metrics.jobs_run.fetch_add(1, Ordering::Relaxed);
        let epoch = inner.next_epoch;
        inner.next_epoch += 1;
        match self.run_job(&mut inner.world, epoch, job, perm, cancel) {
            Err(NetError::Cancelled) => {
                self.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                log::info(
                    LOG_TARGET,
                    "job cancelled; world stays warm",
                    &[("epoch", &epoch.to_string())],
                );
                Err(NetError::Cancelled)
            }
            Err(e) => {
                // Crash-only: ChildGuard's drop kills the survivors.
                self.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                inner.world = None;
                log::error(
                    LOG_TARGET,
                    "job failed; worker world dropped",
                    &[("epoch", &epoch.to_string()), ("error", &e.to_string())],
                );
                Err(e)
            }
            done => done,
        }
    }

    /// Everything one job does between taking the lock and its outcome:
    /// ensure a world, ship the `Run` frames, gather under the canceller,
    /// aggregate. Every error leaves through the one match in
    /// [`WorkerPool::execute`].
    fn run_job(
        &self,
        world: &mut Option<World>,
        epoch: u64,
        job: &ShippedJob,
        perm: Option<&[Qubit]>,
        cancel: &CancelToken,
    ) -> Result<(StateVector, RunReport), NetError> {
        if world.is_some() {
            self.metrics
                .jobs_reused_world
                .fetch_add(1, Ordering::Relaxed);
        } else {
            *world = Some(self.spawn_world(epoch)?);
        }
        let world = world.as_mut().expect("world ensured above");

        // Ship the job (plan partitions + circuit; workers validate and
        // re-fuse locally).
        let ship_start = Instant::now();
        {
            let _ship = hisvsim_obs::span("cluster", "ship");
            let run = WorkerCommand::Run(epoch, job.clone());
            for stream in &mut world.controls {
                send_json(stream, &run)?;
            }
        }

        // The canceller: polls the token, and once it fires ships one
        // `Cancel { epoch }` frame per rank on cloned control handles.
        // Spawned strictly after the `Run` frames, so TCP ordering
        // guarantees no worker can see the cancel before its job.
        let mut streams = Vec::with_capacity(world.controls.len());
        for stream in &world.controls {
            streams.push(stream.try_clone()?);
        }
        let done = AtomicBool::new(false);
        let gathered = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if cancel.is_cancelled() {
                        for stream in &mut streams {
                            let _ = send_json(stream, &WorkerCommand::Cancel(epoch));
                        }
                        return;
                    }
                    std::thread::sleep(CANCEL_POLL);
                }
            });
            let gathered = world.gather(epoch, job.circuit.num_qubits());
            done.store(true, Ordering::Release);
            gathered
        })?;

        let wall = ship_start.elapsed().as_secs_f64();
        log::info(
            LOG_TARGET,
            "job complete",
            &[
                ("epoch", &epoch.to_string()),
                ("workers", &self.workers.to_string()),
                ("circuit", &job.circuit.name),
                ("wall_s", &format!("{wall:.3}")),
            ],
        );
        // A single-level plan on a world of ranks is dist; the runner
        // renames a hier job's report.
        Ok(aggregate_outcomes(
            "dist",
            "process",
            &job.circuit,
            job.plan.num_parts(),
            gathered,
            wall,
            perm,
        ))
    }

    /// Spawn the worker processes and run the rendezvous, returning a fresh
    /// resident [`World`] whose first `Run` carries `epoch`. The elapsed
    /// launch time is accounted in [`WorkerPool::metrics`] — deliberately
    /// *not* in any job's wall time (jobs are timed ship-to-gather only).
    fn spawn_world(&self, epoch: u64) -> Result<World, NetError> {
        let launch_start = Instant::now();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let control_addr = listener.local_addr()?.to_string();
        log::info(
            LOG_TARGET,
            "spawning worker world",
            &[
                ("workers", &self.workers.to_string()),
                ("control", &control_addr),
                ("base_epoch", &epoch.to_string()),
            ],
        );
        let mut guard = ChildGuard::new();
        {
            let _launch =
                hisvsim_obs::span("cluster", "launch").detail(format!("{} workers", self.workers));
            for rank in 0..self.workers {
                let child = Command::new(&self.worker_bin)
                    .arg("worker")
                    .arg(&control_addr)
                    .arg(rank.to_string())
                    .stdin(Stdio::null())
                    .spawn()?;
                guard.children.push((rank, child));
            }
        }

        // Rendezvous: collect every worker's hello (rank + data address),
        // then ship each the world layout once.
        let rendezvous = hisvsim_obs::span("cluster", "rendezvous");
        let deadline = Instant::now() + self.handshake_timeout;
        let mut controls: Vec<Option<(TcpStream, String)>> =
            (0..self.workers).map(|_| None).collect();
        for _ in 0..self.workers {
            let mut stream = accept_with_deadline(&listener, deadline, &mut guard)?;
            stream.set_nodelay(true)?;
            let hello: WorkerHello = recv_json(&mut stream)?;
            if hello.rank >= self.workers || controls[hello.rank].is_some() {
                return Err(NetError::Protocol(format!(
                    "unexpected hello from rank {}",
                    hello.rank
                )));
            }
            controls[hello.rank] = Some((stream, hello.data_addr));
        }
        let mut controls: Vec<(TcpStream, String)> = controls
            .into_iter()
            .map(|c| c.expect("all checked in"))
            .collect();
        let peers: Vec<String> = controls.iter().map(|(_, addr)| addr.clone()).collect();
        for (rank, (stream, _)) in controls.iter_mut().enumerate() {
            send_json(
                stream,
                &LaunchSpec {
                    rank,
                    size: self.workers,
                    peers: peers.clone(),
                    epoch,
                },
            )?;
        }
        drop(rendezvous);

        let launch_s = launch_start.elapsed().as_secs_f64();
        self.metrics.worlds_spawned.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .launch_micros_total
            .fetch_add((launch_s * 1e6) as u64, Ordering::Relaxed);
        log::debug(
            LOG_TARGET,
            "worker world resident",
            &[
                ("workers", &self.workers.to_string()),
                ("launch_s", &format!("{launch_s:.3}")),
            ],
        );
        Ok(World {
            guard,
            controls: controls.into_iter().map(|(stream, _)| stream).collect(),
        })
    }

    /// Tear the resident world down cleanly: ship every rank a `Shutdown`
    /// frame, give them `SHUTDOWN_GRACE` to exit, then kill any
    /// stragglers. Idempotent; the next job after a shutdown simply
    /// respawns the world.
    pub fn shutdown(&self) {
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        let Some(mut world) = inner.world.take() else {
            return;
        };
        log::info(
            LOG_TARGET,
            "shutting worker world down",
            &[("workers", &world.controls.len().to_string())],
        );
        for stream in &mut world.controls {
            let _ = send_json(stream, &WorkerCommand::Shutdown);
        }
        if !world
            .guard
            .wait_all_with_deadline(Instant::now() + SHUTDOWN_GRACE)
        {
            log::warn(LOG_TARGET, "workers ignored shutdown; killing them", &[]);
        }
        // ChildGuard::drop reaps (and kills, if needed) the children.
    }
}

impl World {
    /// Gather per-rank reports and, on success, the slices of an `n`-qubit
    /// state under the one layout every rank reports: rank `r`'s slice of
    /// `2^l` amplitudes is read straight into `[r << l, (r + 1) << l)` of
    /// one state-sized buffer from the pool, so the launcher stages no
    /// slice and copies none. A unanimous cancel is [`NetError::Cancelled`].
    /// Before each blocking read, wait for readability while polling worker
    /// liveness — a crashed worker fails the gather promptly instead of
    /// wedging the pool on a stream that will never produce bytes.
    fn gather(&mut self, epoch: u64, n: usize) -> Result<Gathered, NetError> {
        let _gather = hisvsim_obs::span("cluster", "gather");
        let ranks = self.controls.len();
        let amp_count = 1 << n.saturating_sub(ranks.trailing_zeros() as usize);
        let mut figures: Vec<RankFigures> = Vec::with_capacity(ranks);
        // Taken at the first slice, so a cancelled job takes none.
        let mut amplitudes: Option<Vec<Complex64>> = None;
        let mut cancelled_ranks = 0usize;
        for (rank, stream) in self.controls.iter_mut().enumerate() {
            await_readable(stream, &mut self.guard)?;
            let report: RankReport = recv_json(stream)?;
            if report.rank != rank {
                return Err(NetError::Protocol(format!(
                    "rank {rank}'s control channel reported rank {}",
                    report.rank
                )));
            }
            if report.epoch != epoch {
                return Err(NetError::Protocol(format!(
                    "rank {rank} answered epoch {} to a job at epoch {epoch}",
                    report.epoch
                )));
            }
            match report.status {
                RankStatus::Ok => {}
                RankStatus::Cancelled => {
                    cancelled_ranks += 1;
                    continue;
                }
                RankStatus::Failed(message) => {
                    return Err(NetError::Worker(format!("rank {rank}: {message}")));
                }
            }
            // The length came off the wire: check it before allocating.
            if report.amp_count != amp_count {
                return Err(NetError::Protocol(format!(
                    "rank {rank} announced {} amplitudes for a slice of {amp_count}",
                    report.amp_count
                )));
            }
            // So did the layout the slices are assembled under.
            if !is_permutation(&report.layout, n) {
                return Err(NetError::Protocol(format!(
                    "rank {rank} reported layout {:?}, not a permutation of 0..{n}",
                    report.layout
                )));
            }
            if let Some(first) = figures
                .first()
                .filter(|first| first.layout != report.layout)
            {
                return Err(NetError::Protocol(format!(
                    "rank {rank} reported layout {:?}, rank {} {:?}",
                    report.layout, first.rank, first.layout
                )));
            }
            let amps = amplitudes.get_or_insert_with(|| {
                let mut amps = buffers::take(amp_count * ranks);
                amps.resize(amp_count * ranks, Complex64::ZERO);
                amps
            });
            let tag = read_items_frame_into(stream, &mut amps[rank * amp_count..][..amp_count])?;
            if tag != AMPS_TAG {
                return Err(NetError::Protocol(format!(
                    "expected the amplitude frame, got tag {tag:#x}"
                )));
            }
            // Splice the worker's spans into the pool's timeline, one
            // process lane per rank (`pid = rank + 1`; the pool is 0).
            for mut span in report.spans {
                span.pid = rank as u32 + 1;
                hisvsim_obs::record(span);
            }
            log::debug(
                LOG_TARGET,
                "rank gathered",
                &[
                    ("rank", &rank.to_string()),
                    ("epoch", &epoch.to_string()),
                    ("amps", &report.amp_count.to_string()),
                    ("exchanges", &report.exchanges.to_string()),
                    ("compute_s", &format!("{:.3}", report.compute_time_s)),
                    ("comm_wall_s", &format!("{:.3}", report.comm.wall_time_s)),
                    ("bytes_sent", &report.comm.bytes_sent.to_string()),
                    ("messages_sent", &report.comm.messages_sent.to_string()),
                ],
            );
            figures.push(RankFigures {
                rank,
                compute_time_s: report.compute_time_s,
                comm: report.comm,
                exchanges: report.exchanges,
                layout: report.layout,
            });
        }
        match cancelled_ranks {
            0 => Ok(Gathered {
                ranks: figures,
                amplitudes: amplitudes.expect("every rank sent its slice"),
            }),
            all if all == ranks => Err(NetError::Cancelled),
            // The cancel vote guarantees unanimity; a split means the
            // protocol was violated somewhere.
            some => Err(NetError::Protocol(format!(
                "{some}/{ranks} ranks cancelled while the rest completed"
            ))),
        }
    }
}

/// Whether `layout` puts `n` qubits on `n` distinct positions below `n`.
fn is_permutation(layout: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    layout.len() == n
        && layout
            .iter()
            .all(|&pos| pos < n && !std::mem::replace(&mut seen[pos], true))
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ProcessBackend for WorkerPool {
    fn ranks(&self) -> usize {
        self.workers
    }

    fn execute(
        &self,
        request: ProcessRequest<'_>,
        cancel: &CancelToken,
    ) -> Result<(StateVector, RunReport), ProcessError> {
        let job = ShippedJob {
            circuit: request.circuit.clone(),
            dispatch: request.dispatch,
            plan: request.plan,
            trace: hisvsim_obs::enabled(),
        };
        WorkerPool::execute(self, &job, Some(request.perm), cancel).map_err(|e| match e {
            NetError::Cancelled => ProcessError::Cancelled,
            e => ProcessError::Failed(e.to_string()),
        })
    }

    fn shutdown(&self) {
        WorkerPool::shutdown(self);
    }

    fn pool_stats(&self) -> Option<ProcessPoolStats> {
        Some(self.metrics())
    }
}

/// Kills any still-running children on drop, so a failed launch (or a
/// dropped pool) never leaves orphan workers behind.
struct ChildGuard {
    children: Vec<(usize, Child)>,
}

impl ChildGuard {
    fn new() -> Self {
        Self {
            children: Vec::new(),
        }
    }

    /// A worker that already exited with failure, if any (non-blocking).
    fn any_failed(&mut self) -> Option<String> {
        for (rank, child) in &mut self.children {
            if let Ok(Some(status)) = child.try_wait() {
                if !status.success() {
                    return Some(format!("worker rank {rank} exited with {status}"));
                }
            }
        }
        None
    }

    /// The operating-system process ids of the live children (for tests
    /// that kill a worker mid-job).
    fn pids(&self) -> Vec<u32> {
        self.children.iter().map(|(_, child)| child.id()).collect()
    }

    /// Poll until every child has exited (any status) or the deadline
    /// passes; returns whether all exited. Leftovers are killed by drop.
    fn wait_all_with_deadline(&mut self, deadline: Instant) -> bool {
        loop {
            let all_done = self
                .children
                .iter_mut()
                .all(|(_, child)| matches!(child.try_wait(), Ok(Some(_))));
            if all_done {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Block until `stream` has readable bytes (or EOF), polling worker
/// liveness every half second so a crashed worker turns into a prompt
/// [`NetError::Worker`] instead of an indefinite blocking read. `peek`
/// consumes nothing, so the frame reader's byte accounting is untouched.
/// A worker that is alive but wedged still blocks — the launch-level
/// `timeout` guard in CI (and the transport's deadlock-free collectives)
/// are the lines of defence there.
fn await_readable(stream: &TcpStream, guard: &mut ChildGuard) -> Result<(), NetError> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut probe = [0u8; 1];
    let result = loop {
        match stream.peek(&mut probe) {
            // Readable data or EOF: hand off to the real reader (EOF
            // surfaces there as UnexpectedEof with the rank attached).
            Ok(_) => break Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(failure) = guard.any_failed() {
                    log::error(
                        LOG_TARGET,
                        "worker died during gather",
                        &[("error", &failure)],
                    );
                    break Err(NetError::Worker(failure));
                }
            }
            Err(e) => break Err(e.into()),
        }
    };
    stream.set_read_timeout(None)?;
    result
}

/// Accept one connection, polling so a crashed worker fails the launch
/// promptly instead of hanging the accept loop forever.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
    guard: &mut ChildGuard,
) -> Result<TcpStream, NetError> {
    listener.set_nonblocking(true)?;
    let result = loop {
        match listener.accept() {
            Ok((stream, _)) => break Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(failure) = guard.any_failed() {
                    log::error(
                        LOG_TARGET,
                        "worker died during rendezvous",
                        &[("error", &failure)],
                    );
                    break Err(NetError::Worker(failure));
                }
                if Instant::now() > deadline {
                    log::error(LOG_TARGET, "rendezvous timed out", &[]);
                    break Err(NetError::Protocol(
                        "timed out waiting for workers to check in".to_string(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => break Err(e.into()),
        }
    };
    listener.set_nonblocking(false)?;
    let stream = result?;
    stream.set_nonblocking(false)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{items_as_wire_bytes, write_frame};

    /// Rank `rank`'s report, as a worker sends it after a job at epoch 7.
    fn report(rank: usize, amp_count: usize, layout: Vec<usize>) -> RankReport {
        RankReport {
            rank,
            epoch: 7,
            status: RankStatus::Ok,
            compute_time_s: 0.0,
            comm: Default::default(),
            exchanges: 0,
            layout,
            amp_count,
            spans: Vec::new(),
        }
    }

    /// What rank `r` writes to its control stream: `writes[r]`.
    type Write<'a> = Box<dyn FnOnce(&mut TcpStream) + 'a>;

    /// Gather the answer of a world of `writes.len()` ranks for a job of
    /// `qubits` qubits, each rank having written its part and hung up.
    fn gather_from(writes: Vec<Write<'_>>, qubits: usize) -> Result<Gathered, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
        let mut controls = Vec::new();
        for write in writes {
            let mut stream =
                TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
            let (control, _) = listener.accept().expect("accept");
            write(&mut stream);
            controls.push(control);
        }
        let mut world = World {
            guard: ChildGuard::new(),
            controls,
        };
        world.gather(7, qubits)
    }

    /// A rank that sends `report` and, after it, `amps`.
    fn answers<'a>(report: RankReport, amps: &'a [Complex64]) -> Write<'a> {
        Box::new(move |stream| {
            send_json(stream, &report).unwrap();
            write_frame(stream, AMPS_TAG, &items_as_wire_bytes(amps)).unwrap();
        })
    }

    fn numbered(len: usize) -> Vec<Complex64> {
        (0..len).map(|i| Complex64::new(i as f64, 0.5)).collect()
    }

    #[test]
    fn a_report_announcing_another_slice_length_is_refused_before_allocating() {
        let amps = numbered(1024);
        let honest = gather_from(vec![answers(report(0, 1024, (0..10).collect()), &amps)], 10);
        let Ok(gathered) = honest else {
            panic!("an honest report is gathered");
        };
        assert_eq!(gathered.amplitudes, amps);

        // 2^40 amplitudes would be a 16 TiB buffer: refused from the report
        // alone, with no frame read and nothing allocated.
        let lying = report(0, 1 << 40, (0..10).collect());
        let lying = gather_from(vec![Box::new(|s| send_json(s, &lying).unwrap())], 10);
        let Err(NetError::Protocol(message)) = lying else {
            panic!("a lying report must be a protocol error");
        };
        assert!(
            message.contains("announced 1099511627776 amplitudes"),
            "{message}"
        );
    }

    #[test]
    fn a_layout_that_is_no_permutation_or_not_the_others_is_refused_before_the_amplitudes() {
        // Each lying rank sends its report and hangs up without the
        // amplitude frame: reading it would fail as I/O, not as protocol.
        let lies = |layout: Vec<usize>| -> Write<'static> {
            let report = report(0, 1024, layout);
            Box::new(move |stream| send_json(stream, &report).unwrap())
        };
        let mut repeated: Vec<usize> = (0..10).collect();
        repeated[9] = 8;
        for layout in [repeated, (0..9).collect(), (1..11).collect()] {
            let Err(NetError::Protocol(message)) = gather_from(vec![lies(layout)], 10) else {
                panic!("a foreign layout must be a protocol error");
            };
            assert!(message.contains("not a permutation of 0..10"), "{message}");
        }

        // Two ranks, each layout a permutation, but not the same one.
        let amps = numbered(512);
        let mut swapped: Vec<usize> = (0..10).collect();
        swapped.swap(0, 9);
        let honest = answers(report(0, 512, swapped.clone()), &amps);
        let other = report(1, 512, (0..10).collect());
        let other: Write<'_> = Box::new(move |stream| send_json(stream, &other).unwrap());
        let Err(NetError::Protocol(message)) = gather_from(vec![honest, other], 10) else {
            panic!("ranks in different layouts must be a protocol error");
        };
        assert!(message.contains("rank 1 reported layout"), "{message}");

        // The same layout on both is gathered, and carried.
        let both = vec![
            answers(report(0, 512, swapped.clone()), &amps),
            answers(report(1, 512, swapped.clone()), &amps),
        ];
        let gathered = gather_from(both, 10).expect("one layout on every rank");
        assert!(gathered.ranks.iter().all(|rank| rank.layout == swapped));
    }

    #[test]
    fn each_ranks_frame_lands_at_its_slice_of_the_state() {
        // Two ranks of a 10-qubit state, 2^9 amplitudes each: rank r's
        // frame is read into [r << 9, (r + 1) << 9) of one buffer.
        let l = 9;
        let slices: Vec<Vec<Complex64>> = (0..2)
            .map(|r| {
                (0..1 << l)
                    .map(|i| Complex64::new(r as f64, i as f64))
                    .collect()
            })
            .collect();
        let writes = (0..2)
            .map(|r| answers(report(r, 1 << l, (0..10).collect()), &slices[r]))
            .collect();
        let gathered = gather_from(writes, 10).expect("two honest ranks");
        assert_eq!(gathered.amplitudes.len(), 1 << 10);
        for (r, slice) in slices.iter().enumerate() {
            assert_eq!(
                &gathered.amplitudes[r << l..(r + 1) << l],
                &slice[..],
                "rank {r}"
            );
        }
        let ranks: Vec<usize> = gathered.ranks.iter().map(|rank| rank.rank).collect();
        assert_eq!(ranks, [0, 1]);
    }
}
