//! Control-channel protocol between the worker pool and its workers.
//!
//! Everything on the control channel is a JSON frame (see
//! [`crate::wire`]), except each job's amplitude slice, which follows the
//! worker's [`RankReport`] as one raw little-endian frame tagged
//! [`AMPS_TAG`]. The shipped plan is exactly the plan-cache snapshot shape
//! ([`PersistedPlan`]): partitions travel, fused matrices never do —
//! workers re-fuse locally, keeping the fused form process-local by design.
//!
//! The channel is *persistent*: after the one-time rendezvous
//! ([`WorkerHello`] up, [`LaunchSpec`] down), the pool streams
//! [`WorkerCommand`] frames — `Run { epoch, job }` per job,
//! `Cancel { epoch }` to cooperatively stop a running job mid-sweep, and
//! an explicit `Shutdown` for a clean exit. Every job is tagged with a
//! monotonically increasing epoch so a late cancel can never kill the
//! wrong job, and every [`RankReport`] echoes its epoch back.

use hisvsim_circuit::Circuit;
use hisvsim_cluster::{CommStats, NetworkModel};
use hisvsim_obs::SpanRecord;
use hisvsim_runtime::{KernelDispatch, PersistedPlan};
use serde::{Deserialize, Serialize};

/// Tag of the raw amplitude-slice frame a worker sends after its report.
pub const AMPS_TAG: u64 = 0x414D_5053_0000_0001;

/// The job the pool ships to every worker: the circuit and the partition
/// plan in its wire shape — exactly what decides the result. Every worker
/// re-fuses the partition at [`hisvsim_statevec::DEFAULT_FUSION_WIDTH`]:
/// fusion is deterministic, so every rank derives the identical fused
/// schedule independently, and the fused matrices never travel. The plan's
/// shape and the world size alone decide the schedule the one rank body
/// walks (`FusedPlan::schedule`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShippedJob {
    /// The circuit to simulate.
    pub circuit: Circuit,
    /// Kernel dispatch every rank applies to its local sweeps.
    pub dispatch: KernelDispatch,
    /// The partition to execute ([`PersistedPlan::Single`] for hier/dist,
    /// [`PersistedPlan::Two`] for multilevel).
    pub plan: PersistedPlan,
    /// When true, workers enable their span recorder and ship the buffered
    /// spans back in [`RankReport::spans`], so the pool can merge every
    /// rank into one timeline.
    pub trace: bool,
}

impl ShippedJob {
    /// Number of (first-level) parts the shipped plan executes.
    pub fn num_parts(&self) -> usize {
        match &self.plan {
            PersistedPlan::Single(partition) => partition.num_parts(),
            PersistedPlan::Two(ml) => ml.num_first_level_parts(),
        }
    }

    /// The engine name a report of this job carries, read off the plan's
    /// shape: a single-level plan on a multi-rank world is `dist`.
    pub(crate) fn engine_name(&self) -> &'static str {
        match &self.plan {
            PersistedPlan::Single(_) => "dist",
            PersistedPlan::Two(_) => "multilevel",
        }
    }
}

/// First message on a worker's control connection: which rank it is and
/// where its data-plane listener lives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerHello {
    /// The rank assigned on the worker's command line.
    pub rank: usize,
    /// The worker's rendezvous listener address (`127.0.0.1:port`).
    pub data_addr: String,
}

/// The pool's reply once every worker has checked in: the world layout.
/// Sent exactly once per worker world — jobs follow as
/// [`WorkerCommand::Run`] frames on the same (persistent) connection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaunchSpec {
    /// The receiving worker's rank (echoed for sanity checking).
    pub rank: usize,
    /// World size (a power of two).
    pub size: usize,
    /// Every rank's data-plane address, indexed by rank.
    pub peers: Vec<String>,
    /// Interconnect model for per-transfer accounting.
    pub network: NetworkModel,
    /// The job epoch the first `Run` on this world will carry. Epochs are
    /// pool-global and monotonically increasing, so a world respawned
    /// after a failure never reuses an epoch a stale frame could match.
    pub epoch: u64,
}

/// One control frame from the pool to a resident worker. (Tuple variants:
/// the vendored serde stub derive has no struct-variant support.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkerCommand {
    /// `Run(epoch, job)`: execute the job under the given epoch; the
    /// worker answers with a [`RankReport`] echoing it (plus the amplitude
    /// frame on success).
    Run(u64, ShippedJob),
    /// `Cancel(epoch)`: cooperatively cancel the job with this epoch
    /// (ignored if that job already finished — a late cancel can never
    /// kill a later job). The worker's rank body observes it at its next
    /// cancel-vote checkpoint.
    Cancel(u64),
    /// Exit cleanly after the current job (if any) reports.
    Shutdown,
}

/// How one rank's execution of one job ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankStatus {
    /// The rank finished; its amplitude frame follows the report.
    Ok,
    /// All ranks agreed to cancel at a vote checkpoint; the mesh is clean
    /// and the worker stays resident. No amplitude frame follows.
    Cancelled,
    /// The rank body failed (peer loss or a panic), or the shipped plan does
    /// not validate; the mesh state is undefined, the worker exits after
    /// reporting, and the pool respawns the world. No amplitude frame
    /// follows.
    Failed(String),
}

/// A worker's per-job result header; on [`RankStatus::Ok`] the amplitude
/// slice follows as a raw [`AMPS_TAG`] frame of `amp_count × 16` bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankReport {
    /// The reporting rank.
    pub rank: usize,
    /// Epoch of the job this report answers (echoed for sanity checking).
    pub epoch: u64,
    /// How this rank's execution ended.
    pub status: RankStatus,
    /// Wall-clock seconds this rank spent applying gates.
    pub compute_time_s: f64,
    /// The rank's communication statistics over the TCP world.
    pub comm: CommStats,
    /// Number of state redistributions this rank participated in.
    pub exchanges: usize,
    /// The layout the rank's slice is in (`layout[q]` = bit position of
    /// qubit `q`), the same on every rank; empty unless the rank finished.
    pub layout: Vec<usize>,
    /// Amplitudes in the raw frame that follows.
    pub amp_count: usize,
    /// This rank's buffered trace spans (empty unless
    /// [`ShippedJob::trace`] was set). `pid`/`tid` are worker-local; the
    /// pool re-lanes them to `pid = rank + 1` when merging.
    pub spans: Vec<SpanRecord>,
}
