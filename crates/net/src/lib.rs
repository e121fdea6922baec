//! # hisvsim-net
//!
//! The multi-process cluster transport of HiSVSIM-RS: the piece that turns
//! the virtual cluster (rank threads + channels) into real worker
//! *processes* talking over sockets, behind the same
//! [`RankComm`](hisvsim_cluster::RankComm) trait the engines are written
//! against.
//!
//! * [`wire`] — length-prefixed frames and little-endian item codecs
//!   (hand-rolled: the vendor set has no network serialization crates),
//! * [`tcp`] — [`TcpComm`]: the full-mesh TCP implementation of `RankComm`
//!   (rendezvous handshake, per-peer tag stash, gather–release barrier,
//!   the same [`CommStats`](hisvsim_cluster::CommStats) accounting),
//! * [`proto`] — the pool↔worker control protocol: an epoch-tagged
//!   [`WorkerCommand`] stream over a persistent channel; [`ShippedJob`]
//!   carries the circuit plus the partition in its
//!   [`PersistedPlan`](hisvsim_runtime::PersistedPlan) wire shape — fused
//!   matrices never travel, workers re-fuse locally,
//! * [`worker`] — the `hisvsim-net worker` process body: a resident
//!   command loop running the exact engine rank bodies the in-process
//!   world runs, with a warm plan cache and a warm buffer pool,
//! * [`pool`] — [`WorkerPool`]: spawn N workers **once**, then ship `Run`
//!   frames and gather slices and stats per job, with mid-sweep cooperative cancellation (`Cancel { epoch }`
//!   → a cancel *vote* across the ranks); implements the runtime's
//!   [`ProcessBackend`](hisvsim_runtime::ProcessBackend) so a
//!   [`SimJob`](hisvsim_runtime::SimJob) can request
//!   [`Backend::Process`](hisvsim_runtime::Backend::Process),
//! * [`launcher`] — shared launch plumbing (worker-binary discovery,
//!   child-process guard, liveness-aware socket helpers) and the
//!   in-process reference executor.
//!
//! Because every transport implements one trait and the rank bodies are
//! shared, a process-backed run is **bit-identical** to the in-process run
//! of the same plan — the acceptance bar the `smoke` subcommand checks.

#![warn(missing_docs)]

pub mod launcher;
pub mod pool;
pub mod proto;
pub mod tcp;
pub mod wire;
pub mod worker;

pub use launcher::{execute_local_reference, find_worker_binary, NetError, RankSummary};
pub use pool::WorkerPool;
pub use proto::{LaunchSpec, RankReport, RankStatus, ShippedJob, WorkerCommand, WorkerHello};
pub use tcp::{tcp_world, PeerLost, TcpComm};
pub use wire::WireItem;
pub use worker::{
    execute_shipped_rank, execute_shipped_rank_controlled, run_worker, WorkerPlanCache,
};
