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
//! * [`tcp`] — [`TcpComm`]: the full-mesh TCP transport behind `RankComm`
//!   (rendezvous handshake, per-peer tag stash, chunked pairwise swap; the
//!   collectives and their [`CommStats`](hisvsim_cluster::CommStats)
//!   accounting are the trait's own),
//! * [`proto`] — the pool↔worker control protocol: an epoch-tagged
//!   [`WorkerCommand`] stream over a persistent channel; [`ShippedJob`]
//!   carries only what decides the result — the circuit, the kernel
//!   dispatch and the partition in its
//!   [`PersistedPlan`](hisvsim_runtime::PersistedPlan) wire shape (fused
//!   matrices never travel, workers re-fuse locally),
//! * [`worker`] — the `hisvsim-net worker` process body: a resident
//!   command loop running the one rank body the in-process world runs
//!   (`run_plan_rank`) over the partition it validates and fuses per job,
//!   with a warm buffer pool; and
//!   [`execute_local_reference`], the same body on threads,
//! * [`pool`] — [`WorkerPool`]: spawn N workers **once**, then ship `Run`
//!   frames and gather slices and stats per job through one entry point,
//!   [`WorkerPool::execute`], with mid-sweep cooperative cancellation
//!   (`Cancel { epoch }` → a cancel *vote* across the ranks) and one
//!   failure path (the world is dropped and respawned); implements the
//!   runtime's [`ProcessBackend`](hisvsim_runtime::ProcessBackend) so a
//!   [`SimJob`](hisvsim_runtime::SimJob) can request
//!   [`Backend::Process`](hisvsim_runtime::Backend::Process). The launch
//!   plumbing (worker-binary discovery, child-process guard,
//!   liveness-aware socket helpers) lives there too.
//!
//! Because every transport implements one trait and the rank body is
//! shared, a process-backed run is **bit-identical** to the in-process run
//! of the same plan — the acceptance bar the `smoke` subcommand checks.

#![warn(missing_docs)]

pub mod pool;
pub mod proto;
pub mod tcp;
pub mod wire;
pub mod worker;

pub use pool::{find_worker_binary, NetError, WorkerPool};
pub use proto::{LaunchSpec, RankReport, RankStatus, ShippedJob, WorkerCommand, WorkerHello};
pub use tcp::{tcp_world, PeerLost, TcpComm};
pub use wire::WireItem;
pub use worker::{execute_local_reference, run_worker};
