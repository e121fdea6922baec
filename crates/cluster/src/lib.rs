//! # hisvsim-cluster
//!
//! The virtual-MPI substrate of HiSVSIM-RS.
//!
//! The paper evaluates HiSVSIM on up to 256 Frontera nodes over InfiniBand
//! HDR-100 with MPI. This reproduction has one machine, so the distributed
//! engines run on a *virtual cluster*: every MPI rank becomes a thread that
//! owns its slice of the state vector, communication moves real data through
//! lock-free channels (so the exchange pattern and volume are exact), and
//! the [`RankComm`] trait counts every transfer once, whichever transport
//! moved the bytes. A latency–bandwidth [`NetworkModel`] prices those counts
//! after the run ([`NetworkModel::time`]): the wire time they would have
//! cost on the real fabric. The README section "Reproducing the
//! paper's artifacts" gives the substitution argument (the modelled network
//! is slowed so a one-thread rank keeps the paper's communication-to-
//! computation balance).
//!
//! * [`netmodel`] — the α–β interconnect model (HDR-100 constants
//!   included), one pure function of a rank's [`CommStats`],
//! * [`comm`] — the [`RankComm`] trait: a transport supplies tagged
//!   post/take primitives, and the trait writes the collectives (send/recv,
//!   barrier, vote, alltoallv, allgather, allreduce) and their per-rank
//!   [`CommStats`] accounting once — its in-process implementation is
//!   [`LocalComm`], and the `hisvsim-net` crate adds `TcpComm`, the
//!   multi-process transport over sockets,
//! * [`spmd`] — [`run_spmd`]: the `mpirun` stand-in running one closure per
//!   rank on scoped threads.
//!
//! ## Example
//!
//! ```
//! use hisvsim_cluster::{run_spmd, NetworkModel, RankComm, ScalarComm};
//!
//! // Sum the rank ids with an all-reduce over 4 virtual ranks.
//! let sums = run_spmd::<f64, _, _>(4, NetworkModel::ideal(), |mut comm| {
//!     comm.allreduce_sum(comm.rank() as f64, 0)
//! });
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

#![warn(missing_docs)]

pub mod comm;
pub mod netmodel;
pub mod spmd;

pub use comm::{world, CommStats, Endpoint, LocalComm, RankComm, ScalarComm};
pub use netmodel::NetworkModel;
pub use spmd::run_spmd;
