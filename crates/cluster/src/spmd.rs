//! The SPMD harness: run the same closure on every virtual rank, each on its
//! own OS thread (a world of one runs on the caller's), and collect the
//! per-rank return values.
//!
//! This is the reproduction's stand-in for `mpirun`: the distributed engines
//! in `hisvsim-core` pass a closure that owns one rank's slice of the state
//! vector and communicates through the [`LocalComm`]
//! handed to it. The multi-process equivalent is `hisvsim-net`'s
//! `WorkerPool`, which drives the same engine bodies over `TcpComm`.

use crate::comm::{world, LocalComm};
use crate::netmodel::NetworkModel;
use std::thread;

/// Run `body` once per rank on `num_ranks` threads and return the per-rank
/// results in rank order. A world of one has nobody to run beside, so its
/// body runs on the calling thread: no spawn, no join.
///
/// `num_ranks` must be a power of two — the same constraint the paper's
/// distributed design imposes on the MPI world size (Sec. III-D).
///
/// `_network` is not read: a world only counts its messages, and
/// [`NetworkModel::time`] prices them after the run. The parameter stays
/// because the benchmark adapter calls this function with it; it goes when
/// the adapter next changes (ROADMAP item 12a).
pub fn run_spmd<T, R, F>(num_ranks: usize, _network: NetworkModel, body: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send,
    F: Fn(LocalComm<T>) -> R + Sync,
{
    assert!(num_ranks > 0, "need at least one rank");
    assert!(
        num_ranks.is_power_of_two(),
        "the distributed layout requires a power-of-two rank count, got {num_ranks}"
    );
    let mut comms = world::<T>(num_ranks);
    if num_ranks == 1 {
        let comm = comms.pop().expect("a world of one has one comm");
        return vec![body(comm)];
    }
    let body = &body;
    thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(move || body(comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RankComm;

    #[test]
    fn every_rank_runs_and_returns_in_order() {
        let results: Vec<usize> =
            run_spmd::<u8, _, _>(8, NetworkModel::ideal(), |comm| comm.rank() * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn ranks_can_communicate_inside_the_harness() {
        // Ring shift: rank r sends its id to (r+1) % size.
        let results: Vec<usize> = run_spmd::<usize, _, _>(4, NetworkModel::ideal(), |mut comm| {
            let to = (comm.rank() + 1) % comm.size();
            let from = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(to, 1, vec![comm.rank()]);
            comm.recv(from, 1)[0]
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn closures_can_borrow_shared_read_only_data() {
        let shared = vec![10usize, 20, 30, 40];
        let results: Vec<usize> =
            run_spmd::<u8, _, _>(4, NetworkModel::ideal(), |comm| shared[comm.rank()]);
        assert_eq!(results, shared);
    }

    #[test]
    fn a_world_of_one_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids =
            |ranks| run_spmd::<u8, _, _>(ranks, NetworkModel::ideal(), |_| thread::current().id());
        assert_eq!(ids(1), vec![caller]);
        for ranks in [2usize, 4] {
            let ids = ids(ranks);
            assert_eq!(ids.len(), ranks);
            assert!(!ids.contains(&caller), "{ranks} ranks");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), ranks, "one thread per rank");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rank_count_is_rejected() {
        let _ = run_spmd::<u8, _, _>(3, NetworkModel::ideal(), |c| c.rank());
    }
}
