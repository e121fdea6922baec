//! Edge-case conformance suite for the [`RankComm`] trait, run against
//! *both* implementations — the in-process channel world (`LocalComm`) and
//! the TCP transport (`TcpComm`) — so the two worlds cannot drift apart on
//! the corners the engines rely on: empty payloads in collectives,
//! single-rank worlds, and deep out-of-order tag stashing.

use hisvsim_cluster::{world, NetworkModel, RankComm};
use hisvsim_net::tcp_world;
use std::thread;

/// Drive every rank of a pre-built world on its own thread.
fn drive<C, F>(worlds: Vec<C>, body: F)
where
    C: RankComm<u64> + Send + 'static,
    F: Fn(&mut C) + Send + Sync + Clone + 'static,
{
    let handles: Vec<_> = worlds
        .into_iter()
        .map(|mut comm| {
            let body = body.clone();
            thread::spawn(move || {
                body(&mut comm);
                comm.stats()
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("a rank thread panicked");
    }
}

fn empty_payload_collectives_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) {
    drive(worlds, |comm| {
        // All-empty alltoallv: shapes must survive, nothing is charged.
        let send: Vec<Vec<u64>> = (0..comm.size()).map(|_| Vec::new()).collect();
        let recv = comm.alltoallv(send, 1);
        assert_eq!(recv.len(), comm.size());
        assert!(recv.iter().all(Vec::is_empty));
        assert_eq!(comm.stats().bytes_sent, 0, "empty payloads move no bytes");
        assert_eq!(comm.stats().modeled_time_s, 0.0);

        // Mixed: only even-ranked peers get data.
        let send: Vec<Vec<u64>> = (0..comm.size())
            .map(|to| {
                if to % 2 == 0 {
                    vec![comm.rank() as u64]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let recv = comm.alltoallv(send, 2);
        for (from, buf) in recv.iter().enumerate() {
            if comm.rank() % 2 == 0 {
                assert_eq!(buf, &vec![from as u64]);
            } else {
                assert!(buf.is_empty());
            }
        }

        // Empty allgather.
        let all = comm.allgather(Vec::new(), 3);
        assert_eq!(all.len(), comm.size());
        assert!(all.iter().all(Vec::is_empty));
    });
}

#[test]
fn empty_payload_collectives_local() {
    empty_payload_collectives_on(world::<u64>(4, NetworkModel::hdr100()));
}

#[test]
fn empty_payload_collectives_tcp() {
    empty_payload_collectives_on(tcp_world::<u64>(4, NetworkModel::hdr100()).unwrap());
}

fn single_rank_world_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) {
    assert_eq!(worlds.len(), 1);
    drive(worlds, |comm| {
        assert_eq!(comm.size(), 1);
        comm.barrier(); // must not block
        let recv = comm.alltoallv(vec![vec![7, 8]], 1);
        assert_eq!(recv, vec![vec![7, 8]]);
        let all = comm.allgather(vec![9], 2);
        assert_eq!(all, vec![vec![9]]);
        comm.send(0, 5, vec![42]);
        assert_eq!(comm.recv(0, 5), vec![42]);
        let stats = comm.stats();
        assert_eq!(stats.messages_sent, 0, "a lone rank never hits the wire");
        assert_eq!(stats.bytes_sent, 0);
    });
}

#[test]
fn single_rank_world_local() {
    single_rank_world_on(world::<u64>(1, NetworkModel::hdr100()));
}

#[test]
fn single_rank_world_tcp() {
    single_rank_world_on(tcp_world::<u64>(1, NetworkModel::hdr100()).unwrap());
}

fn out_of_order_stash_exhaustion_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) {
    const DEPTH: u64 = 64;
    drive(worlds, |comm| {
        let me = comm.rank();
        let size = comm.size();
        // Every rank sends DEPTH tagged messages to every peer in
        // *descending* tag order…
        for to in (0..size).filter(|&to| to != me) {
            for tag in (0..DEPTH).rev() {
                comm.send(to, tag, vec![me as u64 * 1000 + tag]);
            }
        }
        // …and receives them in *ascending* tag order, forcing the stash to
        // absorb DEPTH-1 out-of-order messages per peer before it drains.
        for from in (0..size).filter(|&from| from != me) {
            for tag in 0..DEPTH {
                assert_eq!(comm.recv(from, tag), vec![from as u64 * 1000 + tag]);
            }
        }
        comm.barrier();
    });
}

#[test]
fn out_of_order_stash_exhaustion_local() {
    out_of_order_stash_exhaustion_on(world::<u64>(4, NetworkModel::ideal()));
}

#[test]
fn out_of_order_stash_exhaustion_tcp() {
    out_of_order_stash_exhaustion_on(tcp_world::<u64>(4, NetworkModel::ideal()).unwrap());
}

fn barrier_charges_no_payload_traffic_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) {
    // LocalComm's barrier is a shared-memory Barrier and charges nothing;
    // TcpComm's gather–release control frames are an implementation detail
    // and must not show up either — otherwise comm stats of the two worlds
    // stop being comparable for the same schedule.
    drive(worlds, |comm| {
        comm.barrier();
        comm.barrier();
        let stats = comm.stats();
        assert_eq!(stats.messages_sent, 0, "barriers are not payload traffic");
        assert_eq!(stats.bytes_sent, 0);
        assert_eq!(stats.modeled_time_s, 0.0);
    });
}

#[test]
fn barrier_charges_no_payload_traffic_local() {
    barrier_charges_no_payload_traffic_on(world::<u64>(4, NetworkModel::hdr100()));
}

#[test]
fn barrier_charges_no_payload_traffic_tcp() {
    barrier_charges_no_payload_traffic_on(tcp_world::<u64>(4, NetworkModel::hdr100()).unwrap());
}

fn collective_wall_time_is_charged_on<C: RankComm<u64> + Send + 'static>(mut worlds: Vec<C>) {
    // Rank 1 enters the collective late; rank 0 must charge its blocking
    // wait inside alltoallv to wall_time_s (the comm_ratio honesty fix).
    let mut r1 = worlds.pop().unwrap();
    let mut r0 = worlds.pop().unwrap();
    let late = thread::spawn(move || {
        thread::sleep(std::time::Duration::from_millis(200));
        r1.alltoallv(vec![vec![1], vec![2]], 4);
        r1.stats()
    });
    let recv = r0.alltoallv(vec![vec![3], vec![4]], 4);
    assert_eq!(recv, vec![vec![3], vec![1]]);
    assert!(
        r0.stats().wall_time_s >= 0.1,
        "rank 0 blocked ~200ms inside the collective but charged only {}s",
        r0.stats().wall_time_s
    );
    late.join().unwrap();
}

#[test]
fn collective_wall_time_is_charged_local() {
    collective_wall_time_is_charged_on(world::<u64>(2, NetworkModel::ideal()));
}

#[test]
fn collective_wall_time_is_charged_tcp() {
    collective_wall_time_is_charged_on(tcp_world::<u64>(2, NetworkModel::ideal()).unwrap());
}

fn vote_any_agrees_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) {
    drive(worlds, |comm| {
        // Unanimous no.
        assert!(!comm.vote_any(false));
        // One dissenting rank flips everyone.
        assert!(comm.vote_any(comm.rank() == comm.size() - 1));
        // Unanimous yes.
        assert!(comm.vote_any(true));
        // Back to no: the epoch counter keeps rounds apart, so a fresh
        // round is not contaminated by earlier vote frames.
        assert!(!comm.vote_any(false));
        // Like barriers, votes are control traffic, not payload traffic:
        // the rank bodies vote at every checkpoint, and the bytes and
        // messages they report must stay the schedule's own.
        let stats = comm.stats();
        assert_eq!(stats.messages_sent, 0, "votes are not payload traffic");
        assert_eq!(stats.bytes_sent, 0);
        assert_eq!(stats.modeled_time_s, 0.0);
    });
}

#[test]
fn vote_any_agrees_local() {
    vote_any_agrees_on(world::<u64>(4, NetworkModel::hdr100()));
}

#[test]
fn vote_any_agrees_tcp() {
    vote_any_agrees_on(tcp_world::<u64>(4, NetworkModel::hdr100()).unwrap());
}

#[test]
fn vote_any_single_rank_is_its_own_majority() {
    drive(world::<u64>(1, NetworkModel::hdr100()), |comm| {
        assert!(comm.vote_any(true));
        assert!(!comm.vote_any(false));
        assert_eq!(comm.stats().messages_sent, 0);
    });
}
