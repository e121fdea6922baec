//! Edge-case conformance suite for the [`RankComm`] trait, run against
//! *both* implementations — the in-process channel world (`LocalComm`) and
//! the TCP transport (`TcpComm`) — so the two worlds cannot drift apart on
//! the corners the engines rely on: empty payloads in collectives,
//! single-rank worlds, deep out-of-order tag stashing, and what each call
//! adds to [`CommStats`].

use hisvsim_cluster::{world, CommStats, NetworkModel, RankComm};
use hisvsim_net::{tcp_world, TcpComm};
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
        // All-empty alltoallv: shapes must survive; each slot to a peer is
        // a message, but none carries a payload, so none pays latency.
        let peers = comm.size() as u64 - 1;
        let send: Vec<Vec<u64>> = (0..comm.size()).map(|_| Vec::new()).collect();
        let recv = comm.alltoallv(send, 1);
        assert_eq!(recv.len(), comm.size());
        assert!(recv.iter().all(Vec::is_empty));
        let stats = comm.stats();
        assert_eq!(stats.bytes_sent, 0, "empty payloads move no bytes");
        assert_eq!(stats.messages_sent, peers, "an empty slot is a message");
        assert_eq!(
            stats.payload_messages, 0,
            "an empty slot carries no payload"
        );
        assert_eq!(NetworkModel::hdr100().time(&stats), 0.0);

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
        let me = comm.rank();
        let full = (0..comm.size())
            .filter(|&to| to != me && to % 2 == 0)
            .count() as u64;
        let stats = comm.stats();
        assert_eq!(stats.messages_sent, 2 * peers);
        assert_eq!(stats.payload_messages, full, "only the full slots");
        assert_eq!(stats.bytes_sent, 8 * full);

        // Empty allgather.
        let all = comm.allgather(Vec::new(), 3);
        assert_eq!(all.len(), comm.size());
        assert!(all.iter().all(Vec::is_empty));
        let stats = comm.stats();
        assert_eq!(stats.messages_sent, 3 * peers);
        assert_eq!(stats.payload_messages, full);

        // Control traffic adds to neither count.
        comm.barrier();
        assert!(!comm.vote_any(false));
        assert_eq!(
            comm.stats(),
            CommStats {
                wall_time_s: comm.stats().wall_time_s,
                ..stats
            }
        );
    });
}

#[test]
fn empty_payload_collectives_local() {
    empty_payload_collectives_on(world::<u64>(4));
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
    single_rank_world_on(world::<u64>(1));
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
    out_of_order_stash_exhaustion_on(world::<u64>(4));
}

#[test]
fn out_of_order_stash_exhaustion_tcp() {
    out_of_order_stash_exhaustion_on(tcp_world::<u64>(4, NetworkModel::ideal()).unwrap());
}

fn barrier_charges_no_payload_traffic_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) {
    // A barrier's gather–release frames are control traffic and must not
    // show up in the stats — otherwise a schedule's reported traffic would
    // depend on how often it synchronises.
    drive(worlds, |comm| {
        comm.barrier();
        comm.barrier();
        let stats = comm.stats();
        assert_eq!(stats.messages_sent, 0, "barriers are not payload traffic");
        assert_eq!(stats.payload_messages, 0);
        assert_eq!(stats.bytes_sent, 0);
        // Nor around payload traffic: a barrier after a send adds nothing.
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 5, vec![1, 2]);
        assert_eq!(comm.recv(prev, 5), vec![1, 2]);
        let sent = comm.stats();
        assert_eq!((sent.messages_sent, sent.payload_messages), (1, 1));
        comm.barrier();
        let after = comm.stats();
        assert_eq!(
            after,
            CommStats {
                wall_time_s: after.wall_time_s,
                ..sent
            }
        );
    });
}

#[test]
fn barrier_charges_no_payload_traffic_local() {
    barrier_charges_no_payload_traffic_on(world::<u64>(4));
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
    collective_wall_time_is_charged_on(world::<u64>(2));
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
        assert_eq!(stats.payload_messages, 0);
        assert_eq!(stats.bytes_sent, 0);
    });
}

#[test]
fn vote_any_agrees_local() {
    vote_any_agrees_on(world::<u64>(4));
}

#[test]
fn vote_any_agrees_tcp() {
    vote_any_agrees_on(tcp_world::<u64>(4, NetworkModel::hdr100()).unwrap());
}

#[test]
fn vote_any_single_rank_is_its_own_majority() {
    drive(world::<u64>(1), |comm| {
        assert!(comm.vote_any(true));
        assert!(!comm.vote_any(false));
        assert_eq!(comm.stats().messages_sent, 0);
    });
}

/// One scripted rank body touching every charged path: point-to-point sends
/// (one to self, two read out of order), an uneven `alltoallv` (empty, self
/// and multi-chunk slots), an `allgather`, then a vote with each flag and a
/// barrier, which must leave bytes and messages as they were.
fn charge_script<C: RankComm<u64>>(comm: &mut C) {
    let (me, size) = (comm.rank(), comm.size());
    let (next, prev) = ((me + 1) % size, (me + size - 1) % size);
    comm.send(next, 10, vec![me as u64; me + 1]);
    comm.send(me, 11, vec![7; 3]);
    comm.send(prev, 13, vec![13; 2]);
    comm.send(prev, 12, vec![12; 5]);
    assert_eq!(comm.recv(me, 11), vec![7; 3]);
    assert_eq!(comm.recv(prev, 10), vec![prev as u64; prev + 1]);
    assert_eq!(comm.recv(next, 12), vec![12; 5]);
    assert_eq!(comm.recv(next, 13), vec![13; 2]);

    // 0, 10 000 or 20 000 items a slot: empty, within and past one chunk.
    let slot =
        |from: usize, to: usize| vec![(from * size + to) as u64; (from + 2 * to) % 3 * 10_000];
    let recv = comm.alltoallv((0..size).map(|to| slot(me, to)).collect(), 20);
    for (from, buf) in recv.iter().enumerate() {
        assert_eq!(*buf, slot(from, me), "from {from}");
    }
    let all = comm.allgather(vec![me as u64; me + 1], 21);
    for (from, buf) in all.iter().enumerate() {
        assert_eq!(*buf, vec![from as u64; from + 1]);
    }

    let payload = comm.stats();
    assert!(!comm.vote_any(false));
    assert!(comm.vote_any(me == 0));
    assert!(comm.vote_any(true));
    comm.barrier();
    let after = comm.stats();
    assert_eq!(
        after.messages_sent, payload.messages_sent,
        "control traffic"
    );
    assert_eq!(after.bytes_sent, payload.bytes_sent, "control traffic");
    assert_eq!(
        after.payload_messages, payload.payload_messages,
        "control traffic"
    );
}

/// Every rank's stats after [`charge_script`], the blocked seconds zeroed.
fn charges_on<C: RankComm<u64> + Send + 'static>(worlds: Vec<C>) -> Vec<CommStats> {
    let handles: Vec<_> = worlds
        .into_iter()
        .map(|mut comm| {
            thread::spawn(move || {
                charge_script(&mut comm);
                CommStats {
                    wall_time_s: 0.0,
                    ..comm.stats()
                }
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// [`charge_script`]'s charges per rank on 2 and 4 ranks, the seconds over
/// `NetworkModel::hdr100()`, as each transport charged them when it kept
/// its own accounting and priced every message as it sent it. The counts,
/// priced after the run, must reproduce them.
const PINNED_2: [(u64, u64, f64); 2] = [(5, 160_072, 2.030576e-5), (5, 80_088, 1.390704e-5)];
const PINNED_4: [(u64, u64, f64); 4] = [
    (9, 240_088, 3.120704e-5),
    (9, 320_120, 3.91096e-5),
    (9, 400_152, 4.551216e-5),
    (9, 240_184, 3.121472e-5),
];

#[test]
fn both_transports_charge_the_same_for_the_same_script() {
    let net = NetworkModel::hdr100();
    for (size, pinned) in [(2usize, &PINNED_2[..]), (4, &PINNED_4[..])] {
        let local = charges_on(world::<u64>(size));
        let tcp = charges_on(tcp_world::<u64>(size, net).unwrap());
        assert_eq!(local, tcp, "{size} ranks");
        for (rank, stats) in local.iter().enumerate() {
            let (messages, bytes, modeled) =
                (stats.messages_sent, stats.bytes_sent, net.time(stats));
            let (pinned_messages, pinned_bytes, pinned_modeled) = pinned[rank];
            assert_eq!(
                (messages, bytes),
                (pinned_messages, pinned_bytes),
                "rank {rank} of {size}"
            );
            assert!(
                (modeled - pinned_modeled).abs() <= 1e-12 * pinned_modeled,
                "rank {rank} of {size}: modelled {modeled} s, pinned {pinned_modeled} s"
            );
        }
    }
}

#[test]
#[should_panic(expected = "power-of-two")]
fn a_thread_world_of_three_is_refused() {
    let _ = world::<u64>(3);
}

#[test]
fn a_tcp_world_of_three_is_refused() {
    assert!(tcp_world::<u64>(3, NetworkModel::ideal()).is_err());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = vec![listener.local_addr().unwrap().to_string(); 3];
    let refused = TcpComm::<u64>::connect_mesh(0, 3, listener, &peers);
    assert_eq!(
        refused.err().map(|e| e.kind()),
        Some(std::io::ErrorKind::InvalidData)
    );
}
