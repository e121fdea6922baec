//! The rank-communication surface: a [`RankComm`] trait mirroring the subset
//! of MPI the paper's simulator needs — tagged point-to-point send/recv,
//! barrier, all-to-all-v, all-gather and an all-reduce sum ("a general
//! interface for other simulators to use as a library", Sec. III-D) — plus
//! the in-process implementation, [`LocalComm`].
//!
//! A transport implements a handful of primitives: post a tagged frame to a
//! rank, take the first frame from a rank whose tag matches, and swap
//! payloads with one peer. Every collective, and every count in
//! [`CommStats`], is a provided method of the trait, written once here, so
//! the transports account identically by construction. A world only
//! counts: [`NetworkModel::time`](crate::NetworkModel::time) prices the
//! counts after the run. [`LocalComm`] is the virtual-MPI communicator this
//! reproduction started with: ranks are threads and frames move through
//! channels. The `hisvsim-net` crate provides the second transport,
//! `TcpComm`, which moves the same frames between OS processes over TCP
//! sockets; engines written against the trait run unchanged on either world.

use serde::{Deserialize, Serialize};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// Per-rank communication statistics, accumulated across the lifetime of a
/// communicator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Point-to-point messages sent (collectives count their constituent
    /// messages).
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages sent whose payload is non-empty: the messages that pay a
    /// network model's latency (see [`NetworkModel::time`](crate::NetworkModel::time)).
    pub payload_messages: u64,
    /// Wall-clock seconds this rank spent inside blocking communication
    /// calls (receive waits, barriers, and the full span of collectives)
    /// on the host machine.
    pub wall_time_s: f64,
}

impl CommStats {
    /// Combine two stats records (e.g. across phases).
    pub fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            messages_sent: self.messages_sent + other.messages_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            payload_messages: self.payload_messages + other.payload_messages,
            wall_time_s: self.wall_time_s + other.wall_time_s,
        }
    }
}

/// Tag namespace of the vote rounds behind [`RankComm::vote_any`] and
/// [`RankComm::barrier`]: the tag is `VOTE_NS | (round << 1) | flag`, with
/// the round masked to [`VOTE_ROUND_MASK`] so the counter can never escape
/// the namespace. Engines must keep their payload tags out of this range
/// (they do — engine tags are small constants).
const VOTE_NS: u64 = 0xCA4C_0000_0000_0000;

/// Largest vote round before the counter wraps (47 bits: the low bit of
/// the tag carries the flag, the top 16 bits are the namespace).
const VOTE_ROUND_MASK: u64 = (1 << 47) - 1;

/// What an endpoint keeps between calls: its accounting and its vote round
/// counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Endpoint {
    /// Communication statistics accumulated so far.
    pub stats: CommStats,
    /// Vote round counter (all ranks agree by construction: rounds are
    /// collective).
    pub vote_round: u64,
}

/// The rank-communication trait every distributed engine is written against.
///
/// A transport implements the primitives — `rank`, `size`, its
/// [`Endpoint`], an uncharged [`post`](RankComm::post), a stash-aware
/// [`take`](RankComm::take) and, where posting can block, a pairwise
/// [`swap`](RankComm::swap) — and inherits everything else.
/// Implementations: [`LocalComm`] (threads + channels, this crate) and
/// `hisvsim_net::TcpComm` (processes + sockets). An endpoint may only be
/// driven from one thread at a time, like an MPI rank, and every world is
/// a power of two ranks.
///
/// The provided methods hold the contract and its accounting:
///
/// * `send`/`recv` match on `(from, tag)`; out-of-order messages from the
///   same peer wait in the transport's stash until a matching `recv`.
/// * A message to another rank counts one message and its payload bytes,
///   and one payload message if it carries any; a message to self is
///   delivered through a local queue and counted nothing. No transport
///   prices a message: [`NetworkModel::time`](crate::NetworkModel::time)
///   prices the counts.
/// * Collectives (`barrier`, `alltoallv`, `allgather`, `vote_any`) are
///   called by every rank with matching arguments; their entire blocking
///   span is charged to [`CommStats::wall_time_s`] — not just the inner
///   receive waits — so a rank's measured communication time stays honest
///   for collective-heavy schedules.
/// * Votes and barriers are control traffic: their frames are posted
///   uncharged, so the bytes and messages a run reports are its schedule's
///   payload alone.
pub trait RankComm<T: Send + 'static> {
    /// This rank's id (0-based).
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// This endpoint's statistics and vote round counter.
    fn endpoint(&self) -> &Endpoint;

    /// Mutable access to [`RankComm::endpoint`].
    fn endpoint_mut(&mut self) -> &mut Endpoint;

    /// Hand `payload` to rank `to` under `tag`, uncharged. A frame posted to
    /// self is queued locally.
    fn post(&mut self, to: usize, tag: u64, payload: Vec<T>);

    /// Block until a frame from `from` whose tag matches `tag` under `mask`
    /// (`frame_tag & mask == tag`) arrives, and return its tag and payload,
    /// uncharged. Frames that do not match wait in a stash, which is
    /// searched first, oldest frame first.
    fn take(&mut self, from: usize, tag: u64, mask: u64) -> (u64, Vec<T>);

    /// Swap payloads with `peer` (not this rank), uncharged: both ends call
    /// it with the same tag at the same step of their schedule. The default
    /// posts then takes, which is all a transport whose posts never block
    /// needs.
    fn swap(&mut self, peer: usize, tag: u64, payload: Vec<T>) -> Vec<T> {
        self.post(peer, tag, payload);
        self.take(peer, tag, !0).1
    }

    /// Communication statistics accumulated so far by this rank.
    fn stats(&self) -> CommStats {
        self.endpoint().stats
    }

    /// Reset this rank's statistics (e.g. between warm-up and measurement).
    fn reset_stats(&mut self) {
        self.endpoint_mut().stats = CommStats::default();
    }

    /// Send `payload` to rank `to` with a tag.
    fn send(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        assert!(to < self.size(), "destination rank {to} out of range");
        charge(self, to, payload.len());
        self.post(to, tag, payload);
    }

    /// Blocking receive of the next message from `from` with tag `tag`.
    fn recv(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(from < self.size(), "source rank {from} out of range");
        let span = hisvsim_obs::span("comm", "recv");
        let start = Instant::now();
        let (_, payload) = self.take(from, tag, !0);
        self.endpoint_mut().stats.wall_time_s += start.elapsed().as_secs_f64();
        let _span = span.bytes(bytes_of::<T>(payload.len()));
        payload
    }

    /// Synchronise all ranks: a vote whose answer is dropped.
    fn barrier(&mut self) {
        vote_round(self, "barrier", false);
    }

    /// Collective boolean OR: every rank contributes `flag` and every rank
    /// receives the OR of all contributions. This is the agreement
    /// primitive cooperative cancellation is built on — a rank may only
    /// stop an SPMD schedule when *all* ranks agree to stop at the same
    /// step, otherwise the survivors deadlock in the next collective
    /// waiting on the rank that left. A gather–release through rank 0 on
    /// the reserved vote tag namespace, with the flag carried in the tag's
    /// low bit (no payload travels, so it works for any `T`).
    fn vote_any(&mut self, flag: bool) -> bool {
        vote_round(self, "vote", flag)
    }

    /// All-to-all-v: `send_bufs[i]` goes to rank `i`; returns `recv[i]` =
    /// the buffer rank `i` sent to this rank. The self slot stays in place
    /// and is charged nothing.
    ///
    /// The schedule is pairwise XOR rounds: in round `r` every rank swaps
    /// with rank `^ r` — a perfect matching per round, so both ends of every
    /// pair are in the same [`swap`](RankComm::swap) at the same time.
    fn alltoallv(&mut self, mut send_bufs: Vec<Vec<T>>, tag: u64) -> Vec<Vec<T>> {
        let (rank, size) = (self.rank(), self.size());
        assert_eq!(
            send_bufs.len(),
            size,
            "alltoallv needs one send buffer per rank"
        );
        let send_bytes = bytes_of::<T>(send_bufs.iter().map(Vec::len).sum());
        let _span = hisvsim_obs::span("comm", "alltoallv").bytes(send_bytes);
        let start = Instant::now();
        for round in 1..size {
            let peer = rank ^ round;
            let outgoing = std::mem::take(&mut send_bufs[peer]);
            charge(self, peer, outgoing.len());
            send_bufs[peer] = self.swap(peer, tag, outgoing);
        }
        self.endpoint_mut().stats.wall_time_s += start.elapsed().as_secs_f64();
        send_bufs
    }

    /// All-gather: every rank contributes `payload`; returns all
    /// contributions indexed by rank.
    fn allgather(&mut self, payload: Vec<T>, tag: u64) -> Vec<Vec<T>>
    where
        T: Clone,
    {
        let bufs: Vec<Vec<T>> = (0..self.size()).map(|_| payload.clone()).collect();
        self.alltoallv(bufs, tag)
    }
}

/// Payload bytes of `items` items.
fn bytes_of<T>(items: usize) -> u64 {
    (items * std::mem::size_of::<T>()) as u64
}

/// Count one message of `items` items to rank `to`: nothing if `to` is
/// this rank, else one message, its bytes and, if it carries any, one
/// payload message.
fn charge<T: Send + 'static, C: RankComm<T> + ?Sized>(comm: &mut C, to: usize, items: usize) {
    if to == comm.rank() {
        return;
    }
    let stats = &mut comm.endpoint_mut().stats;
    stats.messages_sent += 1;
    stats.bytes_sent += bytes_of::<T>(items);
    stats.payload_messages += u64::from(items > 0);
}

/// One gather–release OR through rank 0, charged as the wall time of a
/// span named `name`. A world of one returns `flag` at once.
fn vote_round<T: Send + 'static, C: RankComm<T> + ?Sized>(
    comm: &mut C,
    name: &'static str,
    flag: bool,
) -> bool {
    let (rank, size) = (comm.rank(), comm.size());
    if size == 1 {
        return flag;
    }
    let _span = hisvsim_obs::span("comm", name);
    let start = Instant::now();
    let endpoint = comm.endpoint_mut();
    let base = VOTE_NS | (endpoint.vote_round << 1);
    endpoint.vote_round = (endpoint.vote_round + 1) & VOTE_ROUND_MASK;
    let voted = |(tag, _): (u64, Vec<T>)| tag & 1 == 1;
    let agreed = if rank == 0 {
        let mut agreed = flag;
        for from in 1..size {
            agreed |= voted(comm.take(from, base, !1));
        }
        for to in 1..size {
            comm.post(to, base | agreed as u64, Vec::new());
        }
        agreed
    } else {
        comm.post(0, base | flag as u64, Vec::new());
        voted(comm.take(0, base, !1))
    };
    comm.endpoint_mut().stats.wall_time_s += start.elapsed().as_secs_f64();
    agreed
}

/// Scalar collectives available on any communicator of `f64` payloads.
pub trait ScalarComm {
    /// All-reduce sum of one scalar per rank.
    fn allreduce_sum(&mut self, value: f64, tag: u64) -> f64;
}

impl<C: RankComm<f64> + ?Sized> ScalarComm for C {
    fn allreduce_sum(&mut self, value: f64, tag: u64) -> f64 {
        let all = self.allgather(vec![value], tag);
        all.iter().map(|v| v[0]).sum()
    }
}

struct Envelope<T> {
    from: usize,
    tag: u64,
    payload: Vec<T>,
}

/// One rank's endpoint of the in-process (thread world) communicator.
///
/// Cloneable senders to every rank plus this rank's receive queue. A post
/// never blocks, so the default [`RankComm::swap`] serves it.
pub struct LocalComm<T: Send + 'static> {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope<T>>>,
    receiver: Receiver<Envelope<T>>,
    /// Out-of-order frames waiting for a matching take.
    stash: Vec<Envelope<T>>,
    endpoint: Endpoint,
}

/// Build a communicator world of `size` ranks.
///
/// `size` must be a power of two. Returns one [`LocalComm`] per rank; hand
/// each to its own thread (see [`crate::spmd::run_spmd`] for the
/// scoped-thread harness).
pub fn world<T: Send + 'static>(size: usize) -> Vec<LocalComm<T>> {
    assert!(size > 0, "a communicator needs at least one rank");
    assert!(
        size.is_power_of_two(),
        "a world needs a power-of-two rank count, got {size}"
    );
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..size).map(|_| channel()).unzip();
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| LocalComm {
            rank,
            size,
            senders: senders.clone(),
            receiver,
            stash: Vec::new(),
            endpoint: Endpoint::default(),
        })
        .collect()
}

impl<T: Send + 'static> RankComm<T> for LocalComm<T> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    #[inline]
    fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    fn post(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        self.senders[to]
            .send(Envelope {
                from: self.rank,
                tag,
                payload,
            })
            .expect("receiver side of the communicator was dropped");
    }

    fn take(&mut self, from: usize, tag: u64, mask: u64) -> (u64, Vec<T>) {
        let matches = |e: &Envelope<T>| e.from == from && e.tag & mask == tag;
        let env = match self.stash.iter().position(matches) {
            Some(pos) => self.stash.remove(pos),
            None => loop {
                let env = self
                    .receiver
                    .recv()
                    .expect("all senders of the communicator were dropped");
                if matches(&env) {
                    break env;
                }
                self.stash.push(env);
            },
        };
        (env.tag, env.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn point_to_point_roundtrip() {
        let mut ranks = world::<u32>(2);
        let mut r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        let handle = thread::spawn(move || {
            r1.send(0, 7, vec![1, 2, 3]);
            let got = r1.recv(0, 8);
            assert_eq!(got, vec![9]);
            r1.stats()
        });
        let got = r0.recv(1, 7);
        assert_eq!(got, vec![1, 2, 3]);
        r0.send(1, 8, vec![9]);
        let s1 = handle.join().unwrap();
        assert_eq!(s1.messages_sent, 1);
        assert_eq!(s1.bytes_sent, 12);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let mut ranks = world::<u8>(2);
        let mut r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        let handle = thread::spawn(move || {
            // Send tag 2 first, then tag 1.
            r1.send(0, 2, vec![22]);
            r1.send(0, 1, vec![11]);
        });
        // Receive in the opposite order.
        assert_eq!(r0.recv(1, 1), vec![11]);
        assert_eq!(r0.recv(1, 2), vec![22]);
        handle.join().unwrap();
    }

    #[test]
    fn alltoallv_exchanges_every_pair() {
        let size = 4;
        let ranks = world::<usize>(size);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|mut comm| {
                thread::spawn(move || {
                    let me = comm.rank();
                    let send: Vec<Vec<usize>> =
                        (0..comm.size()).map(|to| vec![me * 100 + to]).collect();
                    let recv = comm.alltoallv(send, 0);
                    for (from, buf) in recv.iter().enumerate() {
                        assert_eq!(buf, &vec![from * 100 + me]);
                    }
                    comm.stats()
                })
            })
            .collect();
        for h in handles {
            let stats = h.join().unwrap();
            assert_eq!(stats.messages_sent, (size - 1) as u64);
            assert_eq!(stats.payload_messages, (size - 1) as u64);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let size = 4;
        let ranks = world::<f64>(size);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|mut comm| thread::spawn(move || comm.allreduce_sum((comm.rank() + 1) as f64, 5)))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 10.0);
        }
    }

    #[test]
    fn barrier_synchronises() {
        let size = 4;
        let ranks = world::<u8>(size);
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|mut comm| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    comm.barrier();
                    // After the barrier every rank must observe all increments.
                    assert_eq!(counter.load(Ordering::SeqCst), size as u64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn self_sends_are_free() {
        let mut ranks = world::<u64>(1);
        let mut r0 = ranks.pop().unwrap();
        r0.send(0, 3, vec![42; 1024]);
        assert_eq!(r0.recv(0, 3), vec![42; 1024]);
        assert_eq!(r0.stats().messages_sent, 0);
        assert_eq!(r0.stats().bytes_sent, 0);
        assert_eq!(r0.stats().payload_messages, 0);
    }

    #[test]
    fn collectives_charge_blocking_wall_time() {
        // Rank 1 sleeps before entering the collective; rank 0's alltoallv
        // must charge the time it spent blocked waiting for rank 1's buffer
        // (the pre-fix accounting missed everything but inner recv waits).
        let mut ranks = world::<u8>(2);
        let mut r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        let handle = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(200));
            r1.alltoallv(vec![vec![1], vec![2]], 9);
        });
        let got = r0.alltoallv(vec![vec![3], vec![4]], 9);
        assert_eq!(got, vec![vec![3], vec![1]]);
        assert!(
            r0.stats().wall_time_s >= 0.1,
            "alltoallv blocked ~200ms but charged only {}s",
            r0.stats().wall_time_s
        );
        handle.join().unwrap();
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = CommStats {
            messages_sent: 2,
            bytes_sent: 100,
            payload_messages: 1,
            wall_time_s: 0.1,
        };
        let b = CommStats {
            messages_sent: 3,
            bytes_sent: 50,
            payload_messages: 3,
            wall_time_s: 0.2,
        };
        let m = a.merged(b);
        assert_eq!(m.messages_sent, 5);
        assert_eq!(m.bytes_sent, 150);
        assert_eq!(m.payload_messages, 4);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_is_rejected() {
        let _ = world::<u8>(0);
    }
}
