//! The rank-communication surface: a [`RankComm`] trait mirroring the subset
//! of MPI the paper's simulator needs — tagged point-to-point send/recv,
//! barrier, all-to-all-v, all-gather and an all-reduce sum ("a general
//! interface for other simulators to use as a library", Sec. III-D) — plus
//! the in-process implementation, [`LocalComm`].
//!
//! [`LocalComm`] is the virtual-MPI communicator this reproduction started
//! with: ranks are threads, messages are typed vectors moved through
//! lock-free channels, and every transfer is charged to the
//! [`NetworkModel`](crate::netmodel::NetworkModel) so engines can report
//! modelled communication time alongside the real data movement. The
//! `hisvsim-net` crate provides the second implementation, `TcpComm`, which
//! moves the same messages between OS processes over TCP sockets; engines
//! written against the trait run unchanged on either world.

use crate::netmodel::NetworkModel;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
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
    /// Modelled wire time in seconds charged by the network model.
    pub modeled_time_s: f64,
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
            modeled_time_s: self.modeled_time_s + other.modeled_time_s,
            wall_time_s: self.wall_time_s + other.wall_time_s,
        }
    }
}

/// Reserved tag namespace for [`RankComm::vote_any`] rounds: the tag is
/// `VOTE_NS | (epoch << 1) | flag`, with the epoch masked to
/// [`VOTE_EPOCH_MASK`] so the round counter can never escape the
/// namespace. Engines must keep their payload tags out of this range
/// (they do — engine tags are small constants).
pub const VOTE_NS: u64 = 0xCA4C_0000_0000_0000;

/// Largest vote epoch before the counter wraps (47 bits: the low bit of
/// the tag carries the flag, the top 16 bits are the namespace).
pub const VOTE_EPOCH_MASK: u64 = (1 << 47) - 1;

/// The rank-communication trait every distributed engine is written against.
///
/// Implementations: [`LocalComm`] (threads + channels, this crate) and
/// `hisvsim_net::TcpComm` (processes + sockets). A communicator endpoint may
/// only be driven from one thread at a time, like an MPI rank.
///
/// Contract shared by all implementations:
///
/// * `send`/`recv` match on `(from, tag)`; out-of-order messages from the
///   same peer are stashed until a matching `recv`.
/// * Sending to self is allowed, delivered through a local queue, and
///   charged zero network time.
/// * Collectives (`barrier`, `alltoallv`, `allgather`, `vote_any`) are
///   called by every rank with matching arguments; their entire blocking
///   span is charged to [`CommStats::wall_time_s`] — not just the inner
///   receive waits — so `comm_ratio()` stays honest for collective-heavy
///   schedules.
pub trait RankComm<T: Send + 'static> {
    /// This rank's id (0-based).
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// The network model used for accounting.
    fn network(&self) -> NetworkModel;

    /// Communication statistics accumulated so far by this rank.
    fn stats(&self) -> CommStats;

    /// Reset this rank's statistics (e.g. between warm-up and measurement).
    fn reset_stats(&mut self);

    /// Send `payload` to rank `to` with a tag.
    fn send(&mut self, to: usize, tag: u64, payload: Vec<T>);

    /// Blocking receive of the next message from `from` with tag `tag`.
    fn recv(&mut self, from: usize, tag: u64) -> Vec<T>;

    /// Synchronise all ranks.
    fn barrier(&mut self);

    /// Collective boolean OR: every rank contributes `flag` and every rank
    /// receives the OR of all contributions. This is the agreement
    /// primitive cooperative cancellation is built on — a rank may only
    /// stop an SPMD schedule when *all* ranks agree to stop at the same
    /// step, otherwise the survivors deadlock in the next collective
    /// waiting on the rank that left. Implemented as a gather–release
    /// through rank 0 on the reserved [`VOTE_NS`] tag namespace, with the
    /// flag carried in the tag's low bit (no payload travels, so it works
    /// for any `T`).
    ///
    /// Like `barrier`, a vote is control traffic, not payload traffic:
    /// only its blocking wall time is charged to [`CommStats`], so the
    /// bytes and messages a run reports are its schedule's payload alone.
    fn vote_any(&mut self, flag: bool) -> bool;

    /// All-to-all-v: `send_bufs[i]` goes to rank `i`; returns `recv[i]` =
    /// the buffer rank `i` sent to this rank. The self slot is moved, not
    /// copied, and charged no network time.
    fn alltoallv(&mut self, send_bufs: Vec<Vec<T>>, tag: u64) -> Vec<Vec<T>>;

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
/// Cloneable senders to every rank plus this rank's receive queue. A rank may
/// only be driven from one thread at a time (like an MPI rank).
pub struct LocalComm<T: Send + 'static> {
    rank: usize,
    size: usize,
    net: NetworkModel,
    senders: Vec<Sender<Envelope<T>>>,
    receiver: Receiver<Envelope<T>>,
    /// Out-of-order messages waiting for a matching recv.
    stash: Vec<Envelope<T>>,
    barrier: Arc<Barrier>,
    /// Vote round counter (all ranks agree by construction: votes are
    /// collective).
    vote_epoch: u64,
    /// Shared across ranks: total modelled time units (nanoseconds) spent by
    /// the slowest rank is derived by the caller from per-rank stats; this
    /// counter just feeds global sanity checks in tests.
    global_bytes: Arc<AtomicU64>,
    stats: CommStats,
}

/// Build a communicator world of `size` ranks over the given network model.
///
/// Returns one [`LocalComm`] per rank; hand each to its own thread (see
/// [`crate::spmd::run_spmd`] for the scoped-thread harness).
pub fn world<T: Send + 'static>(size: usize, net: NetworkModel) -> Vec<LocalComm<T>> {
    assert!(size > 0, "a communicator needs at least one rank");
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    let barrier = Arc::new(Barrier::new(size));
    let global_bytes = Arc::new(AtomicU64::new(0));
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| LocalComm {
            rank,
            size,
            net,
            senders: senders.clone(),
            receiver,
            stash: Vec::new(),
            barrier: Arc::clone(&barrier),
            vote_epoch: 0,
            global_bytes: Arc::clone(&global_bytes),
            stats: CommStats::default(),
        })
        .collect()
}

impl<T: Send + 'static> LocalComm<T> {
    /// Total payload bytes sent across *all* ranks of the world so far.
    pub fn global_bytes_sent(&self) -> u64 {
        self.global_bytes.load(Ordering::Relaxed)
    }

    /// Send without wall-time accounting (the caller owns the timing
    /// window, e.g. a collective charging its whole span once).
    fn send_inner(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        assert!(to < self.size, "destination rank {to} out of range");
        let bytes = payload.len() * std::mem::size_of::<T>();
        if to != self.rank {
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            self.stats.modeled_time_s += self.net.message_time(bytes);
            self.global_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        self.senders[to]
            .send(Envelope {
                from: self.rank,
                tag,
                payload,
            })
            .expect("receiver side of the communicator was dropped");
    }

    /// Receive without wall-time accounting (see [`LocalComm::send_inner`]).
    fn recv_inner(&mut self, from: usize, tag: u64) -> Vec<T> {
        // Check the stash first.
        if let Some(pos) = self
            .stash
            .iter()
            .position(|e| e.from == from && e.tag == tag)
        {
            return self.stash.swap_remove(pos).payload;
        }
        loop {
            let env = self
                .receiver
                .recv()
                .expect("all senders of the communicator were dropped");
            if env.from == from && env.tag == tag {
                return env.payload;
            }
            self.stash.push(env);
        }
    }

    /// Receive one vote frame from `from`: any tag whose epoch bits match
    /// `base` (the low bit carries the sender's flag).
    fn recv_vote_inner(&mut self, from: usize, base: u64) -> bool {
        if let Some(pos) = self
            .stash
            .iter()
            .position(|e| e.from == from && e.tag & !1 == base)
        {
            return self.stash.swap_remove(pos).tag & 1 == 1;
        }
        loop {
            let env = self
                .receiver
                .recv()
                .expect("all senders of the communicator were dropped");
            if env.from == from && env.tag & !1 == base {
                return env.tag & 1 == 1;
            }
            self.stash.push(env);
        }
    }
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
    fn network(&self) -> NetworkModel {
        self.net
    }

    #[inline]
    fn stats(&self) -> CommStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CommStats::default();
    }

    /// Send `payload` to rank `to` with a tag. Sending to self is allowed
    /// (delivered through the same queue) and charged zero network time.
    fn send(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        self.send_inner(to, tag, payload);
    }

    fn recv(&mut self, from: usize, tag: u64) -> Vec<T> {
        let span = hisvsim_obs::span("comm", "recv");
        let start = Instant::now();
        let payload = self.recv_inner(from, tag);
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
        let _span = span.bytes((payload.len() * std::mem::size_of::<T>()) as u64);
        payload
    }

    fn barrier(&mut self) {
        let _span = hisvsim_obs::span("comm", "barrier");
        let start = Instant::now();
        self.barrier.wait();
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
    }

    /// Gather–release OR through rank 0 on the [`VOTE_NS`] namespace. The
    /// control frames are not payload traffic: stats are restored to their
    /// pre-vote values and only the blocking wall time is charged, exactly
    /// like `barrier`.
    fn vote_any(&mut self, flag: bool) -> bool {
        if self.size == 1 {
            return flag;
        }
        let _span = hisvsim_obs::span("comm", "vote");
        let start = Instant::now();
        let payload_stats = self.stats;
        let base = VOTE_NS | (self.vote_epoch << 1);
        self.vote_epoch = (self.vote_epoch + 1) & VOTE_EPOCH_MASK;
        let agreed = if self.rank == 0 {
            let mut agreed = flag;
            for from in 1..self.size {
                agreed |= self.recv_vote_inner(from, base);
            }
            for to in 1..self.size {
                self.send_inner(to, base | agreed as u64, Vec::new());
            }
            agreed
        } else {
            self.send_inner(0, base | flag as u64, Vec::new());
            self.recv_vote_inner(0, base)
        };
        self.stats = payload_stats;
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
        agreed
    }

    /// All-to-all-v over the channel world.
    ///
    /// The modelled time charged to this rank is the serial injection of its
    /// outgoing messages (see
    /// [`NetworkModel::alltoallv_time`](crate::netmodel::NetworkModel::alltoallv_time));
    /// the wall time charged is the full span of the collective — injection
    /// plus every blocking receive — not just the receive waits.
    fn alltoallv(&mut self, send_bufs: Vec<Vec<T>>, tag: u64) -> Vec<Vec<T>> {
        assert_eq!(
            send_bufs.len(),
            self.size,
            "alltoallv needs one send buffer per rank"
        );
        let send_bytes = send_bufs.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<T>();
        let _span = hisvsim_obs::span("comm", "alltoallv").bytes(send_bytes as u64);
        let start = Instant::now();
        let mut recv: Vec<Option<Vec<T>>> = (0..self.size).map(|_| None).collect();
        for (to, buf) in send_bufs.into_iter().enumerate() {
            if to == self.rank {
                recv[to] = Some(buf);
            } else {
                self.send_inner(to, tag, buf);
            }
        }
        let (rank, size) = (self.rank, self.size);
        for from in (0..size).filter(|&from| from != rank) {
            let payload = self.recv_inner(from, tag);
            recv[from] = Some(payload);
        }
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
        recv.into_iter().map(|b| b.unwrap()).collect()
    }
}

/// A shared accumulator for collecting per-rank results from SPMD closures
/// without a channel round-trip (the engines use it to return per-rank
/// timings).
#[derive(Debug, Clone, Default)]
pub struct ResultBoard<R> {
    inner: Arc<Mutex<Vec<Option<R>>>>,
}

impl<R> ResultBoard<R> {
    /// A board with one slot per rank.
    pub fn new(size: usize) -> Self {
        let mut v = Vec::with_capacity(size);
        v.resize_with(size, || None);
        Self {
            inner: Arc::new(Mutex::new(v)),
        }
    }

    /// Post rank `rank`'s result.
    pub fn post(&self, rank: usize, value: R) {
        self.inner.lock().expect("result board poisoned")[rank] = Some(value);
    }

    /// Collect all posted results; panics if any rank never posted.
    pub fn collect(self) -> Vec<R> {
        Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("result board still shared"))
            .into_inner()
            .expect("result board poisoned")
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| slot.unwrap_or_else(|| panic!("rank {rank} posted no result")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_roundtrip() {
        let mut ranks = world::<u32>(2, NetworkModel::ideal());
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
        let mut ranks = world::<u8>(2, NetworkModel::ideal());
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
        let ranks = world::<usize>(size, NetworkModel::hdr100());
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
            assert!(stats.modeled_time_s > 0.0);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let size = 3;
        let ranks = world::<f64>(size, NetworkModel::ideal());
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|mut comm| thread::spawn(move || comm.allreduce_sum((comm.rank() + 1) as f64, 5)))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 6.0);
        }
    }

    #[test]
    fn barrier_synchronises() {
        let size = 4;
        let ranks = world::<u8>(size, NetworkModel::ideal());
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
        let mut ranks = world::<u64>(1, NetworkModel::hdr100());
        let mut r0 = ranks.pop().unwrap();
        r0.send(0, 3, vec![42; 1024]);
        assert_eq!(r0.recv(0, 3), vec![42; 1024]);
        assert_eq!(r0.stats().messages_sent, 0);
        assert_eq!(r0.stats().bytes_sent, 0);
        assert_eq!(r0.stats().modeled_time_s, 0.0);
    }

    #[test]
    fn collectives_charge_blocking_wall_time() {
        // Rank 1 sleeps before entering the collective; rank 0's alltoallv
        // must charge the time it spent blocked waiting for rank 1's buffer
        // (the pre-fix accounting missed everything but inner recv waits).
        let mut ranks = world::<u8>(2, NetworkModel::ideal());
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
            modeled_time_s: 0.5,
            wall_time_s: 0.1,
        };
        let b = CommStats {
            messages_sent: 3,
            bytes_sent: 50,
            modeled_time_s: 0.25,
            wall_time_s: 0.2,
        };
        let m = a.merged(b);
        assert_eq!(m.messages_sent, 5);
        assert_eq!(m.bytes_sent, 150);
        assert!((m.modeled_time_s - 0.75).abs() < 1e-15);
    }

    #[test]
    fn result_board_collects_per_rank_values() {
        let board = ResultBoard::<usize>::new(3);
        let clones: Vec<_> = (0..3).map(|r| (r, board.clone())).collect();
        let handles: Vec<_> = clones
            .into_iter()
            .map(|(r, b)| thread::spawn(move || b.post(r, r * 10)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(board.collect(), vec![0, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_is_rejected() {
        let _ = world::<u8>(0, NetworkModel::ideal());
    }
}
