//! [`TcpComm`]: the multi-process [`RankComm`] implementation.
//!
//! A world of `N` ranks is a full mesh of TCP connections — one stream per
//! rank pair, established by a rendezvous handshake: every rank opens a
//! listener, the addresses are distributed (by the launcher, or by
//! [`tcp_world`] for in-process tests), rank `i` connects to every rank
//! `j < i` and accepts connections from every `j > i`; the first frame on
//! each connection is a hello carrying the connecting rank.
//!
//! Semantics match [`LocalComm`](hisvsim_cluster::LocalComm) exactly:
//! tagged matching with an out-of-order stash per peer, self-sends through
//! a local queue at zero network charge, and the same [`CommStats`]
//! accounting (logical payload bytes, modelled α–β wire time, and the full
//! blocking span of collectives charged to `wall_time_s`). The barrier has
//! no shared-memory `Barrier` to lean on, so it is a gather–release through
//! rank 0 on a reserved tag namespace.

use crate::wire::{
    decode_items, items_as_wire_bytes, read_frame, read_items_frame_into, write_frame, WireItem,
};
use hisvsim_cluster::{CommStats, NetworkModel, RankComm, VOTE_EPOCH_MASK, VOTE_NS};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Tag of the rendezvous hello frame (outside the engines' tag space).
const HELLO_TAG: u64 = 0x0048_454C_4C4F_0000;

/// Reserved namespace for barrier rounds: `BARRIER_NS | epoch`.
const BARRIER_NS: u64 = 0xB55F_0000_0000_0000;

/// Largest barrier epoch before the round counter wraps back to 0. The
/// counter must never escape the low 48 bits, or `BARRIER_NS | epoch`
/// would collide with another namespace — reachable once workers stay
/// resident across thousands of jobs, so the counter wraps (a collision
/// across the wrap needs 2^48 barriers in flight inside one job, which
/// cannot happen) and [`TcpComm::begin_job`] resets it between jobs.
const BARRIER_EPOCH_MASK: u64 = (1 << 48) - 1;

/// Typed panic payload for a lost peer connection inside a collective.
///
/// A dead peer mid-collective leaves this rank's mesh state undefined (a
/// frame may be half-read), so the transport cannot return an error and
/// keep going — but the *worker job loop* can catch this payload at the
/// job boundary (`catch_unwind`), report the job as failed over the
/// control channel, and let the pool respawn the world, instead of the
/// whole worker process dying with an opaque panic message.
#[derive(Debug, Clone)]
pub struct PeerLost {
    /// The rank whose connection died.
    pub peer: usize,
    /// What the transport was doing when the connection died.
    pub detail: String,
}

impl std::fmt::Display for PeerLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection to rank {} lost: {}", self.peer, self.detail)
    }
}

/// Abort the collective with a catchable [`PeerLost`] payload.
fn peer_lost(peer: usize, during: &str, error: io::Error) -> ! {
    std::panic::panic_any(PeerLost {
        peer,
        detail: format!("{during}: {error}"),
    })
}

/// Upper bound on the bytes a pairwise exchange puts in flight per
/// direction per step (see [`TcpComm::alltoallv`]): far below any kernel's
/// socket buffering, so alternating chunk sends can never wedge.
const CHUNK_BYTES: usize = 64 * 1024;

/// One rank's endpoint of a multi-process TCP world.
pub struct TcpComm<T: WireItem> {
    rank: usize,
    size: usize,
    net: NetworkModel,
    /// One stream per peer (`None` at this rank's own slot).
    streams: Vec<Option<TcpStream>>,
    /// Out-of-order messages per peer, waiting for a matching recv.
    stash: Vec<Vec<(u64, Vec<T>)>>,
    /// Self-sends, delivered locally in FIFO order per tag.
    self_queue: VecDeque<(u64, Vec<T>)>,
    /// Barrier round counter (both sides must agree; they do, because
    /// barriers are collective). Wraps at [`BARRIER_EPOCH_MASK`].
    barrier_epoch: u64,
    /// Vote round counter (see [`RankComm::vote_any`]); wraps at
    /// [`VOTE_EPOCH_MASK`].
    vote_epoch: u64,
    stats: CommStats,
}

/// Connect with a handful of retries: the rendezvous guarantees every
/// listener exists before its address is distributed, but the accept loop
/// may not have started yet under load.
fn connect_retry(addr: &str) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
}

impl<T: WireItem> TcpComm<T> {
    /// Build this rank's endpoint of a full mesh: connect to every rank
    /// below `rank` (sending a hello frame), accept a connection from every
    /// rank above it (reading the peer's hello). `peers[j]` is rank `j`'s
    /// listener address; `listener` is this rank's own (already bound)
    /// listener, consumed here.
    pub fn connect_mesh(
        rank: usize,
        size: usize,
        net: NetworkModel,
        listener: TcpListener,
        peers: &[String],
    ) -> io::Result<Self> {
        assert!(rank < size, "rank {rank} out of range for world {size}");
        assert_eq!(peers.len(), size, "need one rendezvous address per rank");
        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        for to in 0..rank {
            let mut stream = connect_retry(&peers[to])?;
            stream.set_nodelay(true)?;
            write_frame(&mut stream, HELLO_TAG, &(rank as u64).to_le_bytes())?;
            streams[to] = Some(stream);
        }
        for _ in rank + 1..size {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let (tag, payload) = read_frame(&mut stream)?;
            if tag != HELLO_TAG || payload.len() != 8 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "rendezvous connection did not start with a hello frame",
                ));
            }
            let from = u64::from_le_bytes(payload[..].try_into().expect("hello width")) as usize;
            if from <= rank || from >= size || streams[from].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected hello from rank {from}"),
                ));
            }
            streams[from] = Some(stream);
        }
        Ok(Self {
            rank,
            size,
            net,
            streams,
            stash: (0..size).map(|_| Vec::new()).collect(),
            self_queue: VecDeque::new(),
            barrier_epoch: 0,
            vote_epoch: 0,
            stats: CommStats::default(),
        })
    }

    /// Reset per-job transport state on a persistent mesh: collective
    /// round counters restart at 0 (every rank calls this at the same job
    /// boundary, so the counters stay agreed), and the stashes must be
    /// empty — a leftover message would mean the previous job's schedule
    /// did not consume everything it sent, which would corrupt the next
    /// job's matching.
    pub fn begin_job(&mut self) {
        debug_assert!(
            self.stash.iter().all(Vec::is_empty),
            "stashed messages left over from the previous job"
        );
        debug_assert!(
            self.self_queue.is_empty(),
            "self-sends left over from the previous job"
        );
        self.barrier_epoch = 0;
        self.vote_epoch = 0;
    }

    /// Send without wall-time accounting (collectives own their window).
    fn send_inner(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        assert!(to < self.size, "destination rank {to} out of range");
        if to == self.rank {
            self.self_queue.push_back((tag, payload));
            return;
        }
        let bytes = payload.len() * T::WIRE_SIZE;
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.modeled_time_s += self.net.message_time(bytes);
        let stream = self.streams[to].as_mut().expect("no stream to peer");
        if let Err(e) = write_frame(stream, tag, &items_as_wire_bytes(&payload)) {
            peer_lost(to, "sending a message", e);
        }
    }

    /// Symmetric bounded-buffer exchange with one peer: both sides send a
    /// small item-count header, then strictly alternate sending and
    /// receiving chunks of at most [`CHUNK_BYTES`]. Because the two
    /// endpoints follow the identical schedule, no more than one chunk per
    /// direction is ever in flight between a matched send/receive step —
    /// the kernel's socket buffers always absorb it, so the exchange never
    /// deadlocks regardless of payload size (the failure mode of a naive
    /// send-all-then-receive schedule).
    ///
    /// The incoming payload is received into the buffer the outgoing one
    /// leaves in: chunk `k` arrives only after chunk `k` has been written to
    /// the socket, and lands on the same item range, so an exchange of equal
    /// sizes (every redistribution between two ranks) allocates nothing and
    /// touches no fresh page.
    ///
    /// Charges the same logical accounting as a single message: one
    /// `messages_sent`, the payload bytes, one α–β `message_time`.
    fn exchange_chunked(&mut self, peer: usize, tag: u64, payload: Vec<T>) -> Vec<T> {
        debug_assert_ne!(peer, self.rank);
        let my_count = payload.len();
        let bytes = my_count * T::WIRE_SIZE;
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.modeled_time_s += self.net.message_time(bytes);

        let items_per_chunk = (CHUNK_BYTES / T::WIRE_SIZE).max(1);
        {
            let stream = self.streams[peer].as_mut().expect("no stream to peer");
            if let Err(e) = write_frame(stream, tag, &(my_count as u64).to_le_bytes()) {
                peer_lost(peer, "sending an exchange header", e);
            }
        }
        // The peer's header may be preceded by stashable backlog (earlier
        // point-to-point sends we have not recv'd yet) — drain through the
        // stash-aware raw reader. Everything after the header is ours: the
        // peer writes nothing else to this stream until its exchange ends.
        let header = self.read_matching_raw(peer, tag);
        assert_eq!(header.len(), 8, "malformed exchange header from peer");
        let their_count = u64::from_le_bytes(header[..].try_into().expect("header width")) as usize;
        let mut buffer = payload;
        buffer.reserve_exact(their_count.saturating_sub(my_count));
        let my_chunks = my_count.div_ceil(items_per_chunk);
        let their_chunks = their_count.div_ceil(items_per_chunk);
        let stream = self.streams[peer].as_mut().expect("no stream to peer");
        for step in 0..my_chunks.max(their_chunks) {
            let first = step * items_per_chunk;
            if step < my_chunks {
                let last = (first + items_per_chunk).min(my_count);
                let chunk = items_as_wire_bytes(&buffer[first..last]);
                if let Err(e) = write_frame(stream, tag, &chunk) {
                    peer_lost(peer, "sending an exchange chunk", e);
                }
            }
            if step < their_chunks {
                let last = (first + items_per_chunk).min(their_count);
                let got_tag = if last <= buffer.len() {
                    read_items_frame_into(stream, &mut buffer[first..last])
                } else {
                    // Past the end of what we had to send (all of it is on
                    // the wire by now): the chunk is appended.
                    read_frame(stream).map(|(got_tag, chunk)| {
                        buffer.truncate(first);
                        buffer
                            .extend(decode_items::<T>(&chunk).expect("malformed chunk from peer"));
                        got_tag
                    })
                };
                match got_tag {
                    Ok(got_tag) => {
                        assert_eq!(got_tag, tag, "stray frame inside a pairwise exchange")
                    }
                    Err(e) => peer_lost(peer, "receiving an exchange chunk", e),
                }
            }
        }
        buffer.truncate(their_count);
        assert_eq!(buffer.len(), their_count, "peer sent a short exchange");
        buffer
    }

    /// Read raw frames from `from`'s stream until one carries `tag`,
    /// stashing (decoded) mismatching frames for later matching receives.
    /// The caller guarantees no *stashed* message already carries `tag`.
    fn read_matching_raw(&mut self, from: usize, tag: u64) -> Vec<u8> {
        debug_assert!(
            !self.stash[from].iter().any(|(t, _)| *t == tag),
            "raw read would bypass a stashed message with the same tag"
        );
        loop {
            let stream = self.streams[from].as_mut().expect("no stream to peer");
            let (got_tag, payload) = match read_frame(stream) {
                Ok(frame) => frame,
                Err(e) => peer_lost(from, "receiving a message", e),
            };
            if got_tag == tag {
                return payload;
            }
            let items = decode_items(&payload).expect("malformed payload from peer");
            self.stash[from].push((got_tag, items));
        }
    }

    /// Receive one vote frame from `from`: any tag whose epoch bits match
    /// `base` (the low bit carries the sender's flag), stashing decoded
    /// mismatching frames like [`TcpComm::read_matching_raw`].
    fn recv_vote(&mut self, from: usize, base: u64) -> bool {
        if let Some(pos) = self.stash[from].iter().position(|(t, _)| *t & !1 == base) {
            return self.stash[from].swap_remove(pos).0 & 1 == 1;
        }
        loop {
            let stream = self.streams[from].as_mut().expect("no stream to peer");
            let (got_tag, payload) = match read_frame(stream) {
                Ok(frame) => frame,
                Err(e) => peer_lost(from, "receiving a vote", e),
            };
            if got_tag & !1 == base {
                return got_tag & 1 == 1;
            }
            let items = decode_items(&payload).expect("malformed payload from peer");
            self.stash[from].push((got_tag, items));
        }
    }

    /// Receive without wall-time accounting (see [`TcpComm::send_inner`]).
    fn recv_inner(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(from < self.size, "source rank {from} out of range");
        if from == self.rank {
            let pos = self
                .self_queue
                .iter()
                .position(|(t, _)| *t == tag)
                .expect("no self-send with this tag pending");
            return self.self_queue.remove(pos).expect("index in range").1;
        }
        if let Some(pos) = self.stash[from].iter().position(|(t, _)| *t == tag) {
            return self.stash[from].swap_remove(pos).1;
        }
        let payload = self.read_matching_raw(from, tag);
        decode_items(&payload).expect("malformed payload from peer")
    }
}

impl<T: WireItem> RankComm<T> for TcpComm<T> {
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

    /// Gather–release barrier through rank 0 on a reserved tag namespace.
    /// Each round uses a fresh epoch tag, so traffic from adjacent barriers
    /// can never be confused even if a rank races ahead.
    fn barrier(&mut self) {
        if self.size == 1 {
            return;
        }
        let _span = hisvsim_obs::span("comm", "barrier");
        let start = Instant::now();
        let payload_stats = self.stats;
        debug_assert!(
            self.barrier_epoch <= BARRIER_EPOCH_MASK,
            "barrier epoch escaped its tag namespace"
        );
        let tag = BARRIER_NS | self.barrier_epoch;
        self.barrier_epoch = (self.barrier_epoch + 1) & BARRIER_EPOCH_MASK;
        if self.rank == 0 {
            for from in 1..self.size {
                let _ = self.recv_inner(from, tag);
            }
            for to in 1..self.size {
                self.send_inner(to, tag, Vec::new());
            }
        } else {
            self.send_inner(0, tag, Vec::new());
            let _ = self.recv_inner(0, tag);
        }
        // The gather–release control frames are an implementation detail
        // of this transport, not payload traffic: LocalComm's barrier (a
        // shared-memory Barrier) charges nothing, and the two RankComm
        // implementations must account identically. Only the blocking
        // wall time is charged.
        self.stats = payload_stats;
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
    }

    /// Gather–release OR through rank 0 on the [`VOTE_NS`] namespace, with
    /// the flag in the tag's low bit — no payload travels. Charged exactly
    /// like the barrier: stats restored, only blocking wall time counted.
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
                agreed |= self.recv_vote(from, base);
            }
            for to in 1..self.size {
                self.send_inner(to, base | agreed as u64, Vec::new());
            }
            agreed
        } else {
            self.send_inner(0, base | flag as u64, Vec::new());
            self.recv_vote(0, base)
        };
        self.stats = payload_stats;
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
        agreed
    }

    /// Pairwise chunk-interleaved all-to-all-v.
    ///
    /// The naive schedule — blocking sends to every peer, then receives —
    /// deadlocks over real sockets once a pair's payload exceeds the
    /// kernel's socket buffering: both endpoints sit in `write_all`
    /// forever, each waiting for the other to drain. This implementation
    /// runs a *pairwise exchange schedule* instead (XOR rounds for the
    /// power-of-two worlds the engines use; a lexicographic pair order
    /// otherwise), and within a pair both sides strictly alternate
    /// bounded-size send and receive chunks — at most [`CHUNK_BYTES`] in
    /// flight per direction per step, which the kernel always absorbs.
    /// Payload size is therefore unbounded.
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
        let mut send_bufs: Vec<Option<Vec<T>>> = send_bufs.into_iter().map(Some).collect();
        recv[self.rank] = send_bufs[self.rank].take();
        let (rank, size) = (self.rank, self.size);
        if size.is_power_of_two() {
            // XOR rounds: in round r every rank exchanges with rank^r — a
            // perfect matching per round, so both endpoints of every pair
            // are in the same exchange at the same time.
            for round in 1..size {
                let peer = rank ^ round;
                let outgoing = send_bufs[peer].take().expect("one exchange per peer");
                recv[peer] = Some(self.exchange_chunked(peer, tag, outgoing));
            }
        } else {
            // Fallback for non-power-of-two worlds: walk all pairs (a, b)
            // in one global lexicographic order. The total order on pairs
            // admits no waiting cycle, so progress is guaranteed (just
            // with less round-parallelism than the XOR schedule).
            for a in 0..size {
                for b in a + 1..size {
                    let peer = if rank == a {
                        b
                    } else if rank == b {
                        a
                    } else {
                        continue;
                    };
                    let outgoing = send_bufs[peer].take().expect("one exchange per peer");
                    recv[peer] = Some(self.exchange_chunked(peer, tag, outgoing));
                }
            }
        }
        self.stats.wall_time_s += start.elapsed().as_secs_f64();
        recv.into_iter().map(|b| b.unwrap()).collect()
    }
}

/// Build a full in-process TCP world on localhost: every rank gets a real
/// socket mesh, but all endpoints live in this process. This is the test
/// and benchmark harness for [`TcpComm`] — the transport code exercised is
/// exactly what worker processes run, only the process boundary is missing.
pub fn tcp_world<T: WireItem>(size: usize, net: NetworkModel) -> io::Result<Vec<TcpComm<T>>> {
    assert!(size > 0, "a communicator needs at least one rank");
    let listeners: Vec<TcpListener> = (0..size)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<_>>()?;
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let peers = peers.clone();
            std::thread::spawn(move || TcpComm::connect_mesh(rank, size, net, listener, &peers))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("mesh setup thread panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mesh_roundtrip_and_stats_match_local_semantics() {
        let mut world = tcp_world::<u64>(2, NetworkModel::hdr100()).unwrap();
        let mut r1 = world.pop().unwrap();
        let mut r0 = world.pop().unwrap();
        let handle = thread::spawn(move || {
            r1.send(0, 7, vec![1, 2, 3]);
            let got = r1.recv(0, 8);
            assert_eq!(got, vec![9]);
            r1.stats()
        });
        assert_eq!(r0.recv(1, 7), vec![1, 2, 3]);
        r0.send(1, 8, vec![9]);
        let s1 = handle.join().unwrap();
        assert_eq!(s1.messages_sent, 1);
        assert_eq!(s1.bytes_sent, 24);
        assert!(s1.modeled_time_s > 0.0);
    }

    #[test]
    fn large_alltoallv_does_not_deadlock() {
        // Regression: a naive send-all-then-receive schedule wedges once a
        // pair's payload exceeds the kernel's socket buffering (~MBs). The
        // chunk-interleaved pairwise exchange must survive 16 MiB per
        // direction between two ranks.
        const ITEMS: usize = 2 * 1024 * 1024; // × 8 B = 16 MiB per direction
        let world = tcp_world::<u64>(2, NetworkModel::ideal()).unwrap();
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut comm| {
                thread::spawn(move || {
                    let me = comm.rank() as u64;
                    let send: Vec<Vec<u64>> = (0..comm.size())
                        .map(|to| vec![me * 10 + to as u64; ITEMS])
                        .collect();
                    let recv = comm.alltoallv(send, 11);
                    for (from, buf) in recv.iter().enumerate() {
                        assert_eq!(buf.len(), ITEMS);
                        assert!(buf.iter().all(|&v| v == from as u64 * 10 + me));
                    }
                    assert_eq!(comm.stats().bytes_sent, (ITEMS * 8) as u64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn uneven_exchanges_reuse_the_send_buffer_without_mixing_payloads() {
        // The incoming payload lands in the buffer the outgoing one leaves:
        // shorter, longer, empty and chunk-straddling sizes in both
        // directions, each item naming its sender and its index.
        let chunk = CHUNK_BYTES / 8;
        let sizes = [
            (0, 5),
            (5, 0),
            (3, chunk + 1),
            (chunk + 1, 3),
            (2 * chunk, 2 * chunk),
            (chunk - 1, 3 * chunk + 7),
            (3 * chunk + 7, chunk),
        ];
        let world = tcp_world::<u64>(2, NetworkModel::ideal()).unwrap();
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut comm| {
                thread::spawn(move || {
                    let me = comm.rank();
                    for (round, &(from0, from1)) in sizes.iter().enumerate() {
                        let (mine, theirs) = match me {
                            0 => (from0, from1),
                            _ => (from1, from0),
                        };
                        let payload = |rank: usize, len: usize| -> Vec<u64> {
                            (0..len as u64).map(|i| (rank as u64) << 32 | i).collect()
                        };
                        let mut send = vec![Vec::new(), Vec::new()];
                        send[1 - me] = payload(me, mine);
                        let recv = comm.alltoallv(send, round as u64);
                        assert_eq!(recv[1 - me], payload(1 - me, theirs), "round {round}");
                        assert!(recv[me].is_empty());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_and_alltoallv_synchronise_a_tcp_world() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let size = 4;
        let world = tcp_world::<usize>(size, NetworkModel::ideal()).unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut comm| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    comm.barrier();
                    assert_eq!(counter.load(Ordering::SeqCst), size as u64);
                    let me = comm.rank();
                    let send: Vec<Vec<usize>> =
                        (0..comm.size()).map(|to| vec![me * 100 + to]).collect();
                    let recv = comm.alltoallv(send, 3);
                    for (from, buf) in recv.iter().enumerate() {
                        assert_eq!(buf, &vec![from * 100 + me]);
                    }
                    comm.barrier();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
