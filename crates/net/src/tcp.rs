//! [`TcpComm`]: the multi-process [`RankComm`] transport.
//!
//! A world of `N` ranks is a full mesh of TCP connections — one stream per
//! rank pair, established by a rendezvous handshake: every rank opens a
//! listener, the addresses are distributed (by the launcher, or by
//! [`tcp_world`] for in-process tests), rank `i` connects to every rank
//! `j < i` and accepts connections from every `j > i`; the first frame on
//! each connection is a hello carrying the connecting rank.
//!
//! The transport supplies only the trait's primitives: a tagged frame
//! written to a peer's stream, a per-peer stash for frames read ahead of
//! their matching receive, self-sends through a local queue, and a
//! chunk-interleaved pairwise swap. The collectives — send/recv, barrier,
//! vote, all-to-all-v — and their [`CommStats`](hisvsim_cluster::CommStats)
//! accounting are `RankComm`'s provided methods, the same code
//! [`LocalComm`](hisvsim_cluster::LocalComm) runs.

use crate::wire::{
    decode_items, items_as_wire_bytes, read_frame, read_items_frame_into, write_frame, WireItem,
};
use hisvsim_cluster::{Endpoint, NetworkModel, RankComm};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Tag of the rendezvous hello frame (outside the engines' tag space).
const HELLO_TAG: u64 = 0x0048_454C_4C4F_0000;

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

/// Upper bound on the bytes a pairwise swap puts in flight per direction
/// per step (see [`TcpComm::swap`]): far below any kernel's socket
/// buffering, so alternating chunk sends can never wedge.
const CHUNK_BYTES: usize = 64 * 1024;

/// One rank's endpoint of a multi-process TCP world.
pub struct TcpComm<T: WireItem> {
    rank: usize,
    size: usize,
    /// One stream per peer (`None` at this rank's own slot).
    streams: Vec<Option<TcpStream>>,
    /// Out-of-order messages per peer, waiting for a matching take.
    stash: Vec<Vec<(u64, Vec<T>)>>,
    /// Self-sends, delivered locally in FIFO order per tag.
    self_queue: VecDeque<(u64, Vec<T>)>,
    endpoint: Endpoint,
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
    /// listener, consumed here. A world that is not a power of two ranks is
    /// refused with `InvalidData` (a worker reads `size` off its control
    /// channel).
    pub fn connect_mesh(
        rank: usize,
        size: usize,
        listener: TcpListener,
        peers: &[String],
    ) -> io::Result<Self> {
        if !size.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("a world needs a power-of-two rank count, got {size}"),
            ));
        }
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
            streams,
            stash: (0..size).map(|_| Vec::new()).collect(),
            self_queue: VecDeque::new(),
            endpoint: Endpoint::default(),
        })
    }

    /// Reset per-job transport state on a persistent mesh: the vote round
    /// counter restarts at 0 (every rank calls this at the same job
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
        self.endpoint.vote_round = 0;
    }

    /// Read raw frames from `from`'s stream until one matches `tag` under
    /// `mask`, stashing (decoded) mismatching frames for later matching
    /// takes. The caller guarantees no *stashed* frame matches.
    fn read_matching_raw(&mut self, from: usize, tag: u64, mask: u64) -> (u64, Vec<u8>) {
        debug_assert!(
            !self.stash[from].iter().any(|(t, _)| t & mask == tag),
            "raw read would bypass a stashed message with the same tag"
        );
        loop {
            let stream = self.streams[from].as_mut().expect("no stream to peer");
            let (got_tag, payload) = match read_frame(stream) {
                Ok(frame) => frame,
                Err(e) => peer_lost(from, "receiving a message", e),
            };
            if got_tag & mask == tag {
                return (got_tag, payload);
            }
            let items = decode_items(&payload).expect("malformed payload from peer");
            self.stash[from].push((got_tag, items));
        }
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
    fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    #[inline]
    fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    fn post(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        if to == self.rank {
            self.self_queue.push_back((tag, payload));
            return;
        }
        let stream = self.streams[to].as_mut().expect("no stream to peer");
        if let Err(e) = write_frame(stream, tag, &items_as_wire_bytes(&payload)) {
            peer_lost(to, "sending a message", e);
        }
    }

    fn take(&mut self, from: usize, tag: u64, mask: u64) -> (u64, Vec<T>) {
        let matches = |(t, _): &(u64, Vec<T>)| t & mask == tag;
        if from == self.rank {
            let pos = self
                .self_queue
                .iter()
                .position(matches)
                .expect("no self-send with this tag pending");
            return self.self_queue.remove(pos).expect("index in range");
        }
        if let Some(pos) = self.stash[from].iter().position(matches) {
            return self.stash[from].remove(pos);
        }
        let (got_tag, payload) = self.read_matching_raw(from, tag, mask);
        let items = decode_items(&payload).expect("malformed payload from peer");
        (got_tag, items)
    }

    /// Symmetric bounded-buffer swap with one peer: both sides send a small
    /// item-count header, then strictly alternate sending and receiving
    /// chunks of at most `CHUNK_BYTES`. Because the two endpoints follow
    /// the identical schedule, no more than one chunk per direction is ever
    /// in flight between a matched send/receive step — the kernel's socket
    /// buffers always absorb it, so the swap never deadlocks regardless of
    /// payload size (the failure mode of a naive send-all-then-receive
    /// schedule).
    ///
    /// The incoming payload is received into the buffer the outgoing one
    /// leaves in: chunk `k` arrives only after chunk `k` has been written to
    /// the socket, and lands on the same item range, so a swap of equal
    /// sizes (every redistribution between two ranks) allocates nothing and
    /// touches no fresh page.
    fn swap(&mut self, peer: usize, tag: u64, payload: Vec<T>) -> Vec<T> {
        debug_assert_ne!(peer, self.rank);
        let my_count = payload.len();
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
        // peer writes nothing else to this stream until its swap ends.
        let (_, header) = self.read_matching_raw(peer, tag, !0);
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
}

/// Build a full in-process TCP world on localhost: every rank gets a real
/// socket mesh, but all endpoints live in this process. This is the test
/// and benchmark harness for [`TcpComm`] — the transport code exercised is
/// exactly what worker processes run, only the process boundary is missing.
///
/// `_network` is not read: a world only counts its messages, and
/// [`NetworkModel::time`] prices them after the run. The parameter stays
/// because the benchmark adapter calls this function with it; it goes when
/// the adapter next changes (ROADMAP item 12a).
pub fn tcp_world<T: WireItem>(size: usize, _network: NetworkModel) -> io::Result<Vec<TcpComm<T>>> {
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
            std::thread::spawn(move || TcpComm::connect_mesh(rank, size, listener, &peers))
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
        assert_eq!(s1.payload_messages, 1);
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
