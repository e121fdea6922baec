//! Allocation budget of the part-switch exchange: one
//! `DistState::redistribute` allocates its send buffers — one per peer it
//! sends to, exactly the bytes that leave the rank between them: none for
//! the sub-cube that stays in place — and a few small tables, and nothing
//! that grows with the slice beyond that: no per-amplitude index vector, no
//! second slice. A counting global allocator (this test binary only, after
//! `crates/statevec/tests/allocations.rs`) keeps per-thread tallies, so each
//! rank thread measures its own exchange.

use hisvsim_circuit::Complex64;
use hisvsim_cluster::{run_spmd, NetworkModel};
use hisvsim_core::DistState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

/// What one thread has allocated so far.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocations: usize,
    bytes: usize,
    /// The largest single request within the window being measured.
    largest: usize,
    /// Bytes in requests of [`BUFFER_FLOOR`] or more: amplitude buffers, not
    /// offset tables.
    buffer_bytes: usize,
}

/// The smallest request counted as an amplitude buffer. The exchanges below
/// send 2^14 amplitudes or more per peer and build tables of 2^8 offsets or
/// fewer.
const BUFFER_FLOOR: usize = 16 << 10;

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, which an allocator's own bookkeeping must not.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocations: 0, bytes: 0, largest: 0, buffer_bytes: 0 })
    };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its locals are
    // gone.
    let _ = TALLY.try_with(|tally| {
        let mut t = tally.get();
        t.allocations += 1;
        t.bytes += size;
        t.largest = t.largest.max(size);
        if size >= BUFFER_FLOOR {
            t.buffer_bytes += size;
        }
        tally.set(t);
    });
}

// SAFETY: defers every operation to the system allocator; the tallies are
// thread-local statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What the calling thread allocates while `work` runs.
fn allocated_by(work: impl FnOnce()) -> Tally {
    let before = TALLY.with(Cell::get);
    TALLY.with(|tally| {
        tally.set(Tally {
            largest: 0,
            ..before
        })
    });
    work();
    let after = TALLY.with(Cell::get);
    Tally {
        allocations: after.allocations - before.allocations,
        bytes: after.bytes - before.bytes,
        largest: after.largest,
        buffer_bytes: after.buffer_bytes - before.buffer_bytes,
    }
}

#[test]
fn one_exchange_allocates_its_send_buffers_and_little_else() {
    let l = 16;
    let slice_bytes = (1usize << l) * std::mem::size_of::<Complex64>();
    for ranks in [2usize, 4] {
        let n = l + ranks.trailing_zeros() as usize;
        // Every rank bit trades places with a low slice bit: each rank sends
        // to every rank, amplitude by amplitude.
        let mut swapped: Vec<usize> = (0..n).collect();
        for bit in 0..n - l {
            swapped.swap(bit, l + bit);
        }
        let tallies =
            run_spmd::<Complex64, (Tally, Tally), _>(ranks, NetworkModel::ideal(), |mut comm| {
                let mut state = DistState::new(&mut comm, n);
                let first = allocated_by(|| state.redistribute(swapped.clone()));
                assert_eq!(state.layout(), swapped);
                // The way back finds its buffers in what the first exchange
                // received.
                let back = allocated_by(|| state.redistribute((0..n).collect()));
                (first, back)
            });
        // A rank keeps the sub-cube whose rank bits are its own, in place,
        // and sends the rest: (R - 1) / R of its slice.
        let departing = slice_bytes / ranks * (ranks - 1);
        for (rank, (first, back)) in tallies.into_iter().enumerate() {
            assert_eq!(
                first.buffer_bytes, departing,
                "rank {rank} of {ranks}: buffers for the slice of {slice_bytes} bytes"
            );
            assert!(
                first.bytes < departing + slice_bytes / 8,
                "rank {rank} of {ranks}: {} bytes allocated to send {departing}",
                first.bytes
            );
            assert!(
                first.largest <= slice_bytes / 2,
                "rank {rank} of {ranks}: one allocation of {} bytes, a per-peer buffer is {}",
                first.largest,
                slice_bytes / ranks
            );
            assert!(
                first.allocations <= 24 + 4 * ranks,
                "rank {rank} of {ranks}: {} allocations",
                first.allocations
            );
            assert!(
                back.bytes < slice_bytes / 8 && back.allocations <= 24 + 4 * ranks,
                "rank {rank} of {ranks}: the second exchange allocated {} bytes in {} pieces",
                back.bytes,
                back.allocations
            );
        }
    }
}
