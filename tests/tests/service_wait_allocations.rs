//! `JobHandle::wait` hands the final state over instead of cloning it: on a
//! finished 16-qubit job (a 1 MiB state) the waiting thread allocates far
//! less than the state's size. A counting global allocator (this test binary
//! only, after `crates/statevec/tests/allocations.rs`) keeps per-thread byte
//! tallies, so the service's worker threads are not counted.

use hisvsim_circuit::generators;
use hisvsim_runtime::SimJob;
use hisvsim_service::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, which an allocator's own bookkeeping must not.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its locals are
    // gone.
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + size));
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

#[test]
fn wait_on_a_finished_job_allocates_less_than_its_state() {
    let qubits = 16;
    let state_bytes = 16usize << qubits;
    let service = SimService::start(ServiceConfig::new());
    let handle = service.submit(SimJob::new(generators::qft(qubits)).with_shots(64));
    while !handle.is_finished() {
        std::thread::yield_now();
    }
    for expect_state in [true, false] {
        let before = BYTES.with(Cell::get);
        let result = handle.wait().expect("job succeeded");
        let allocated = BYTES.with(Cell::get) - before;
        assert_eq!(result.state.is_some(), expect_state);
        assert!(
            allocated < state_bytes / 4,
            "wait() allocated {allocated} B beside a {state_bytes} B state"
        );
    }
    service.shutdown().expect("clean drain");
}
