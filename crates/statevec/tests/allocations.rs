//! Allocation budget of the fused sweep: per-op set-up may allocate, the
//! per-tile, per-block and per-group loops may not. A counting global
//! allocator (this test binary only) measures `FusedCircuit::apply` on states
//! of 2 and of 4 tiles: the count must be the same, and no more than one per
//! fused op.

use hisvsim_circuit::generators;
use hisvsim_statevec::{simd_available, ApplyOptions, FusedCircuit, StateVector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to the system allocator; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one sequential `apply` of `fused` on `qubits` qubits.
fn allocations_of_apply(fused: &FusedCircuit, qubits: usize) -> usize {
    let mut state = StateVector::zero_state(qubits);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    fused.apply(&mut state, &ApplyOptions::sequential());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// One test function: a second one running concurrently would be counted too.
#[test]
fn fused_apply_allocates_per_op_not_per_tile() {
    // The dispatch is resolved once per process, reading the environment:
    // not a cost of any sweep.
    let _ = simd_available();
    // Dense groups, solo gates (Toffolis in the adder), diagonal runs (qft).
    for name in ["random", "adder", "qft"] {
        let circuit = match name {
            "random" => generators::random_circuit(16, 90, 0xA110C),
            _ => generators::by_name(name, 12),
        };
        let fused = FusedCircuit::new(&circuit, 3);
        let two_tiles = allocations_of_apply(&fused, 17);
        let four_tiles = allocations_of_apply(&fused, 18);
        assert_eq!(
            two_tiles, four_tiles,
            "{name}: allocations grew with the number of tiles"
        );
        assert!(
            two_tiles <= fused.num_ops(),
            "{name}: {two_tiles} allocations for {} ops",
            fused.num_ops()
        );
    }
}
