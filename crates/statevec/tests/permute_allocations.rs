//! What `StateVector::permute_qubits` allocates and records: a warm call
//! takes its two tile buffers from the process's buffer pool and allocates
//! nothing, the identity touches nothing at all, and every other
//! permutation records one `kernel`/`permute` span carrying the bytes it
//! streamed. A counting global allocator (this test binary only) counts
//! every request.

use hisvsim_circuit::Complex64;
use hisvsim_statevec::StateVector;
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
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one `permute_qubits(perm)` of `state`.
fn allocations_of(state: &mut StateVector, perm: &[usize]) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    state.permute_qubits(perm);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// One test function: a second one running concurrently would be counted
// too, and the span recorder is process-wide.
#[test]
fn a_warm_permutation_allocates_nothing_and_the_identity_touches_nothing() {
    const QUBITS: usize = 17;
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    let one_thread = one_thread.expect("a one-thread pool");
    let amps = (0..1usize << QUBITS)
        .map(|i| Complex64::new(i as f64, 1.0))
        .collect();
    let mut state = StateVector::from_amplitudes(amps);
    let identity: Vec<usize> = (0..QUBITS).collect();
    let reversal: Vec<usize> = (0..QUBITS).rev().collect();
    let mut three_cycle = identity.clone();
    (three_cycle[0], three_cycle[5], three_cycle[16]) = (5, 16, 0);

    one_thread.install(|| {
        let untouched = state.clone();
        assert_eq!(allocations_of(&mut state, &identity), 0);
        assert!(state == untouched);
        for perm in [&reversal, &three_cycle] {
            // The first call may fault its tile buffers into the pool.
            state.permute_qubits(perm);
            assert_eq!(allocations_of(&mut state, perm), 0, "{perm:?}");
        }

        // Recording a span allocates, so spans are counted apart.
        hisvsim_obs::set_enabled(true);
        let _ = hisvsim_obs::drain();
        state.permute_qubits(&identity);
        assert!(
            hisvsim_obs::drain().is_empty(),
            "the identity recorded a span"
        );
        for (perm, passes) in [(&reversal, 1u64), (&three_cycle, 2)] {
            state.permute_qubits(perm);
            let spans = hisvsim_obs::drain();
            assert_eq!(spans.len(), 1, "{perm:?}: {spans:?}");
            assert_eq!(
                (spans[0].cat.as_str(), spans[0].name.as_str()),
                ("kernel", "permute")
            );
            assert_eq!(spans[0].bytes, (passes * 32) << QUBITS, "{perm:?}");
        }
        hisvsim_obs::set_enabled(false);
    });
}
