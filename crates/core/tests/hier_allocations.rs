//! What the hier engine allocates for its vectors: a part with no free
//! qubits runs on the state itself, a plan's second run finds its inner
//! vectors in the process-wide pool, and the pool keeps no more of them than
//! one parallel sweep uses. A counting global allocator (this test binary
//! only, after `crates/statevec/tests/allocations.rs`) counts the requests
//! large enough to be an amplitude vector.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::{part_mode, scratch_kept, PartMode};
use hisvsim_core::{FusedPart, FusedSinglePlan, HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use hisvsim_statevec::{
    simd_available, ApplyOptions, FusedCircuit, StateVector, DEFAULT_FUSION_WIDTH,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Width of the states; two tiles, so parts may gather.
const QUBITS: usize = 17;
/// Width of the gathered parts' inner vectors.
const LIMIT: usize = 12;
/// Bytes of the smallest amplitude vector a run here can want.
const VECTOR_BYTES: usize = 16 << LIMIT;

struct Counting;

static VECTORS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= VECTOR_BYTES {
        VECTORS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to the system allocator; the counter is a
// statistic and publishes nothing.
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

fn plan(circuit: &Circuit, limit: usize) -> FusedSinglePlan {
    let dag = CircuitDag::from_circuit(circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("the limit admits every gate");
    FusedSinglePlan::new(circuit, &dag, partition)
}

/// Vector-sized allocations made while `run` runs.
fn vectors_of<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = VECTORS.load(Ordering::Relaxed);
    let out = run();
    (out, VECTORS.load(Ordering::Relaxed) - before)
}

// One test function: a second one running concurrently would be counted too.
#[test]
fn inner_vectors_are_allocated_once_and_only_where_a_part_gathers() {
    let _ = simd_available();

    // A single part over every qubit: the state is the only vector, and the
    // result is the flat fused executor's, bit for bit.
    let qft = generators::qft(QUBITS);
    let whole = plan(&qft, QUBITS);
    assert_eq!(whole.parts.len(), 1);
    let sim = HierarchicalSimulator::new(HierConfig::new(QUBITS));
    let (run, vectors) = vectors_of(|| sim.run_with_fused_plan(&qft, &whole));
    assert_eq!(
        vectors, 1,
        "limit = n must allocate the state and nothing else"
    );
    let mut flat = StateVector::zero_state(QUBITS);
    FusedCircuit::new(&qft, DEFAULT_FUSION_WIDTH).apply(&mut flat, &ApplyOptions::default());
    assert_eq!(run.state, flat);
    assert_eq!(scratch_kept(), (0, 0), "nothing gathered yet");

    // A plan with a gathered part, on one thread so the count is exact: its
    // first run allocates an inner vector, its second finds it in the pool.
    let qaoa = generators::by_name("qaoa", QUBITS);
    let parts = plan(&qaoa, LIMIT);
    assert!(parts.parts.len() > 1);
    let gathers = |part: &FusedPart| part_mode(QUBITS, &part.working_set, &part.inner);
    assert!(parts
        .parts
        .iter()
        .any(|part| gathers(part) == PartMode::Gather));
    let sim = HierarchicalSimulator::new(HierConfig::new(LIMIT));
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builds");
    let sequential = || one_thread.install(|| sim.run_with_fused_plan(&qaoa, &parts));
    let (first, cold) = vectors_of(sequential);
    assert_eq!(
        cold, 2,
        "the state and the first gathered part's inner vector"
    );
    let (kept, bytes) = scratch_kept();
    assert!(
        kept == 1 && bytes >= VECTOR_BYTES as u64,
        "{kept} kept, {bytes} B"
    );
    let (second, warm) = vectors_of(sequential);
    assert_eq!(
        warm, 1,
        "a warm run allocates its state and no inner vector"
    );
    assert_eq!(first.state, second.state);

    // Two runs at once take more vectors than the pool keeps: it never grows
    // past what one parallel sweep uses.
    let together = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                together.wait();
                let run = sim.run_with_fused_plan(&qaoa, &parts);
                assert_eq!(run.state, first.state);
            });
        }
    });
    assert!(scratch_kept().0 <= rayon::current_num_threads());
}
