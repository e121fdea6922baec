//! What the engines allocate for their vectors once the process's buffer pool
//! is warm. A job's state and its sweeps' tile buffers come from the pool
//! and go back to it — the state when its caller drops it — so a warm job
//! whose caller dropped the previous result allocates no vector at all — on
//! a world of one whose passes stride tiles, on two thread-world ranks,
//! after a cancelled job too — and neither does a worker's rank body over
//! TCP, which gives its slice back once shipped. A result its caller still
//! holds is never handed out again. A counting
//! global allocator (this test binary only, after
//! `crates/statevec/tests/allocations.rs`) counts the requests large enough
//! to be an amplitude vector.

use hisvsim_circuit::{generators, Circuit, Complex64};
use hisvsim_cluster::{NetworkModel, RankComm};
use hisvsim_core::{
    run_plan, run_plan_rank, CancelToken, Cancelled, ExecControl, FusedPlan, FusedSinglePlan,
    FusedTwoLevelPlan, HierConfig, HierarchicalSimulator, RunSpec,
};
use hisvsim_dag::CircuitDag;
use hisvsim_net::tcp_world;
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_statevec::fusion::{self, TILE};
use hisvsim_statevec::{
    buffers, simd_available, ApplyOptions, FusedCircuit, KernelDispatch, StateVector,
    DEFAULT_FUSION_WIDTH,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Width of the states; two tiles, so passes may stride.
const QUBITS: usize = 17;
/// Working-set limit of the partitioned plans.
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

/// The counter is process-wide: a test counts only while it holds this.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// A control whose token fires at the run's first progress report.
fn cancelling() -> ExecControl {
    let token = CancelToken::new();
    let fire = token.clone();
    ExecControl::new()
        .with_cancel(token)
        .with_progress(move |_, _| fire.cancel())
}

/// Run `plan` on a thread world of `ranks`.
fn job(
    circuit: &Circuit,
    plan: FusedPlan<'_>,
    ranks: usize,
    control: &ExecControl,
) -> Result<StateVector, Cancelled> {
    let dispatch = KernelDispatch::default();
    let spec = RunSpec::new("test", "dagP", ranks, NetworkModel::ideal(), dispatch);
    let schedule = plan.schedule(circuit.num_qubits(), ranks);
    run_plan(circuit, &schedule, spec, control).map(|(state, _)| state)
}

/// Take every kept buffer a tile buffer could be given, until the pool
/// makes a fresh one.
fn drain_tile_widths() -> Vec<Vec<Complex64>> {
    let mut out = Vec::new();
    loop {
        let (buffer, fresh) = vectors_of(|| buffers::take(TILE));
        if fresh > 0 {
            return out;
        }
        out.push(buffer);
    }
}

#[test]
fn tile_buffers_are_allocated_once_and_never_take_a_kept_state() {
    let _serial = serial();
    let _ = simd_available();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builds");

    // A single part over every qubit, on one thread: the state and at most
    // one tile buffer, and the result is the flat fused executor's, bit for
    // bit.
    let qft = generators::qft(QUBITS);
    let whole = plan(&qft, QUBITS);
    assert_eq!(whole.parts.len(), 1);
    let sim = HierarchicalSimulator::new(HierConfig::new(QUBITS));
    let strided = fusion::strided_passes();
    let (run, vectors) =
        vectors_of(|| one_thread.install(|| sim.run_with_fused_plan(&qft, &whole)));
    assert!(
        fusion::strided_passes() > strided,
        "qft({QUBITS}) strides no tile"
    );
    assert!(
        vectors <= 2,
        "limit = n must allocate the state, a tile buffer and nothing else"
    );
    let mut flat = StateVector::zero_state(QUBITS);
    FusedCircuit::new(&qft, DEFAULT_FUSION_WIDTH).apply(&mut flat, &ApplyOptions::default());
    assert_eq!(run.state, flat);
    drop(run);
    let (_, warm) = vectors_of(|| sim.run_with_fused_plan(&qft, &whole));
    assert_eq!(warm, 0, "the dropped result is the next job's state");

    // A result its caller holds is never handed out again: hold every result
    // until a job finds no kept state of its width and allocates its own.
    let mut held = Vec::new();
    let mut allocated = 0;
    while allocated == 0 && held.len() < 8 {
        let (run, vectors) = vectors_of(|| sim.run_with_fused_plan(&qft, &whole));
        assert!(vectors <= 1, "a held result costs its state at most");
        held.push(run.state);
        allocated = vectors;
    }
    assert_eq!(allocated, 1, "the pool ran dry of states at some point");
    let mut at: Vec<_> = held
        .iter()
        .map(|state| state.amplitudes().as_ptr())
        .collect();
    at.sort_unstable();
    at.dedup();
    assert_eq!(at.len(), held.len(), "two held results share a buffer");
    assert!(held.iter().all(|state| *state == flat));
    drop(held);

    // A plan of several parts whose passes stride tiles, on one thread so
    // the count is exact: once a run has left its tile buffer and its
    // result in the pool, a run allocates nothing.
    let qaoa = generators::by_name("qaoa", QUBITS);
    let parts = plan(&qaoa, LIMIT);
    assert!(parts.parts.len() > 1);
    let control = ExecControl::default();
    let sequential = |control: &ExecControl| {
        one_thread.install(|| job(&qaoa, FusedPlan::Single(&parts), 1, control))
    };
    let strided = fusion::strided_passes();
    let first = sequential(&control).expect("an inert control cannot cancel");
    assert!(
        fusion::strided_passes() > strided,
        "the plan strides no tile"
    );
    drop(sequential(&control));
    assert!(buffers::retained_bytes() >= VECTOR_BYTES as u64);
    let (second, warm) = vectors_of(|| sequential(&control));
    assert_eq!(warm, 0, "a warm run allocates no state and no tile buffer");
    assert_eq!(second.as_ref(), Ok(&first));

    // A run cancelled between passes gives back its tile buffer and its
    // state: the next run finds both and allocates nothing.
    assert_eq!(sequential(&cancelling()), Err(Cancelled));
    let (next, after_cancel) = vectors_of(|| sequential(&control));
    assert_eq!(
        after_cancel, 0,
        "the cancelled run's slice is the next state"
    );
    assert_eq!(next.as_ref(), Ok(&first));

    // A tile buffer never takes a kept state: with two states kept and
    // every buffer of the tile width out, a run takes one state and
    // allocates a fresh tile buffer, and the other state stays for the next
    // run.
    drop((second, next));
    let out = drain_tile_widths();
    let (third, fresh) = vectors_of(|| sequential(&control));
    assert_eq!(fresh, 1, "only the tile buffer is new");
    assert_eq!(third.as_ref(), Ok(&first));
    let (_, warm) = vectors_of(|| sequential(&control));
    assert_eq!(warm, 0, "the spare state served the next run");
    out.into_iter().for_each(buffers::give);

    // Two runs at once, each sweeping on the default pool: the same state.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let run = job(&qaoa, FusedPlan::Single(&parts), 1, &control);
                assert_eq!(run.as_ref(), Ok(&first));
            });
        }
    });
}

#[test]
fn a_warm_two_rank_thread_world_allocates_nothing_once_its_last_result_is_dropped() {
    let _serial = serial();
    let circuit = generators::qft(QUBITS);
    let dist = plan(&circuit, QUBITS - 1);
    let dag = CircuitDag::from_circuit(&circuit);
    let ml = MultilevelPartitioner
        .partition(&dag, QUBITS - 1, LIMIT)
        .expect("the limits admit every gate");
    let multilevel = FusedTwoLevelPlan::new(&circuit, &dag, ml);
    let inert = ExecControl::default();
    for (engine, plan) in [
        ("dist", FusedPlan::Single(&dist)),
        ("multilevel", FusedPlan::Two(&multilevel)),
    ] {
        let first = job(&circuit, plan, 2, &inert).expect("an inert control cannot cancel");
        drop(job(&circuit, plan, 2, &inert));
        let (second, warm) = vectors_of(|| job(&circuit, plan, 2, &inert));
        assert_eq!(
            warm, 0,
            "{engine}: state, slices and messages come from the pool"
        );
        assert_eq!(second.as_ref(), Ok(&first), "{engine}");
        drop(second);

        // A cancelled job gives its slices back: the next one is as warm.
        assert_eq!(job(&circuit, plan, 2, &cancelling()), Err(Cancelled));
        let (next, after_cancel) = vectors_of(|| job(&circuit, plan, 2, &inert));
        assert_eq!(after_cancel, 0, "{engine}: the job after a cancelled one");
        assert_eq!(next.as_ref(), Ok(&first), "{engine}");
    }
}

#[test]
fn a_warm_worker_rank_body_allocates_nothing_once_its_slice_is_given_back() {
    let _serial = serial();
    let circuit = generators::qft(QUBITS);
    let dist = plan(&circuit, QUBITS - 1);
    let schedule = FusedPlan::Single(&dist).schedule(QUBITS, 2);
    let mut mesh = tcp_world::<Complex64>(2, NetworkModel::ideal()).expect("loopback mesh");
    // What `run_worker` does per job on every rank: run the rank body and,
    // once the slice is shipped (here: hashed), give it back. `fire` cancels
    // rank 0's token at its first report; the vote stops both ranks.
    let mut run = |fire: bool| -> Vec<Result<u64, Cancelled>> {
        std::thread::scope(|scope| {
            let ranks: Vec<_> = (mesh.iter_mut())
                .map(|comm| {
                    let schedule = &schedule;
                    scope.spawn(move || {
                        comm.begin_job();
                        let control = match fire && comm.rank() == 0 {
                            true => cancelling(),
                            false => ExecControl::default(),
                        };
                        let outcome = run_plan_rank(comm, schedule, Default::default(), &control)?;
                        let mut shipped = DefaultHasher::new();
                        for amp in &outcome.local {
                            (amp.re.to_bits(), amp.im.to_bits()).hash(&mut shipped);
                        }
                        buffers::give(outcome.local);
                        Ok(shipped.finish())
                    })
                })
                .collect();
            (ranks.into_iter())
                .map(|rank| rank.join().expect("rank body panicked"))
                .collect()
        })
    };
    let first = run(false);
    let (second, warm) = vectors_of(|| run(false));
    assert_eq!(warm, 0, "a warm rank body allocates no vector");
    assert_eq!(second, first);
    assert!(run(true).iter().all(Result::is_err));
    let (next, after_cancel) = vectors_of(|| run(false));
    assert_eq!(after_cancel, 0, "the job after a cancelled one");
    assert_eq!(next, first);
}
