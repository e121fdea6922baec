//! A part's passes are fixed by the plan alone, so the thread world and a
//! worker-process world of one dist job run every part alike: with the recorder on, each rank leaves one `part` span per part
//! (`ws=… passes=…`), the workers ship theirs back, and the two worlds' spans
//! read the same. Alone in its test binary because the span recorder and the
//! strided-pass tally are process-global.

use hisvsim_circuit::generators;
use hisvsim_core::CancelToken;
use hisvsim_dag::CircuitDag;
use hisvsim_net::{execute_local_reference, ShippedJob, WorkerPool};
use hisvsim_partition::Strategy;
use hisvsim_statevec::fusion;
use std::path::PathBuf;

/// The `part` spans recorded since the last drain, as sorted details.
fn drained_parts() -> Vec<String> {
    let mut parts: Vec<String> = hisvsim_obs::drain()
        .into_iter()
        .filter(|span| span.cat == "kernel" && span.name == "part")
        .map(|span| span.detail)
        .collect();
    parts.sort();
    parts
}

#[test]
fn thread_and_process_worlds_decide_every_part_alike() {
    let workers = 2;
    // 18 local qubits: above one tile, so passes stride tiles.
    let circuit = generators::by_name("qaoa", 19);
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP
        .partition(&dag, 18)
        .expect("qaoa partitions at the local width");
    let job = ShippedJob {
        circuit,
        dispatch: Default::default(),
        plan: partition,
        trace: true,
    };
    let pool =
        WorkerPool::with_worker_binary(workers, PathBuf::from(env!("CARGO_BIN_EXE_hisvsim-net")));

    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    let strided = fusion::strided_passes();
    let (threads_state, _) = execute_local_reference(&job, workers);
    let strided = fusion::strided_passes() - strided;
    let on_threads = drained_parts();
    let (processes_state, _) = pool
        .execute(&job, &CancelToken::new())
        .expect("process world runs");
    let on_processes = drained_parts();
    hisvsim_obs::set_enabled(false);

    assert!(strided > 0, "no pass strides a tile");
    assert!(on_threads.iter().any(|part| !part.ends_with(" passes=1")));
    assert_eq!(on_threads, on_processes);
    assert_eq!(
        threads_state, processes_state,
        "and so the states agree bit for bit"
    );
}
