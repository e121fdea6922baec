//! Worker-process mode (`hisvsim-net worker <control_addr> <rank>`).
//!
//! A worker is one rank of the process cluster: it checks in with the
//! pool, joins the TCP mesh **once**, then serves jobs from a persistent
//! command loop — on every job checking the shipped partition against the
//! circuit at the world's local width and fusing it (the rule the runtime
//! applies to a warm snapshot entry, [`validate_and_fuse`]),
//! running the *same* rank body the in-process world runs, and streaming
//! its slice back in the layout the body ended in, then giving it to the
//! process's [`buffers`] pool beside the exchange's: a warm worker's next
//! job allocates no amplitude buffer at all. A reader thread drains
//! [`WorkerCommand`] frames concurrently, so a `Cancel { epoch }` reaches
//! the running job's [`CancelToken`] mid-sweep; the rank body observes it
//! at its collective cancel-vote checkpoints. The module also holds the
//! in-process reference executor, which runs that body on threads.

use crate::pool::NetError;
use crate::proto::{
    LaunchSpec, RankReport, RankStatus, ShippedJob, WorkerCommand, WorkerHello, AMPS_TAG,
};
use crate::tcp::{PeerLost, TcpComm};
use crate::wire::{items_as_wire_bytes, recv_json, send_json, write_frame};
use hisvsim_circuit::Complex64;
use hisvsim_cluster::{run_spmd, NetworkModel, RankComm};
use hisvsim_core::{
    aggregate_outcomes, run_plan_rank, CancelToken, Cancelled, ExecControl, FusedPlan,
    FusedSinglePlan, Gathered, RankOutcome, RunReport,
};
use hisvsim_dag::CircuitDag;
use hisvsim_obs::log;
use hisvsim_runtime::validate_and_fuse;
use hisvsim_statevec::{buffers, StateVector};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LOG_TARGET: &str = "hisvsim-net::worker";

/// The fused plan of a shipped job for a world of `ranks` ranks. A shipped
/// partition is no more trusted than a persisted one: it is checked at the
/// world's local width and fused by [`validate_and_fuse`], afresh on every
/// job.
fn shipped_plan(job: &ShippedJob, ranks: usize) -> Result<Arc<FusedSinglePlan>, String> {
    let qubits = job.circuit.num_qubits();
    let local = qubits
        .checked_sub(ranks.trailing_zeros() as usize)
        .ok_or_else(|| format!("{qubits} qubits cannot spread over {ranks} ranks"))?;
    let dag = CircuitDag::from_circuit(&job.circuit);
    validate_and_fuse(job.plan.clone(), &job.circuit, &dag, local)
        .map_err(|e| format!("the shipped plan does not validate at {local} local qubits: {e}"))
}

/// Execute one rank of a shipped job on any [`RankComm`] world: the one
/// rank body ([`run_plan_rank`]) over the schedule the rank compiles from
/// the job's fused `plan` for its world size, voting on
/// `cancel` at its checkpoints — all ranks stop together or not at all.
/// Worker processes run it over [`TcpComm`] and
/// [`execute_local_reference`] over
/// [`LocalComm`](hisvsim_cluster::LocalComm), which is what makes the two
/// runs bit-identical by construction.
fn execute_shipped_rank<C: RankComm<Complex64>>(
    job: &ShippedJob,
    plan: &FusedSinglePlan,
    comm: &mut C,
    cancel: &CancelToken,
) -> Result<RankOutcome, Cancelled> {
    let control = ExecControl::new().with_cancel(cancel.clone());
    let schedule = FusedPlan::Single(plan).schedule(job.circuit.num_qubits(), comm.size());
    run_plan_rank(comm, &schedule, job.dispatch, &control)
}

/// Execute a [`ShippedJob`] on the *in-process* channel world — the
/// reference a process run is compared against. Runs the identical rank
/// body (`execute_shipped_rank`) over
/// [`LocalComm`](hisvsim_cluster::LocalComm) under an inert token, so the
/// two runs are bit-identical whenever the transport moves bytes faithfully.
/// The state comes back in the standard qubit order. Panics if the shipped
/// plan does not validate, where a worker would fail the job.
pub fn execute_local_reference(job: &ShippedJob, ranks: usize) -> (StateVector, RunReport) {
    let start = Instant::now();
    let plan = shipped_plan(job, ranks).unwrap_or_else(|message| panic!("{message}"));
    let outcomes =
        run_spmd::<Complex64, RankOutcome, _>(ranks, NetworkModel::ideal(), |mut comm| {
            execute_shipped_rank(job, &plan, &mut comm, &CancelToken::new())
                .expect("an inert token never cancels")
        });
    let gathered = Gathered::from_outcomes(outcomes);
    let wall = start.elapsed().as_secs_f64();
    aggregate_outcomes(
        "dist",
        "process",
        &job.circuit,
        job.plan.num_parts(),
        gathered,
        wall,
        None,
    )
}

/// Render a caught rank-body panic as a failure message: a typed
/// [`PeerLost`] payload gets its own message, anything else the panic's
/// string payload (or a placeholder).
fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(lost) = payload.downcast_ref::<PeerLost>() {
        return lost.to_string();
    }
    if let Some(msg) = payload.downcast_ref::<&str>() {
        return (*msg).to_string();
    }
    if let Some(msg) = payload.downcast_ref::<String>() {
        return msg.clone();
    }
    "rank body panicked".to_string()
}

/// The worker-process body: rendezvous and mesh **once**, then serve jobs
/// from the persistent command loop until `Shutdown` (or the pool's side
/// of the control connection closes). A reader thread drains commands so a
/// `Cancel { epoch }` lands on the running job's token mid-sweep; epochs
/// that already finished are ignored.
pub fn run_worker(control_addr: &str, rank: usize) -> Result<(), NetError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = listener.local_addr()?.to_string();
    let mut control = TcpStream::connect(control_addr)?;
    control.set_nodelay(true)?;
    send_json(&mut control, &WorkerHello { rank, data_addr })?;
    let spec: LaunchSpec = recv_json(&mut control)?;
    if spec.rank != rank {
        return Err(NetError::Protocol(format!(
            "launch spec addressed to rank {}, this worker is rank {rank}",
            spec.rank
        )));
    }
    log::debug(
        LOG_TARGET,
        "launch spec received",
        &[
            ("rank", &rank.to_string()),
            ("size", &spec.size.to_string()),
            ("base_epoch", &spec.epoch.to_string()),
        ],
    );
    let mut comm = TcpComm::<Complex64>::connect_mesh(rank, spec.size, listener, &spec.peers)?;

    // Command reader: Run/Shutdown are queued for the job loop; Cancel
    // fires the matching in-flight token directly (stale epochs miss the
    // map and are dropped). EOF on the control stream — the pool died —
    // reads as Shutdown.
    let (command_tx, command_rx) = mpsc::channel::<Option<(u64, ShippedJob, CancelToken)>>();
    let cancels: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::new(Mutex::new(HashMap::new()));
    let reader_cancels = Arc::clone(&cancels);
    let mut reader = control.try_clone()?;
    std::thread::spawn(move || loop {
        match recv_json::<WorkerCommand>(&mut reader) {
            Ok(WorkerCommand::Run(epoch, job)) => {
                let token = CancelToken::new();
                reader_cancels
                    .lock()
                    .expect("cancel map poisoned")
                    .insert(epoch, token.clone());
                if command_tx.send(Some((epoch, job, token))).is_err() {
                    return;
                }
            }
            Ok(WorkerCommand::Cancel(epoch)) => {
                if let Some(token) = reader_cancels
                    .lock()
                    .expect("cancel map poisoned")
                    .get(&epoch)
                {
                    token.cancel();
                }
            }
            Ok(WorkerCommand::Shutdown) | Err(_) => {
                let _ = command_tx.send(None);
                return;
            }
        }
    });

    while let Ok(Some((epoch, job, token))) = command_rx.recv() {
        // Per-job recorder hygiene on a resident worker: drop any stale
        // spans a previous job left in the ring, and track this job's
        // trace flag — an untraced job after a traced one must not keep
        // recording (and must not ship the traced job's leftovers).
        let _ = hisvsim_obs::drain();
        hisvsim_obs::set_enabled(job.trace);
        comm.reset_stats();
        comm.begin_job();
        // A plan that does not validate fails the job like a rank body that
        // panics: every rank checks the same job alike, so all of them
        // refuse it before any collective.
        let result = catch_unwind(AssertUnwindSafe(|| {
            shipped_plan(&job, spec.size)
                .map(|plan| execute_shipped_rank(&job, &plan, &mut comm, &token))
        }))
        .unwrap_or_else(|payload| Err(describe_panic(payload)));
        cancels.lock().expect("cancel map poisoned").remove(&epoch);
        match result {
            Ok(Ok(RankOutcome { figures, local })) => {
                log::debug(
                    LOG_TARGET,
                    "rank body complete",
                    &[
                        ("rank", &rank.to_string()),
                        ("epoch", &epoch.to_string()),
                        ("compute_s", &format!("{:.3}", figures.compute_time_s)),
                        ("exchanges", &figures.exchanges.to_string()),
                    ],
                );
                let spans = if job.trace {
                    hisvsim_obs::drain()
                } else {
                    Vec::new()
                };
                send_json(
                    &mut control,
                    &RankReport {
                        rank,
                        epoch,
                        status: RankStatus::Ok,
                        compute_time_s: figures.compute_time_s,
                        comm: figures.comm,
                        exchanges: figures.exchanges,
                        layout: figures.layout,
                        amp_count: local.len(),
                        spans,
                    },
                )?;
                write_frame(&mut control, AMPS_TAG, &items_as_wire_bytes(&local))?;
                buffers::give(local);
            }
            Ok(Err(Cancelled)) => {
                log::debug(
                    LOG_TARGET,
                    "job cancelled at a vote checkpoint",
                    &[("rank", &rank.to_string()), ("epoch", &epoch.to_string())],
                );
                // All ranks agreed before entering a part, so the mesh is
                // clean — report and stay resident for the next job.
                let _ = hisvsim_obs::drain();
                send_json(
                    &mut control,
                    &RankReport {
                        rank,
                        epoch,
                        status: RankStatus::Cancelled,
                        compute_time_s: 0.0,
                        comm: comm.stats(),
                        exchanges: 0,
                        layout: Vec::new(),
                        amp_count: 0,
                        spans: Vec::new(),
                    },
                )?;
            }
            Err(message) => {
                // Peer loss, a rank-body panic mid-collective or a refused
                // plan: the mesh state is undefined. Report the failure so
                // the pool can fail this job promptly, then exit — the pool
                // respawns the world for the next job.
                log::error(
                    LOG_TARGET,
                    "rank body failed",
                    &[
                        ("rank", &rank.to_string()),
                        ("epoch", &epoch.to_string()),
                        ("error", &message),
                    ],
                );
                let _ = report_failure(&mut control, rank, epoch, &comm, &message);
                return Err(NetError::Worker(message));
            }
        }
        hisvsim_obs::set_enabled(false);
    }
    Ok(())
}

fn report_failure<C: RankComm<Complex64>>(
    control: &mut TcpStream,
    rank: usize,
    epoch: u64,
    comm: &C,
    message: &str,
) -> Result<(), NetError> {
    send_json(
        control,
        &RankReport {
            rank,
            epoch,
            status: RankStatus::Failed(message.to_string()),
            compute_time_s: 0.0,
            comm: comm.stats(),
            exchanges: 0,
            layout: Vec::new(),
            amp_count: 0,
            spans: Vec::new(),
        },
    )?;
    Ok(())
}
