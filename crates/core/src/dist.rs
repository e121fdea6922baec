//! The distributed (multi-rank) HiSVSIM engine of Sec. III-D.
//!
//! The `n`-qubit state vector is distributed over `2^p` virtual ranks: under
//! the current *layout* (a permutation of qubits onto bit positions), the top
//! `p` positions select the owning rank and the low `l = n - p` positions
//! index the rank's local slice. A part of the partitioned circuit is
//! executable when all of its working-set qubits sit in local positions;
//! switching to the next part therefore triggers at most one global
//! redistribution (an all-to-all-v over the virtual interconnect), instead of
//! the per-gate exchanges a circuit-agnostic simulator needs.
//!
//! The module also holds the one rank body every planned engine runs,
//! [`run_plan_rank`]: the distributed engine is its single-level plan on R
//! ranks, the multi-level engine ([`crate::multilevel`]) its two-level plan,
//! and the single-node engine ([`crate::hier`]) its single-level plan on a
//! world of one. The same [`DistState`] machinery also backs the IQS-style
//! baseline ([`crate::baseline`]).

use crate::exchange::ExchangePlan;
use crate::exec::ExecControl;
use crate::fusedplan::{FusedPlan, FusedSinglePlan, Pass, PlanSchedule};
use crate::hier::open_part;
use crate::metrics::RunReport;
use hisvsim_circuit::{Circuit, Complex64, Gate, UnitaryMatrix};
use hisvsim_cluster::{on_threads, run_spmd, CommStats, LocalComm, NetworkModel, RankComm};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_partition::{PartitionBuildError, Strategy};
use hisvsim_statevec::fusion::TILE;
use hisvsim_statevec::kernels::{apply_gate_with_matrix, uses_dense_matrix};
use hisvsim_statevec::{
    buffers, ApplyOptions, CancelToken, Cancelled, FusedCircuit, FusedOp, KernelDispatch,
    StateVector,
};
use std::time::Instant;

/// A gate bundled with its precomputed dense matrix (when its kernel path
/// consumes one), so repeated applications — one per virtual rank, each with
/// a remapped qubit list — share a single `gate.matrix()` evaluation.
#[derive(Debug, Clone)]
pub struct PreparedGate {
    /// The gate as written (global qubit ids).
    pub gate: Gate,
    matrix: Option<UnitaryMatrix>,
}

impl PreparedGate {
    /// Precompute the matrix for `gate` if its kernel dispatch needs one.
    pub fn new(gate: &Gate) -> Self {
        Self {
            gate: gate.clone(),
            matrix: uses_dense_matrix(gate).then(|| gate.matrix()),
        }
    }

    /// The precomputed dense matrix (None for matrix-free fast-path kinds).
    pub fn matrix(&self) -> Option<&UnitaryMatrix> {
        self.matrix.as_ref()
    }
}

/// Prepare a gate list once so every rank can apply it matrix-free.
pub fn prepare_gates(gates: &[Gate]) -> Vec<PreparedGate> {
    gates.iter().map(PreparedGate::new).collect()
}

/// Message tag namespace for state redistributions.
const TAG_EXCHANGE: u64 = 0x5100;

/// The per-rank distributed state: a local slice of the global state vector
/// plus the qubit layout shared (by construction) by all ranks.
///
/// Generic over the [`RankComm`] implementation, so the same engine bodies
/// run on the in-process channel world ([`LocalComm`]) and on
/// `hisvsim-net`'s multi-process `TcpComm` without any change.
pub struct DistState<'a, C: RankComm<Complex64>> {
    comm: &'a mut C,
    /// Local slice of `2^l` amplitudes.
    local: StateVector,
    /// `layout[q]` = bit position of qubit `q` in the distributed index
    /// (positions `0..l` are local, `l..n` select the rank).
    layout: Vec<usize>,
    n: usize,
    l: usize,
    /// Wall-clock seconds spent applying gates locally.
    pub compute_time_s: f64,
    /// Number of global redistributions performed.
    pub exchanges: usize,
    exchange_tag: u64,
    /// Kernel dispatch for every local sweep ([`KernelDispatch::Auto`] by
    /// default; forced scalar for differential validation).
    dispatch: KernelDispatch,
    /// The world's core budget, which the ranks still sweeping split (see
    /// [`share`]).
    cores: usize,
}

/// The threads each of `live_ranks` ranks sweeps on out of a world's
/// `cores`: an even split, at least one. Every rank of a world computes the
/// same share for the same pass, so the ranks together never ask for more
/// than the budget (or one thread each, when they outnumber it).
pub(crate) fn share(cores: usize, live_ranks: usize) -> usize {
    (cores / live_ranks).max(1)
}

impl<'a, C: RankComm<Complex64>> DistState<'a, C> {
    /// Initialise the distributed `|0…0⟩` state over the communicator's
    /// ranks. The rank count must be a power of two not exceeding `2^n`.
    /// The slice comes from the [`buffers`] pool and goes back to it when
    /// the state is dropped unfinished (a cancelled job's).
    ///
    /// The world's core budget is the thread count the calling thread would
    /// use ([`rayon::current_num_threads`]): in a thread world the caller's
    /// (`run_spmd` installs it in every rank thread), in a worker process
    /// the host's, which assumes the ranks share one host, as the worker
    /// pool's localhost processes do. Every rank is live at `|0…0⟩`'s fill,
    /// so each zero-fills its slice on its share of all ranks.
    pub fn new(comm: &'a mut C, num_qubits: usize) -> Self {
        let ranks = comm.size();
        assert!(ranks.is_power_of_two());
        let p = ranks.trailing_zeros() as usize;
        assert!(
            p <= num_qubits,
            "more rank bits ({p}) than qubits ({num_qubits})"
        );
        let l = num_qubits - p;
        // Zeroed once, kept or fresh; a fresh slice faults its pages in here,
        // at small widths a noticeable share of a rank's wall, so it gets a
        // span of its own.
        let cores = rayon::current_num_threads();
        let init = hisvsim_obs::span("kernel", "init").bytes(16 << l);
        let mut local = on_threads(share(cores, ranks), || StateVector::uninitialized(l));
        if comm.rank() == 0 {
            local.amplitudes_mut()[0] = Complex64::ONE;
        }
        drop(init);
        Self {
            comm,
            local,
            layout: (0..num_qubits).collect(),
            n: num_qubits,
            l,
            compute_time_s: 0.0,
            exchanges: 0,
            exchange_tag: TAG_EXCHANGE,
            dispatch: KernelDispatch::default(),
            cores,
        }
    }

    /// Select the kernel dispatch every subsequent local sweep uses (the
    /// scalar fallback is bit-identical to the SIMD path, so this never
    /// changes results — only how they are computed).
    pub fn set_kernel_dispatch(&mut self, dispatch: KernelDispatch) {
        self.dispatch = dispatch;
    }

    /// Collective cancel agreement (see [`RankComm::vote_any`]): every rank
    /// contributes its local cancel flag and all ranks receive the OR, so
    /// an SPMD schedule stops either on every rank at the same step or on
    /// none — the only way to cancel mid-schedule without stranding a rank
    /// inside a collective. The checkpoint of every rank body:
    /// `Err(Cancelled)` on all ranks once any rank's token has fired.
    pub fn vote_cancelled(&mut self, cancel: &CancelToken) -> Result<(), Cancelled> {
        match self.comm.vote_any(cancel.is_cancelled()) {
            true => Err(Cancelled),
            false => Ok(()),
        }
    }

    /// Report `(gates_done, gates_total)` to the control's progress sink,
    /// from rank 0 only: every rank walks the same schedule.
    pub fn report_progress(&self, control: &ExecControl, gates_done: u64, gates_total: u64) {
        if self.comm.rank() == 0 {
            control.report_progress(gates_done, gates_total);
        }
    }

    /// Number of local (per-rank) qubits.
    pub fn local_qubits(&self) -> usize {
        self.l
    }

    /// This rank's id within the virtual world.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of qubits of the full state.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The current layout (`layout[q]` = position of qubit `q`).
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// Mutable access to this rank's local slice (the baseline sweeps it
    /// directly).
    pub fn local_state_mut(&mut self) -> &mut StateVector {
        &mut self.local
    }

    /// Communication statistics accumulated by this rank.
    pub fn comm_stats(&self) -> CommStats {
        self.comm.stats()
    }

    /// True when every listed qubit currently sits in a local position.
    pub fn all_local(&self, qubits: &[usize]) -> bool {
        qubits.iter().all(|&q| self.layout[q] < self.l)
    }

    /// Position of qubit `q` under the current layout.
    pub fn position(&self, q: usize) -> usize {
        self.layout[q]
    }

    /// This rank's value of global-position bit `pos` (`pos >= l`).
    pub fn rank_bit(&self, pos: usize) -> usize {
        debug_assert!(pos >= self.l);
        (self.comm.rank() >> (pos - self.l)) & 1
    }

    /// Make every qubit in `qubits` local, redistributing the state if
    /// needed, by the swaps `local_layout` picks. Panics if more than `l`
    /// qubits are requested.
    pub fn ensure_local(&mut self, qubits: &[usize]) {
        if let Some(layout) = local_layout(&self.layout, self.l, qubits) {
            self.redistribute(layout);
        }
    }

    /// Redistribute the state to a new layout (a permutation of qubit
    /// positions). Collective: every rank must call this with the same
    /// target layout.
    ///
    /// The change is a permutation of index bits, so what leaves for one peer
    /// is a sub-cube of the old slice and what arrives from one is a sub-cube
    /// of the new (see the `exchange` module): each peer's buffer is packed in
    /// ascending old-offset order with run copies, the buffers cross in one
    /// all-to-all-v, and the old slice is overwritten with what came back.
    /// A sub-cube that stays on this rank at the same offsets (the rest of
    /// every swap [`DistState::ensure_local`] makes) is neither packed nor
    /// sent. The send buffers come from the process's pool and the received
    /// ones go back to it, to be the next exchange's.
    pub fn redistribute(&mut self, new_layout: Vec<usize>) {
        assert_eq!(new_layout.len(), self.n);
        if new_layout == self.layout {
            return;
        }
        let slice_bytes = std::mem::size_of_val(self.local.amplitudes()) as u64;
        let _span = hisvsim_obs::span("comm", "redistribute").bytes(slice_bytes);
        let plan = ExchangePlan::new(&self.layout, &new_layout, self.l, self.comm.rank());
        let moved_bytes = (plan.moved_amplitudes() * std::mem::size_of::<Complex64>()) as u64;
        let send = {
            let _pack = hisvsim_obs::span("comm", "pack").bytes(moved_bytes);
            plan.pack(self.local.amplitudes(), self.comm.size())
        };
        self.exchange_tag += 1;
        let received = self.comm.alltoallv(send, self.exchange_tag);
        {
            let _unpack = hisvsim_obs::span("comm", "unpack").bytes(moved_bytes);
            plan.unpack(&received, self.local.amplitudes_mut());
        }
        received.into_iter().for_each(buffers::give);
        self.layout = new_layout;
        self.exchanges += 1;
    }

    /// [`DistState::redistribute`] as it was before the exchange was planned
    /// as a bit permutation: one pass over the qubits per amplitude and a
    /// sort of the `2^l` origins. The reference of the differential tests.
    #[cfg(test)]
    fn redistribute_reference(&mut self, new_layout: Vec<usize>) {
        assert_eq!(new_layout.len(), self.n);
        if new_layout == self.layout {
            return;
        }
        let l = self.l;
        let rank = self.comm.rank();
        let size = self.comm.size();
        let mask = (1usize << l) - 1;
        let old = &self.layout;
        let new = &new_layout;

        // Map an index expressed in old-layout position space to the
        // new-layout position space (a pure bit permutation).
        let old_to_new = |old_index: usize| -> usize {
            let mut out = 0usize;
            for q in 0..self.n {
                let bit = (old_index >> old[q]) & 1;
                out |= bit << new[q];
            }
            out
        };
        let new_to_old = |new_index: usize| -> usize {
            let mut out = 0usize;
            for q in 0..self.n {
                let bit = (new_index >> new[q]) & 1;
                out |= bit << old[q];
            }
            out
        };

        // Bucket outgoing amplitudes by destination rank, in ascending local
        // offset order (the receiver reconstructs this order).
        let mut send: Vec<Vec<Complex64>> = vec![Vec::new(); size];
        for (off, &amp) in self.local.amplitudes().iter().enumerate() {
            let new_index = old_to_new((rank << l) | off);
            send[new_index >> l].push(amp);
        }
        self.exchange_tag += 1;
        let recv = self.comm.alltoallv(send, self.exchange_tag);

        // Rebuild the local slice: for each new offset, find which (source
        // rank, source offset) produced it, then consume source buffers in
        // ascending source-offset order.
        let mut origins: Vec<(usize, usize, usize)> = (0..(1usize << l))
            .map(|new_off| {
                let old_index = new_to_old((rank << l) | new_off);
                (old_index >> l, old_index & mask, new_off)
            })
            .collect();
        origins.sort_unstable();
        let mut cursors = vec![0usize; size];
        let mut new_local = StateVector::uninitialized(l);
        for (src, _src_off, new_off) in origins {
            let amp = recv[src][cursors[src]];
            cursors[src] += 1;
            new_local.amplitudes_mut()[new_off] = amp;
        }
        self.local = new_local;
        self.layout = new_layout;
        self.exchanges += 1;
    }

    /// Apply a list of gates whose qubits are all local, remapping qubit
    /// indices to their local positions. The dense matrix of each gate is
    /// computed once from the original gate — never from the remapped copy —
    /// so callers that share a prepared list across ranks (see
    /// [`prepare_gates`]) pay for each matrix exactly once overall.
    pub fn apply_gates_local(&mut self, gates: &[Gate]) {
        let prepared = prepare_gates(gates);
        self.apply_prepared_local(&prepared);
    }

    /// Apply a prepared gate list (see [`prepare_gates`]) whose qubits are
    /// all local. The precomputed matrices are shared by every rank. With no
    /// pass to say which ranks are live, each sweeps on its share of all
    /// ranks.
    pub fn apply_prepared_local(&mut self, gates: &[PreparedGate]) {
        let _span = hisvsim_obs::span("kernel", "local");
        let start = Instant::now();
        let opts = ApplyOptions::default().with_dispatch(self.dispatch);
        on_threads(share(self.cores, self.comm.size()), || {
            for prepared in gates {
                let gate = &prepared.gate;
                debug_assert!(
                    self.all_local(&gate.qubits),
                    "gate touches a non-local qubit"
                );
                let remapped = Gate {
                    kind: gate.kind,
                    qubits: gate.qubits.iter().map(|&q| self.layout[q]).collect(),
                };
                apply_gate_with_matrix(&mut self.local, &remapped, prepared.matrix(), &opts);
            }
        });
        self.compute_time_s += start.elapsed().as_secs_f64();
    }

    /// Sweep `fused` over the slice through `map`, one of `passes` (its
    /// [`FusedCircuit::passes`] for this slice and `map`) at a time, each
    /// over what [`Pass::support`] says this rank can hold nonzero, on this
    /// rank's [`share`] of the world's cores among the pass's
    /// [`Pass::live_ranks`]: a world of one sweeps on every core, and a rank
    /// whose peers' slices are all still zero on the whole budget. Above one
    /// [`TILE`] every pass is a checkpoint: rank 0 reports `progress` after
    /// it and the ranks vote before the next, whether this rank's slice is
    /// still zero or not. A slice of at most one tile is one checkpoint. The
    /// vote before the first pass is the caller's.
    pub(crate) fn sweep_passes(
        &mut self,
        fused: &FusedCircuit,
        map: &[usize],
        passes: &[Pass],
        progress: &mut Progress<'_>,
    ) -> Result<(), Cancelled> {
        let opts = ApplyOptions::default().with_dispatch(self.dispatch);
        let per_checkpoint = match self.local.len() > TILE {
            true => 1,
            false => passes.len().max(1),
        };
        let (rank, ranks) = (self.comm.rank(), self.comm.size());
        for (index, checkpoint) in passes.chunks(per_checkpoint).enumerate() {
            if index > 0 {
                self.vote_cancelled(&progress.control.cancel)?;
            }
            let start = Instant::now();
            for pass in checkpoint {
                let (ops, support) = (pass.ops.clone(), pass.support(rank, self.l));
                let threads = share(self.cores, pass.live_ranks(ranks, self.l));
                on_threads(threads, || {
                    fused.apply_pass(&mut self.local, ops.clone(), Some(map), support, &opts)
                });
                let gates = fused.ops()[ops].iter().map(FusedOp::fused_count);
                progress.done += gates.sum::<usize>() as u64;
            }
            self.compute_time_s += start.elapsed().as_secs_f64();
            self.report_progress(progress.control, progress.done, progress.total);
        }
        Ok(())
    }

    /// Record externally-performed local computation time (used by engines
    /// that drive the local slice directly, e.g. the multi-level engine).
    pub fn add_compute_time(&mut self, seconds: f64) {
        self.compute_time_s += seconds;
    }

    /// Finish a rank's execution: hand back this rank's slice in the layout
    /// the run ends in, with that layout, as a [`RankOutcome`]. The single
    /// epilogue shared by every SPMD engine; it moves no data.
    ///
    /// The slices in rank order are the state with its qubits at the
    /// layout's positions, so no gather and no exchange is needed: the caller
    /// (in-process aggregator or remote launcher) concatenates them and puts
    /// the qubits in order with one permutation ([`aggregate_outcomes`]),
    /// where a return to the identity layout here would cost one more
    /// exchange per job.
    pub fn finish_rank(self) -> RankOutcome {
        RankOutcome {
            figures: RankFigures {
                rank: self.comm.rank(),
                compute_time_s: self.compute_time_s,
                comm: self.comm.stats(),
                exchanges: self.exchanges,
                layout: self.layout,
            },
            local: self.local.into_amplitudes(),
        }
    }
}

/// The layout that makes every qubit in `qubits` local in an `l`-qubit
/// slice, from `layout` (`layout[q]` = position of qubit `q`), or `None`
/// when they all are already: the one swap rule, of [`FusedPlan::schedule`]
/// and [`DistState::ensure_local`] alike. Panics if more than `l` qubits are
/// requested. Each qubit that comes in trades places with a local qubit that
/// is not needed and every other qubit keeps its position, so the sub-cube
/// of a slice that stays on its rank stays where it is (see
/// [`crate::exchange`]) and only what changes rank moves.
pub(crate) fn local_layout(layout: &[usize], l: usize, qubits: &[usize]) -> Option<Vec<usize>> {
    assert!(
        qubits.len() <= l,
        "cannot make {} qubits local with only {l} local positions",
        qubits.len()
    );
    if qubits.iter().all(|&q| layout[q] < l) {
        return None;
    }
    let mut new_layout = layout.to_vec();
    // Local positions whose qubit is not needed, available for eviction.
    let mut needed = vec![false; layout.len()];
    for &q in qubits {
        needed[q] = true;
    }
    let qubit_at_position = |layout: &[usize], pos: usize| -> usize {
        layout
            .iter()
            .position(|&p| p == pos)
            .expect("layout is a permutation")
    };
    let mut free_local: Vec<usize> = (0..l)
        .filter(|&pos| !needed[qubit_at_position(&new_layout, pos)])
        .collect();
    for &q in qubits {
        if new_layout[q] >= l {
            let target = free_local.pop().expect("enough local positions");
            let evicted = qubit_at_position(&new_layout, target);
            new_layout[evicted] = new_layout[q];
            new_layout[q] = target;
        }
    }
    Some(new_layout)
}

/// What a rank reports of its run besides its slice.
#[derive(Debug, Clone)]
pub struct RankFigures {
    /// The rank id.
    pub rank: usize,
    /// Wall-clock computation seconds on this rank.
    pub compute_time_s: f64,
    /// Communication statistics (messages and bytes).
    pub comm: CommStats,
    /// Number of redistributions this rank participated in.
    pub exchanges: usize,
    /// The layout the rank ended in (`layout[q]` = bit position of qubit
    /// `q`), the same on every rank.
    pub layout: Vec<usize>,
}

/// Per-rank outcome of a distributed run, returned by the SPMD body.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// The rank's figures.
    pub figures: RankFigures,
    /// This rank's final local slice under `figures.layout`, used to
    /// assemble the full state.
    pub local: Vec<Complex64>,
}

/// A finished run as its ranks leave it, what [`aggregate_outcomes`] takes:
/// every rank's figures in rank order, and their slices in rank order in one
/// buffer, rank `r`'s `2^l` amplitudes at `[r << l, (r + 1) << l)`. The
/// process world's launcher reads each slice straight into place; a thread
/// world builds it with [`Gathered::from_outcomes`].
#[derive(Debug)]
pub struct Gathered {
    /// Each rank's figures, in rank order.
    pub ranks: Vec<RankFigures>,
    /// The ranks' slices, concatenated in rank order.
    pub amplitudes: Vec<Complex64>,
}

impl Gathered {
    /// Gather a thread world's outcomes (in rank order): a lone rank's
    /// slice is moved, more ranks' slices are copied into one buffer from
    /// the pool and given back to it.
    pub fn from_outcomes(outcomes: Vec<RankOutcome>) -> Self {
        let (ranks, mut slices): (Vec<RankFigures>, Vec<Vec<Complex64>>) = (outcomes.into_iter())
            .map(|outcome| (outcome.figures, outcome.local))
            .unzip();
        let amplitudes = match slices.len() {
            1 => slices.pop().expect("one slice"),
            _ => {
                let mut amps = buffers::take(slices.iter().map(Vec::len).sum());
                amps.clear();
                for slice in slices {
                    amps.extend_from_slice(&slice);
                    buffers::give(slice);
                }
                amps
            }
        };
        Self { ranks, amplitudes }
    }
}

/// Aggregate a finished run into a [`RunReport`] and the full state: the
/// ranks' slices, [`Gathered`] in one buffer, become the state. One
/// [`StateVector::permute_qubits`] then moves every qubit back from where
/// the ranks' final layout left it: none on a world of one, which keeps
/// every qubit in place.
///
/// Panics unless every rank reports the same layout, a permutation of the
/// circuit's qubits, and the slices make a state of the circuit's width.
pub fn aggregate_outcomes(
    engine: &str,
    strategy: &str,
    circuit: &Circuit,
    num_parts: usize,
    gathered: Gathered,
    wall_time_s: f64,
) -> (StateVector, RunReport) {
    let Gathered { ranks, amplitudes } = gathered;
    let layout = ranks.first().expect("at least one rank").layout.clone();
    assert!(
        ranks.iter().all(|figures| figures.layout == layout),
        "the ranks ended in different layouts"
    );
    assert_eq!(amplitudes.len(), 1 << circuit.num_qubits());
    let num_ranks = ranks.len();
    let mut compute_max = 0.0f64;
    let mut comm_sum = CommStats::default();
    let mut exchanges = 0usize;
    for figures in &ranks {
        compute_max = compute_max.max(figures.compute_time_s);
        comm_sum = comm_sum.merged(figures.comm);
        exchanges = exchanges.max(figures.exchanges);
    }
    let mut state = StateVector::from_amplitudes(amplitudes);
    state.permute_qubits(&layout);
    let mut report = RunReport::single_node(
        engine,
        strategy,
        circuit.name.clone(),
        circuit.num_qubits(),
        circuit.num_gates(),
    );
    report.num_parts = num_parts;
    report.num_ranks = num_ranks;
    report.total_time_s = wall_time_s;
    report.compute_time_s = compute_max;
    report.comm = comm_sum;
    report.num_exchanges = exchanges;
    (state, report)
}

/// How a thread world runs in-process ([`run_plan`]), and what its report
/// is called.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Engine name the report carries (`hier`, `dist`, `multilevel`).
    pub engine: &'a str,
    /// Partitioning strategy name the report carries.
    pub strategy: &'a str,
    /// Ranks of the thread world (a power of two); one is the hier shape.
    pub ranks: usize,
    /// Kernel dispatch of every sweep.
    pub dispatch: KernelDispatch,
}

impl<'a> RunSpec<'a> {
    /// A spec of the fields in declaration order.
    pub fn new(engine: &'a str, strategy: &'a str, ranks: usize, dispatch: KernelDispatch) -> Self {
        Self {
            engine,
            strategy,
            ranks,
            dispatch,
        }
    }
}

/// Run `body` as every rank of the thread world `spec` describes and
/// aggregate the outcomes (see [`aggregate_outcomes`]): how each SPMD body
/// executes in-process, on the calling thread for a world of one. The
/// bodies vote at their checkpoints, so all ranks return `Ok` or all return
/// `Cancelled`.
pub(crate) fn run_thread_world<F>(
    spec: RunSpec<'_>,
    circuit: &Circuit,
    num_parts: usize,
    body: F,
) -> Result<(StateVector, RunReport), Cancelled>
where
    F: Fn(&mut LocalComm<Complex64>) -> Result<RankOutcome, Cancelled> + Sync,
{
    let start = Instant::now();
    let outcomes = run_spmd(spec.ranks, NetworkModel::ideal(), |mut comm| {
        body(&mut comm)
    });
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let gathered = Gathered::from_outcomes(outcomes);
    let wall = start.elapsed().as_secs_f64();
    let (engine, strategy) = (spec.engine, spec.strategy);
    Ok(aggregate_outcomes(
        engine, strategy, circuit, num_parts, gathered, wall,
    ))
}

/// Run `schedule` as every rank of a thread world of `spec.ranks`, the
/// world it was compiled for ([`run_plan_rank`]), and aggregate the outcomes
/// into the state and a report: how every planned engine runs in-process.
pub fn run_plan(
    circuit: &Circuit,
    schedule: &PlanSchedule<'_>,
    spec: RunSpec<'_>,
    control: &ExecControl,
) -> Result<(StateVector, RunReport), Cancelled> {
    run_thread_world(spec, circuit, schedule.plan.num_parts(), |comm| {
        run_plan_rank(comm, schedule, spec.dispatch, control)
    })
}

/// A rank body's gates done out of the run's total, and the control it
/// votes and reports under.
pub(crate) struct Progress<'c> {
    pub(crate) control: &'c ExecControl,
    pub(crate) done: u64,
    pub(crate) total: u64,
}

/// Execute one rank of a compiled plan against `comm`: the one rank body of
/// every planned engine, run by the thread world ([`run_plan`]) and by
/// `hisvsim-net`'s worker processes alike, so a process-backed run is
/// bit-identical to the thread-world run of the same plan by construction.
///
/// The rank starts in the schedule's first layout and walks its entries
/// ([`FusedPlan::schedule`]): a vote ([`DistState::vote_cancelled`]), the
/// entry's redistribution if it has one, then the part, walked one listed
/// pass at a time in place: on a slice above one [`TILE`] each pass is a
/// checkpoint, a vote before it and rank 0's progress report after it. A
/// token fired on any rank so stops all of them at the same checkpoint,
/// within one pass, none stranded inside a collective. Above one tile a
/// pass sweeps only the tiles that can be nonzero ([`Pass::live`]), and a
/// rank whose slice is still all zero sweeps none but votes, reports and
/// records its spans all the same
/// ([`PlanSchedule::swept_amplitudes`] predicts what each rank sweeps). The
/// rank hands back its slice in the layout it ends in
/// ([`DistState::finish_rank`]).
///
/// Each pass sweeps on the rank's share of the world's cores among the
/// ranks the pass finds live, `max(1, cores / live_ranks)` threads
/// ([`Pass::live_ranks`]); see [`DistState::new`] for where the budget
/// comes from. A world of one (the hier engine) so sweeps on every core,
/// and a rank whose peers are all still zero on the whole budget.
pub fn run_plan_rank<C: RankComm<Complex64>>(
    comm: &mut C,
    schedule: &PlanSchedule<'_>,
    dispatch: KernelDispatch,
    control: &ExecControl,
) -> Result<RankOutcome, Cancelled> {
    assert_eq!(
        comm.size(),
        schedule.ranks,
        "the schedule was compiled for another world size"
    );
    let mut state = DistState::new(comm, schedule.num_qubits);
    state.set_kernel_dispatch(dispatch);
    // Nothing has touched the `|0…0⟩` state yet: any layout is free.
    state.layout.clone_from(&schedule.start);
    let mut progress = Progress {
        control,
        done: 0,
        total: schedule.total_source_gates(),
    };
    for entry in &schedule.entries {
        state.vote_cancelled(&control.cancel)?;
        if let Some(layout) = &entry.exchange {
            state.redistribute(layout.clone());
        }
        let _part = open_part(entry);
        let (inner, positions) = (&entry.part.inner, &entry.positions);
        state.sweep_passes(inner, positions, &entry.in_place, &mut progress)?;
    }
    Ok(state.finish_rank())
}

/// Configuration of the distributed HiSVSIM engine.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Number of virtual MPI ranks (power of two).
    pub num_ranks: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Working-set limit for the first-level partition. Defaults to the
    /// local qubit count when `None` (the paper's choice).
    pub limit: Option<usize>,
    /// Kernel dispatch for every rank-local sweep (auto-detected SIMD by
    /// default; forced scalar for differential validation).
    pub kernel_dispatch: KernelDispatch,
}

impl DistConfig {
    /// A configuration with dagP partitioning.
    pub fn new(num_ranks: usize) -> Self {
        Self {
            num_ranks,
            strategy: Strategy::DagP,
            limit: None,
            kernel_dispatch: KernelDispatch::default(),
        }
    }

    /// Use a different partitioning strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Use an explicit working-set limit instead of the local qubit count.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Use a different kernel dispatch (see [`KernelDispatch`]).
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// The assembled final state (standard qubit order).
    pub state: StateVector,
    /// Timing, communication and structure metrics.
    pub report: RunReport,
    /// The first-level partition that was executed.
    pub partition: Partition,
}

/// The distributed HiSVSIM engine.
#[derive(Debug, Clone, Copy)]
pub struct DistributedSimulator {
    config: DistConfig,
}

impl DistributedSimulator {
    /// Create an engine with the given configuration.
    pub fn new(config: DistConfig) -> Self {
        Self { config }
    }

    /// Partition and run `circuit` from `|0…0⟩` across the virtual ranks.
    pub fn run(&self, circuit: &Circuit) -> Result<DistRun, PartitionBuildError> {
        let num_ranks = self.config.num_ranks;
        assert!(
            num_ranks.is_power_of_two(),
            "rank count must be a power of two"
        );
        let p = num_ranks.trailing_zeros() as usize;
        assert!(
            p <= circuit.num_qubits(),
            "{num_ranks} ranks need at least {p} qubits, circuit has {}",
            circuit.num_qubits()
        );
        let l = circuit.num_qubits() - p;
        let limit = self.config.limit.unwrap_or(l).min(l.max(1));

        let dag = CircuitDag::from_circuit(circuit);
        let partition = self.config.strategy.partition(&dag, limit)?;
        Ok(self.run_with_partition(circuit, &dag, partition))
    }

    /// Run with an externally supplied (validated) partition: fuse each
    /// part's inner circuit once — shared by every virtual rank — then
    /// [`Self::run_with_fused_plan`].
    pub fn run_with_partition(
        &self,
        circuit: &Circuit,
        dag: &CircuitDag,
        partition: Partition,
    ) -> DistRun {
        let plan = FusedSinglePlan::new(circuit, dag, partition);
        self.run_with_fused_plan(circuit, &plan)
    }

    /// Run against a prefused plan: each part's fused inner circuit was built
    /// once (at plan time) and is shared read-only by every virtual rank.
    /// [`run_plan_rank`] on every rank of a thread world.
    pub fn run_with_fused_plan(&self, circuit: &Circuit, plan: &FusedSinglePlan) -> DistRun {
        let c = self.config;
        let (strategy, dispatch) = (c.strategy.name(), c.kernel_dispatch);
        let spec = RunSpec::new("dist", strategy, c.num_ranks, dispatch);
        let inert = ExecControl::default();
        let schedule = FusedPlan::Single(plan).schedule(circuit.num_qubits(), c.num_ranks);
        let (state, report) =
            run_plan(circuit, &schedule, spec, &inert).expect("an inert control cannot cancel");
        let partition = plan.partition.clone();
        DistRun {
            state,
            report,
            partition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;
    use hisvsim_cluster::Endpoint;
    use hisvsim_statevec::run_circuit;

    fn check(circuit: &Circuit, ranks: usize, strategy: Strategy) -> DistRun {
        let expected = run_circuit(circuit);
        let run = DistributedSimulator::new(DistConfig::new(ranks).with_strategy(strategy))
            .run(circuit)
            .unwrap();
        assert!(
            run.state.approx_eq(&expected, 1e-9),
            "{} on {ranks} ranks with {}: distributed result diverges (max diff {})",
            circuit.name,
            strategy.name(),
            run.state.max_abs_diff(&expected)
        );
        run
    }

    #[test]
    fn distributed_matches_flat_across_suite() {
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 8);
            check(&circuit, 4, Strategy::DagP);
        }
    }

    #[test]
    fn all_strategies_and_rank_counts_agree() {
        for name in ["qft", "adder", "cc"] {
            let circuit = generators::by_name(name, 8);
            for ranks in [1usize, 2, 4, 8] {
                for strategy in Strategy::ALL {
                    check(&circuit, ranks, strategy);
                }
            }
        }
    }

    #[test]
    fn single_rank_needs_no_communication() {
        let circuit = generators::by_name("ising", 8);
        let run = check(&circuit, 1, Strategy::DagP);
        assert_eq!(run.report.comm.bytes_sent, 0);
        assert_eq!(run.report.num_ranks, 1);
    }

    #[test]
    fn comm_volume_grows_with_part_count_strategy() {
        // A strategy with more parts should move at least as many bytes.
        let circuit = generators::by_name("qft", 10);
        let nat = check(&circuit, 4, Strategy::Nat);
        let dagp = check(&circuit, 4, Strategy::DagP);
        assert!(dagp.report.num_parts <= nat.report.num_parts);
        assert!(
            dagp.report.comm.bytes_sent <= nat.report.comm.bytes_sent,
            "dagP moved {} bytes, Nat {} bytes",
            dagp.report.comm.bytes_sent,
            nat.report.comm.bytes_sent
        );
    }

    #[test]
    fn report_counts_ranks_parts_and_exchanges() {
        let circuit = generators::by_name("qaoa", 9);
        let run = check(&circuit, 8, Strategy::DagP);
        assert_eq!(run.report.num_ranks, 8);
        assert_eq!(run.report.num_parts, run.partition.num_parts());
        assert!(run.report.num_exchanges >= run.report.num_parts.saturating_sub(1));
        let net = NetworkModel::hdr100();
        let per_rank = net.time(&run.report.comm) / 8.0;
        assert_eq!(run.report.modeled_comm_s(&net), per_rank);
        assert!(run.report.compute_time_s > 0.0);
    }

    #[test]
    fn random_circuits_match_flat() {
        for seed in 0..3 {
            let circuit = generators::random_circuit(9, 60, seed);
            check(&circuit, 4, Strategy::DagP);
        }
    }

    #[test]
    fn fusion_width_never_changes_the_exchange_schedule() {
        for name in ["qft", "ising"] {
            let circuit = generators::by_name(name, 9);
            let expected = run_circuit(&circuit);
            let dag = CircuitDag::from_circuit(&circuit);
            let partition = Strategy::DagP.partition(&dag, 7).unwrap();
            let sim = DistributedSimulator::new(DistConfig::new(4));
            let at = |width| {
                let plan = FusedSinglePlan::build_with_strategy(
                    &circuit,
                    &dag,
                    partition.clone(),
                    width,
                    Default::default(),
                );
                sim.run_with_fused_plan(&circuit, &plan)
            };
            let (narrow, wide) = (at(1), at(4));
            assert!(narrow.state.approx_eq(&expected, 1e-9));
            assert!(wide.state.approx_eq(&expected, 1e-9));
            // Fusion reorganises rank-local compute only: identical schedule.
            assert_eq!(wide.report.num_exchanges, narrow.report.num_exchanges);
            assert_eq!(wide.report.comm.bytes_sent, narrow.report.comm.bytes_sent);
        }
    }

    #[test]
    fn a_single_rank_outcome_is_moved_into_the_state() {
        let circuit = generators::by_name("bv", 6);
        let local = vec![Complex64::ONE; 64];
        let kept = local.as_ptr();
        let figures = RankFigures {
            rank: 0,
            compute_time_s: 0.0,
            comm: CommStats::default(),
            exchanges: 0,
            layout: (0..6).collect(),
        };
        let gathered = Gathered::from_outcomes(vec![RankOutcome { figures, local }]);
        let (state, report) = aggregate_outcomes("dist", "dagP", &circuit, 1, gathered, 0.0);
        assert_eq!(state.amplitudes().as_ptr(), kept);
        assert_eq!(report.num_ranks, 1);
    }

    #[test]
    fn dist_state_redistribute_is_a_permutation() {
        // Drive DistState directly: move each gate's qubits local on demand
        // (a worst-case per-gate schedule, swapping qubits across the
        // local/process boundary), then assemble the slices as a served job
        // does and verify the state is the same logical vector.
        let circuit = generators::random_circuit(6, 30, 7);
        let expected = run_circuit(&circuit);
        let gates: Vec<Gate> = circuit.gates().to_vec();
        let outcomes = run_spmd(4, NetworkModel::ideal(), |mut comm| {
            let mut state = DistState::new(&mut comm, 6);
            for gate in &gates {
                state.ensure_local(&gate.qubits);
                state.apply_gates_local(std::slice::from_ref(gate));
            }
            assert!(state.exchanges > 0, "the schedule crosses the boundary");
            state.finish_rank()
        });
        let gathered = Gathered::from_outcomes(outcomes);
        let (got, _) = aggregate_outcomes("dist", "dagP", &circuit, 1, gathered, 0.0);
        assert!(got.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn a_state_the_ranks_leave_off_the_identity_comes_back_in_the_standard_order() {
        // qft(9) as the runner plans it: its SWAPs dropped, every other gate
        // on the qubits its operands end up on.
        let circuit = generators::qft(9);
        let relabeled = circuit.without_swaps();
        let dag = CircuitDag::from_circuit(&relabeled);
        let partition = Strategy::DagP.partition(&dag, 7).unwrap();
        let plan = FusedSinglePlan::new(&relabeled, &dag, partition);
        let schedule = FusedPlan::Single(&plan).schedule(9, 4);
        let inert = ExecControl::default();
        let layouts = run_spmd(4, NetworkModel::ideal(), |mut comm| {
            let dispatch = KernelDispatch::default();
            let outcome = run_plan_rank(&mut comm, &schedule, dispatch, &inert);
            outcome
                .expect("an inert control cannot cancel")
                .figures
                .layout
        });
        let identity: Vec<usize> = (0..9).collect();
        assert_ne!(layouts[0], identity, "the ranks end away from the identity");
        assert!(layouts.iter().all(|layout| *layout == layouts[0]));

        let spec = RunSpec::new("dist", "dagP", 4, Default::default());
        let (state, _) = run_plan(&relabeled, &schedule, spec, &inert).expect("nothing cancels");
        assert!(state.approx_eq(&run_circuit(&circuit), 1e-10));
    }

    /// A communicator that keeps a copy of every `alltoallv` send list
    /// before passing it on.
    struct Recording<C> {
        inner: C,
        sent: Vec<Vec<Vec<Complex64>>>,
    }

    impl<C: RankComm<Complex64>> RankComm<Complex64> for Recording<C> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn endpoint(&self) -> &Endpoint {
            self.inner.endpoint()
        }
        fn endpoint_mut(&mut self) -> &mut Endpoint {
            self.inner.endpoint_mut()
        }
        fn post(&mut self, to: usize, tag: u64, payload: Vec<Complex64>) {
            self.inner.post(to, tag, payload)
        }
        fn take(&mut self, from: usize, tag: u64, mask: u64) -> (u64, Vec<Complex64>) {
            self.inner.take(from, tag, mask)
        }
        fn swap(&mut self, peer: usize, tag: u64, payload: Vec<Complex64>) -> Vec<Complex64> {
            self.inner.swap(peer, tag, payload)
        }
        fn alltoallv(&mut self, send_bufs: Vec<Vec<Complex64>>, tag: u64) -> Vec<Vec<Complex64>> {
            self.sent.push(send_bufs.clone());
            self.inner.alltoallv(send_bufs, tag)
        }
    }

    /// What one rank saw of a chain of exchanges: its slice after every one,
    /// every send list, and the exchanges counted.
    #[derive(Debug, PartialEq)]
    struct Witness {
        slices: Vec<Vec<Complex64>>,
        sent: Vec<Vec<Vec<Complex64>>>,
        exchanges: usize,
    }

    /// Drive every rank of `world` through `layouts`, with the reference body
    /// or with the planned exchange. The planned chain ends in `finish_rank`,
    /// which hands back the last slice and layout as they are.
    fn exchange_chain<C: RankComm<Complex64> + Send>(
        world: Vec<C>,
        n: usize,
        layouts: &[Vec<usize>],
        reference: bool,
    ) -> Vec<Witness> {
        std::thread::scope(|scope| {
            let ranks: Vec<_> = world
                .into_iter()
                .map(|inner| {
                    scope.spawn(move || {
                        let mut comm = Recording {
                            inner,
                            sent: Vec::new(),
                        };
                        let mut state = DistState::new(&mut comm, n);
                        let first = state.rank() << state.local_qubits();
                        for (off, amp) in state.local.amplitudes_mut().iter_mut().enumerate() {
                            *amp = Complex64::new((first + off) as f64, -0.5);
                        }
                        let mut slices = Vec::new();
                        for layout in layouts {
                            match reference {
                                true => state.redistribute_reference(layout.clone()),
                                false => state.redistribute(layout.clone()),
                            }
                            assert_eq!(state.layout(), layout);
                            slices.push(state.local.amplitudes().to_vec());
                        }
                        let exchanges = state.exchanges;
                        match reference {
                            true => drop(state),
                            false => {
                                let outcome = state.finish_rank();
                                assert_eq!(outcome.figures.exchanges, exchanges);
                                assert_eq!(Some(&outcome.figures.layout), layouts.last());
                                assert_eq!(Some(&outcome.local), slices.last());
                            }
                        }
                        Witness {
                            slices,
                            sent: comm.sent,
                            exchanges,
                        }
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|rank| rank.join().expect("rank body panicked"))
                .collect()
        })
    }

    /// Whether every amplitude that stays on `rank` when an `n`-qubit layout
    /// changes from `old` to `new` keeps its offset in an `l`-bit slice: the
    /// sub-cube the planned exchange neither packs nor sends.
    fn stays_in_place(old: &[usize], new: &[usize], l: usize, rank: usize) -> bool {
        (0..1usize << l).all(|off| {
            let from = (rank << l) | off;
            let to = old
                .iter()
                .zip(new)
                .fold(0, |to, (&o, &n)| to | ((from >> o) & 1) << n);
            to >> l != rank || to == from
        })
    }

    /// The planned exchange against the reference on both transports, over
    /// `layouts` and back to the identity: every rank's slice after every
    /// step, and every message between distinct ranks, bit for bit. A rank's
    /// message to itself is the reference's, or nothing when its sub-cube
    /// stays in place.
    fn assert_matches_reference(ranks: usize, n: usize, layouts: &[Vec<usize>], tcp: bool) {
        let identity: Vec<usize> = (0..n).collect();
        let chain: Vec<Vec<usize>> = layouts
            .iter()
            .chain(std::iter::once(&identity))
            .cloned()
            .collect();
        let run = |reference: bool| match tcp {
            false => exchange_chain(hisvsim_cluster::world(ranks), n, &chain, reference),
            true => exchange_chain(
                hisvsim_net::tcp_world(ranks, NetworkModel::ideal()).expect("loopback mesh"),
                n,
                &chain,
                reference,
            ),
        };
        // The layout changes that exchanged, in order.
        let changes: Vec<(&Vec<usize>, &Vec<usize>)> = std::iter::once(&identity)
            .chain(&chain)
            .zip(&chain)
            .filter(|(old, new)| old != new)
            .collect();
        let l = n - ranks.trailing_zeros() as usize;
        let (expected, got) = (run(true), run(false));
        for (rank, (expected, got)) in expected.iter().zip(&got).enumerate() {
            let context =
                format!("rank {rank} of {ranks}, {n} qubits, layouts {layouts:?}, tcp {tcp}");
            assert_eq!(got.slices, expected.slices, "{context}");
            assert_eq!(got.exchanges, changes.len(), "{context}");
            assert_eq!(expected.exchanges, changes.len(), "{context}");
            assert_eq!(got.sent.len(), changes.len(), "{context}");
            let messages = got.sent.iter().zip(&expected.sent).zip(&changes);
            for ((got, expected), (old, new)) in messages {
                for peer in 0..ranks {
                    if peer == rank && stays_in_place(old, new, l, rank) {
                        assert!(got[peer].is_empty(), "in place but packed: {context}");
                    } else {
                        assert_eq!(got[peer], expected[peer], "{context}");
                    }
                }
            }
        }
        // Back under the identity layout the slices are the state in order.
        for (rank, witness) in got.iter().enumerate() {
            let first = rank * (1usize << n) / ranks;
            let last = witness.slices.last().expect("the return to identity");
            assert!(last
                .iter()
                .enumerate()
                .all(|(off, amp)| amp.re == (first + off) as f64));
        }
    }

    /// `steps` pseudo-random permutations of `0..n` (splitmix64 shuffles).
    fn random_layouts(n: usize, steps: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..steps)
            .map(|_| {
                let mut layout: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    layout.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                layout
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn planned_exchange_matches_the_reference_on_the_thread_world(
            log_ranks in 0usize..4,
            extra in 0usize..8,
            steps in 1usize..5,
            seed in proptest::any::<u64>(),
        ) {
            let n = (log_ranks + extra).clamp(1, 10);
            assert_matches_reference(1 << log_ranks, n, &random_layouts(n, steps, seed), false);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn planned_exchange_matches_the_reference_over_tcp(
            log_ranks in 0usize..4,
            extra in 0usize..8,
            steps in 1usize..4,
            seed in proptest::any::<u64>(),
        ) {
            let n = (log_ranks + extra).clamp(1, 10);
            assert_matches_reference(1 << log_ranks, n, &random_layouts(n, steps, seed), true);
        }
    }

    #[test]
    fn ensure_local_chains_match_the_reference() {
        // What the engines do: swaps that bring a working set in, three or
        // more in a row, then `finish_rank`. The layouts are the ones
        // `ensure_local` picks for these working sets; the way back to the
        // identity is only the check's.
        for (ranks, n) in [(2usize, 6usize), (4, 7), (8, 9)] {
            let l = n - ranks.trailing_zeros() as usize;
            let working_sets: Vec<Vec<usize>> = vec![
                (n - l..n).collect(),
                (0..l).collect(),
                (0..n).step_by(2).take(l).collect(),
                vec![n - 1, 0],
            ];
            let layouts: Vec<Vec<usize>> = run_spmd::<Complex64, Vec<Vec<usize>>, _>(
                ranks,
                NetworkModel::ideal(),
                |mut comm| {
                    let mut state = DistState::new(&mut comm, n);
                    working_sets
                        .iter()
                        .map(|set| {
                            state.ensure_local(set);
                            state.layout().to_vec()
                        })
                        .collect()
                },
            )
            .swap_remove(0);
            assert!(layouts.windows(2).filter(|pair| pair[0] != pair[1]).count() >= 2);
            // Every swap `ensure_local` makes leaves each rank's staying
            // sub-cube in place.
            let identity: Vec<usize> = (0..n).collect();
            for pair in std::iter::once(&identity)
                .chain(&layouts)
                .collect::<Vec<_>>()
                .windows(2)
            {
                for rank in 0..ranks {
                    assert!(stays_in_place(pair[0], pair[1], l, rank), "{pair:?}");
                }
            }
            for tcp in [false, true] {
                assert_matches_reference(ranks, n, &layouts, tcp);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_ranks_rejected() {
        let circuit = generators::cat_state(6);
        let _ = DistributedSimulator::new(DistConfig::new(3)).run(&circuit);
    }
}
