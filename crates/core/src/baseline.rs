//! An IQS-style distributed state-vector baseline (the comparison target of
//! the paper's Figs. 5–9).
//!
//! Intel IQS / qHiPSTER distributes the state with a static qubit→position
//! mapping and handles each gate as it comes: gates on local qubits run in
//! place, a set of standard tricks avoids communication where possible
//! (diagonal gates, gates whose only *remote* operands are controls), and
//! everything else pays a global exchange to bring the touched qubits into
//! local positions. There is no circuit-level reorganisation — which is
//! exactly what HiSVSIM adds — so the number of communication events scales
//! with the gate count rather than the part count.
//!
//! The baseline reuses [`DistState`], so its communication is counted the
//! same way as HiSVSIM's (and priced by the same network model) and the
//! comparison isolates the effect of the execution schedule.

use crate::dist::{run_thread_world, DistState, PreparedGate, Progress, RankOutcome, RunSpec};
use crate::exec::ExecControl;
use crate::fusedplan::Pass;
use crate::metrics::RunReport;
use hisvsim_circuit::{Circuit, Complex64, Gate, GateKind, Qubit};
use hisvsim_cluster::RankComm;
use hisvsim_statevec::{
    Cancelled, FusedCircuit, KernelDispatch, StateVector, DEFAULT_FUSION_WIDTH,
};
use std::time::Instant;

/// Configuration of the IQS-style baseline.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// Number of virtual MPI ranks (power of two).
    pub num_ranks: usize,
    /// Kernel dispatch for every rank-local sweep (auto-detected SIMD by
    /// default; forced scalar for differential validation).
    pub kernel_dispatch: KernelDispatch,
}

impl BaselineConfig {
    /// A baseline over `num_ranks` ranks.
    pub fn new(num_ranks: usize) -> Self {
        Self {
            num_ranks,
            kernel_dispatch: KernelDispatch::default(),
        }
    }

    /// Use a different kernel dispatch (see [`KernelDispatch`]).
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }
}

/// One step of the baseline's precomputed schedule, shared by all ranks.
enum BaselineStep {
    /// A maximal run of gates that are purely local under the static
    /// (identity) layout, fused into one pipeline, with its passes over a
    /// rank's slice ([`FusedCircuit::passes`]), each over the whole slice.
    /// Fusion only reorganises rank-local computation; the communication
    /// schedule — the quantity the baseline exists to model — is untouched.
    LocalFused(FusedCircuit, Vec<Pass>),
    /// A gate needing the distributed special cases (remote diagonal, remote
    /// control, or a paid exchange), with its matrix prepared once.
    Distributed(PreparedGate),
}

impl BaselineStep {
    /// Circuit gates this step executes.
    fn gates(&self) -> u64 {
        match self {
            BaselineStep::LocalFused(fused, _) => fused.source_gates() as u64,
            BaselineStep::Distributed(_) => 1,
        }
    }
}

/// The baseline's schedule for one circuit on one world size: fused local
/// segments and per-gate distributed steps. Under the static mapping, qubits
/// `0..l` are local on every rank and the layout is the identity at every
/// step boundary, so the split is a pure function of the circuit — built
/// once by the caller of [`run_baseline_rank`] (the thread world for all its
/// ranks, a worker process once per job) and read by every rank.
pub struct BaselineSchedule {
    num_qubits: usize,
    ranks: usize,
    /// The static layout, the identity: where every step starts and ends.
    layout: Vec<usize>,
    steps: Vec<BaselineStep>,
}

impl BaselineSchedule {
    /// Split `circuit` for a world of `ranks` ranks (a power of two), fusing
    /// each communication-free run at [`DEFAULT_FUSION_WIDTH`].
    pub fn build(circuit: &Circuit, ranks: usize) -> Self {
        assert!(ranks.is_power_of_two(), "rank count must be a power of two");
        let local_qubits = circuit
            .num_qubits()
            .saturating_sub(ranks.trailing_zeros() as usize);
        let layout: Vec<usize> = (0..circuit.num_qubits()).collect();
        let mut steps = Vec::new();
        let mut segment = Circuit::new(circuit.num_qubits());
        let flush = |segment: &mut Circuit, steps: &mut Vec<BaselineStep>| {
            if !segment.is_empty() {
                let gates = std::mem::replace(segment, Circuit::new(circuit.num_qubits()));
                let fused = FusedCircuit::new(&gates, DEFAULT_FUSION_WIDTH);
                let passes = (fused.passes(local_qubits, Some(&layout)))
                    .map(|ops| Pass {
                        live: u64::MAX,
                        ops,
                    })
                    .collect();
                steps.push(BaselineStep::LocalFused(fused, passes));
            }
        };
        for gate in circuit.gates() {
            if gate.qubits.iter().all(|&q| q < local_qubits) {
                segment.push(gate.clone());
            } else {
                flush(&mut segment, &mut steps);
                steps.push(BaselineStep::Distributed(PreparedGate::new(gate)));
            }
        }
        flush(&mut segment, &mut steps);
        Self {
            num_qubits: circuit.num_qubits(),
            ranks,
            layout,
            steps,
        }
    }
}

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// The assembled final state (standard qubit order).
    pub state: StateVector,
    /// Timing, communication and structure metrics.
    pub report: RunReport,
}

/// The IQS-style baseline simulator: the paper's flat comparison target
/// (Figs. 5–9). The runtime does not serve it (it refuses a job that forces
/// it); it stays for the figures, the differential suites, and because the
/// benchmark adapter (`crates/bench/src/bin/hisvsim-bench/`) names it for
/// its `core.flat_s` row.
#[derive(Debug, Clone, Copy)]
pub struct IqsBaseline {
    config: BaselineConfig,
}

impl IqsBaseline {
    /// Create a baseline engine.
    pub fn new(config: BaselineConfig) -> Self {
        Self { config }
    }

    /// Run `circuit` from `|0…0⟩` across the virtual ranks: fused pipelines
    /// for the communication-free runs, the per-gate distributed special
    /// cases everywhere else. The schedule (with its fused matrices) is
    /// computed once and shared by every rank.
    pub fn run(&self, circuit: &Circuit) -> BaselineRun {
        self.run_controlled(circuit, None, &ExecControl::default())
            .expect("an inert control cannot cancel")
    }

    /// [`IqsBaseline::run`] under an [`ExecControl`], handing the state back
    /// with its qubits where `perm` wants them (see [`RunSpec::perm`]): the
    /// schedule is built once, then [`run_baseline_rank`] runs on every rank
    /// of a thread world.
    pub fn run_controlled(
        &self,
        circuit: &Circuit,
        perm: Option<&[Qubit]>,
        control: &ExecControl,
    ) -> Result<BaselineRun, Cancelled> {
        let schedule = BaselineSchedule::build(circuit, self.config.num_ranks);
        let c = self.config;
        let (ranks, dispatch) = (c.num_ranks, c.kernel_dispatch);
        let spec = RunSpec {
            perm,
            ..RunSpec::new("iqs-baseline", "-", ranks, dispatch)
        };
        let (state, report) = run_thread_world(spec, circuit, 1, |comm| {
            run_baseline_rank(comm, &schedule, dispatch, control)
        })?;
        Ok(BaselineRun { state, report })
    }
}

/// Execute one rank of the IQS-style baseline against `comm`: the one rank
/// body of the baseline, run only by the thread world
/// ([`IqsBaseline::run_controlled`]). No worker process runs it: a shipped
/// job is always a plan, and the runtime serves no baseline job.
///
/// The ranks vote ([`DistState::vote_cancelled`]) before every schedule step
/// (fused local segment or distributed gate — the latter's exchanges are the
/// collective boundary) and, on a slice above one tile, between the passes
/// of a fused segment, as the planned engines' rank body does
/// ([`run_plan_rank`](crate::dist::run_plan_rank)). So a fired token stops
/// all ranks at the same checkpoint, within one pass, without stranding any
/// inside a collective. Rank 0 reports gate-level progress after each.
pub fn run_baseline_rank<C: RankComm<Complex64>>(
    comm: &mut C,
    schedule: &BaselineSchedule,
    dispatch: KernelDispatch,
    control: &ExecControl,
) -> Result<RankOutcome, Cancelled> {
    assert_eq!(
        comm.size(),
        schedule.ranks,
        "the schedule was built for another world size"
    );
    let mut state = DistState::new(comm, schedule.num_qubits);
    state.set_kernel_dispatch(dispatch);
    let mut progress = Progress {
        control,
        done: 0,
        total: schedule.steps.iter().map(BaselineStep::gates).sum(),
    };
    for step in &schedule.steps {
        state.vote_cancelled(&control.cancel)?;
        match step {
            BaselineStep::LocalFused(fused, passes) => {
                debug_assert_eq!(state.layout(), schedule.layout);
                state.sweep_passes(fused, &schedule.layout, passes, &mut progress)?;
            }
            BaselineStep::Distributed(gate) => {
                apply_prepared_gate_distributed(&mut state, gate);
                progress.done += 1;
                state.report_progress(control, progress.done, progress.total);
            }
        }
    }
    Ok(state.finish_rank())
}

/// Apply one gate to the distributed state, using the communication-avoiding
/// special cases a tuned static-mapping simulator applies, and falling back
/// to a qubit remap (global exchange) otherwise.
pub fn apply_gate_distributed<C: RankComm<Complex64>>(state: &mut DistState<'_, C>, gate: &Gate) {
    apply_prepared_gate_distributed(state, &PreparedGate::new(gate));
}

/// [`apply_gate_distributed`] with the gate's matrix prepared once by the
/// caller (shared across ranks).
fn apply_prepared_gate_distributed<C: RankComm<Complex64>>(
    state: &mut DistState<'_, C>,
    prepared: &PreparedGate,
) {
    let gate = &prepared.gate;
    // Case 1: everything local — apply in place.
    if state.all_local(&gate.qubits) {
        state.apply_prepared_local(std::slice::from_ref(prepared));
        return;
    }
    // Case 2: diagonal gates never mix amplitudes across ranks; the values of
    // remote qubits are fixed per rank, so the phase can be applied locally.
    if gate.kind.is_diagonal() {
        apply_diagonal_with_fixed_bits(state, prepared);
        return;
    }
    // Case 3: gates whose only remote operands are controls — the control
    // value is constant per rank, so either the reduced gate applies locally
    // or nothing happens at all.
    let num_controls = gate.kind.num_controls();
    if num_controls > 0 {
        let controls = &gate.qubits[..num_controls];
        let rest = &gate.qubits[num_controls..];
        let remote_controls: Vec<usize> = controls
            .iter()
            .copied()
            .filter(|&q| state.position(q) >= state.local_qubits())
            .collect();
        if !remote_controls.is_empty() && state.all_local(rest) {
            let all_set = remote_controls
                .iter()
                .all(|&q| state.rank_bit(state.position(q)) == 1);
            if all_set {
                let local_controls: Vec<usize> = controls
                    .iter()
                    .copied()
                    .filter(|&q| state.position(q) < state.local_qubits())
                    .collect();
                if let Some(reduced) = reduce_controls(gate, &local_controls, rest) {
                    state.apply_gates_local(std::slice::from_ref(&reduced));
                }
            }
            return;
        }
    }
    // Case 4: a remote target — pay a global exchange. A static-mapping
    // simulator (IQS, QuEST) exchanges its local slice with the pairwise
    // partner rank(s), computes, and keeps its mapping; it therefore pays the
    // same price again for the next remote-target gate. We model that by
    // temporarily remapping the gate's qubits into local positions and then
    // restoring the identity layout: the two half-state redistributions move
    // the same volume as one pairwise full-slice exchange, and — crucially —
    // the mapping does not improve over time, exactly like a static mapping.
    let identity: Vec<usize> = (0..state.num_qubits()).collect();
    state.ensure_local(&gate.qubits);
    state.apply_prepared_local(std::slice::from_ref(prepared));
    state.redistribute(identity);
}

/// Apply a diagonal gate whose operands may include remote qubits: the phase
/// factor of each local amplitude is determined by its local bits plus this
/// rank's fixed bits.
fn apply_diagonal_with_fixed_bits<C: RankComm<Complex64>>(
    state: &mut DistState<'_, C>,
    prepared: &PreparedGate,
) {
    let _span = hisvsim_obs::span("kernel", "local");
    let start = Instant::now();
    let gate = &prepared.gate;
    // CZ (a matrix-free fast-path kind) is not prepared; compute on demand.
    let owned;
    let matrix = match prepared.matrix() {
        Some(m) => m,
        None => {
            owned = gate.matrix();
            &owned
        }
    };
    let l = state.local_qubits();
    // For each operand, either the local position of the qubit or the fixed
    // bit value contributed by the rank id.
    enum Operand {
        Local(usize),
        Fixed(usize),
    }
    let operands: Vec<Operand> = gate
        .qubits
        .iter()
        .map(|&q| {
            let pos = state.position(q);
            if pos < l {
                Operand::Local(pos)
            } else {
                Operand::Fixed(state.rank_bit(pos))
            }
        })
        .collect();
    let local = state.local_state_mut();
    for (index, amp) in local.amplitudes_mut().iter_mut().enumerate() {
        let mut sub = 0usize;
        for (bit, op) in operands.iter().enumerate() {
            let value = match op {
                Operand::Local(pos) => (index >> pos) & 1,
                Operand::Fixed(v) => *v,
            };
            sub |= value << bit;
        }
        *amp *= matrix.get(sub, sub);
    }
    state.add_compute_time(start.elapsed().as_secs_f64());
}

/// Strip the (already satisfied) remote controls off a controlled gate,
/// returning the reduced gate acting on the remaining operands, or `None`
/// when the reduction is not expressible (never the case for the gate set
/// used by the generators, but kept conservative).
fn reduce_controls(gate: &Gate, local_controls: &[usize], rest: &[usize]) -> Option<Gate> {
    use GateKind::*;
    let kind = match (gate.kind, local_controls.len()) {
        (Cx, 0) => X,
        (Cy, 0) => Y,
        (Cz, 0) => Z,
        (Ch, 0) => H,
        (Cp(a), 0) => P(a),
        (Crx(a), 0) => Rx(a),
        (Cry(a), 0) => Ry(a),
        (Crz(a), 0) => Rz(a),
        (Cu3(a, b, c), 0) => U3(a, b, c),
        (Ccx, 0) => X,
        (Ccx, 1) => Cx,
        (Cswap, 0) => Swap,
        _ => return None,
    };
    let mut qubits = local_controls.to_vec();
    qubits.extend_from_slice(rest);
    // Controlled kinds expect [control, target]; reduced kinds keep the same
    // operand order convention (controls first).
    Some(Gate::new(kind, qubits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;
    use hisvsim_statevec::run_circuit;

    fn check(circuit: &Circuit, ranks: usize) -> BaselineRun {
        let expected = run_circuit(circuit);
        let run = IqsBaseline::new(BaselineConfig::new(ranks)).run(circuit);
        assert!(
            run.state.approx_eq(&expected, 1e-9),
            "{} on {ranks} ranks: baseline result diverges (max diff {})",
            circuit.name,
            run.state.max_abs_diff(&expected)
        );
        run
    }

    #[test]
    fn baseline_matches_flat_across_suite() {
        for name in generators::FAMILY_NAMES {
            let circuit = generators::by_name(name, 8);
            check(&circuit, 4);
        }
    }

    #[test]
    fn baseline_matches_flat_on_random_circuits_and_rank_counts() {
        for seed in 0..3 {
            let circuit = generators::random_circuit(8, 60, seed);
            for ranks in [1usize, 2, 8] {
                check(&circuit, ranks);
            }
        }
    }

    #[test]
    fn diagonal_and_control_tricks_avoid_communication() {
        // A circuit of H on low qubits plus CZ/RZ/CP touching the top qubit:
        // every remote-qubit gate is diagonal, so zero bytes move (beyond the
        // final assembly).
        let mut c = Circuit::new(6);
        c.h(0).h(1).rz(0.3, 5).cz(0, 5).cp(0.7, 5, 1).cx(5, 0);
        let expected = run_circuit(&c);
        let run = IqsBaseline::new(BaselineConfig::new(4)).run(&c);
        assert!(run.state.approx_eq(&expected, 1e-10));
        // cx(5,0) has a remote control and local target: also free. No gate
        // forces a redistribution, so the layout never changes.
        assert_eq!(run.report.num_exchanges, 0);
    }

    #[test]
    fn remote_targets_cost_exchanges_every_time() {
        // H on the top qubit forces communication under a static mapping —
        // and unlike HiSVSIM's persistent remapping, it costs the same again
        // for every further gate on that qubit (2 redistributions per event).
        let mut c1 = Circuit::new(6);
        c1.h(5);
        let mut c3 = Circuit::new(6);
        c3.h(5).h(5).h(5);
        let run1 = IqsBaseline::new(BaselineConfig::new(4)).run(&c1);
        let run3 = IqsBaseline::new(BaselineConfig::new(4)).run(&c3);
        assert!(run3.state.approx_eq(&run_circuit(&c3), 1e-10));
        assert!(run1.report.comm.bytes_sent > 0);
        assert_eq!(run3.report.comm.bytes_sent, 3 * run1.report.comm.bytes_sent);
        assert_eq!(run3.report.num_exchanges, 3 * run1.report.num_exchanges);
    }

    #[test]
    fn the_comparator_exchanges_exactly_as_a_static_mapping_does() {
        // A static mapping pays a swap in and a swap back per remote-target
        // gate: each sends what changes rank, and the layout ends where it
        // began.
        let run = check(&generators::by_name("ising", 10), 4);
        let report = &run.report;
        assert_eq!(
            (
                report.num_exchanges,
                report.comm.bytes_sent,
                report.comm.messages_sent
            ),
            (40, 376_832, 480)
        );
    }

    #[test]
    fn baseline_communicates_more_than_hisvsim_on_comm_heavy_circuits() {
        // The transverse-field Ising evolution applies non-diagonal gates to
        // the top qubits on every Trotter step, so a static-mapping
        // simulator pays one exchange per step and per boundary gate; the
        // part-based schedule pays one per part switch.
        use crate::dist::{DistConfig, DistributedSimulator};
        use hisvsim_partition::Strategy;
        let circuit = generators::by_name("ising", 10);
        let baseline = check(&circuit, 4);
        let hisvsim = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
            .run(&circuit)
            .unwrap();
        assert!(
            hisvsim.report.comm.bytes_sent < baseline.report.comm.bytes_sent,
            "HiSVSIM moved {} bytes, baseline {} bytes",
            hisvsim.report.comm.bytes_sent,
            baseline.report.comm.bytes_sent
        );
        let net = hisvsim_cluster::NetworkModel::hdr100();
        let (ours, theirs) = (
            hisvsim.report.modeled_comm_s(&net),
            baseline.report.modeled_comm_s(&net),
        );
        assert!(
            ours <= theirs,
            "HiSVSIM modelled comm {ours}s, baseline {theirs}s"
        );
    }

    #[test]
    fn fusion_never_changes_the_baseline_communication_schedule() {
        // The baseline exists to model a static-mapping simulator's
        // communication; fused local segments must leave every comm counter
        // where the gate-by-gate schedule puts it, while still matching the
        // flat reference.
        for name in ["ising", "qft", "adder"] {
            let circuit = generators::by_name(name, 9);
            let expected = run_circuit(&circuit);
            let gate_by_gate = |comm: &mut hisvsim_cluster::LocalComm<Complex64>| {
                let mut state = DistState::new(comm, circuit.num_qubits());
                for gate in circuit.gates() {
                    apply_gate_distributed(&mut state, gate);
                }
                Ok(state.finish_rank())
            };
            let spec = RunSpec::new("-", "-", 4, Default::default());
            let (unfused_state, unfused) =
                run_thread_world(spec, &circuit, 1, gate_by_gate).expect("nothing cancels");
            let fused = IqsBaseline::new(BaselineConfig::new(4)).run(&circuit);
            assert!(unfused_state.approx_eq(&expected, 1e-9));
            assert!(fused.state.approx_eq(&expected, 1e-9));
            assert_eq!(fused.report.num_exchanges, unfused.num_exchanges);
            assert_eq!(fused.report.comm.bytes_sent, unfused.comm.bytes_sent);
            assert_eq!(fused.report.comm.messages_sent, unfused.comm.messages_sent);
        }
    }

    #[test]
    fn ccx_with_remote_controls_reduces_correctly() {
        // Put both Toffoli controls on remote qubits: only ranks with both
        // bits set flip the local target.
        let mut c = Circuit::new(6);
        c.x(4).x(5).add(GateKind::Ccx, &[4, 5, 0]);
        check(&c, 4);
        // And with one remote, one local control.
        let mut c2 = Circuit::new(6);
        c2.x(5).x(1).add(GateKind::Ccx, &[5, 1, 0]);
        check(&c2, 4);
    }
}
