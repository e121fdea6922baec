//! Closed-form oracles beside `qft_oracle.rs`, sharing nothing with the
//! kernels: the expected state is a plain `f64` function of the basis index.
//!
//! * `cat_state(20)` is GHZ, (|0…0⟩ + |1…1⟩)/√2.
//! * `bv(20, seed)` leaves the data register in |secret⟩ and the ancilla
//!   (qubit 19) in |−⟩: +1/√2 at `secret`, −1/√2 at `secret | 1 << 19`. The
//!   secret is read off the circuit's CX gates into the ancilla.
//!
//! Each circuit runs through `JobRunner` on the default route (one part
//! swept in place) and as a forced `EngineKind::Dist` job on two ranks.
//! Tolerance: 1e-14 per real and imaginary part; every other amplitude is
//! exactly zero in the closed form, so a misplaced qubit is off by 1/√2.

use hisvsim_circuit::{generators, Circuit, GateKind};
use hisvsim_runtime::{EngineKind, JobControl, JobRunner, SchedulerConfig, Semaphore, SimJob};

const TOLERANCE: f64 = 1e-14;
const QUBITS: usize = 20;

/// Largest |Δ| over real and imaginary parts between `circuit`'s state on
/// `engine` (the default route when `None`), which must run on `ranks`
/// ranks, and `expected(index)`.
fn max_error(
    runner: &JobRunner,
    circuit: &Circuit,
    (engine, ranks): (Option<EngineKind>, usize),
    expected: impl Fn(u64) -> (f64, f64),
) -> f64 {
    let mut job = SimJob::new(circuit.clone());
    if let Some(engine) = engine {
        job = job.with_engine(engine);
    }
    let result = runner
        .execute_job(0, job, &Semaphore::new(1), &JobControl::new())
        .expect("the job runs");
    assert_eq!(result.decision.ranks, ranks, "{}", circuit.name);
    let state = result.state.expect("states are retained");
    (state.amplitudes().iter().enumerate())
        .map(|(index, amp)| {
            let (re, im) = expected(index as u64);
            (amp.re - re).abs().max((amp.im - im).abs())
        })
        .fold(0.0, f64::max)
}

/// The BV secret: the controls of the CX gates into the ancilla.
fn secret(circuit: &Circuit, ancilla: usize) -> u64 {
    (circuit.gates().iter())
        .filter(|gate| gate.kind == GateKind::Cx && gate.qubits[1] == ancilla)
        .fold(0, |secret, gate| secret | 1 << gate.qubits[0])
}

#[test]
fn ghz_and_bernstein_vazirani_match_their_closed_forms() {
    let runner = JobRunner::new(SchedulerConfig::default());
    let half = std::f64::consts::FRAC_1_SQRT_2;

    let ghz = generators::cat_state(QUBITS);
    let ones = (1u64 << QUBITS) - 1;
    let ghz_state = |index: u64| match index {
        0 => (half, 0.0),
        i if i == ones => (half, 0.0),
        _ => (0.0, 0.0),
    };

    let ancilla = QUBITS - 1;
    let bv = generators::bv(QUBITS, 7);
    let secret = secret(&bv, ancilla);
    assert_ne!(secret, 0, "the seed draws a non-trivial secret");
    let bv_state = |index: u64| match index {
        i if i == secret => (half, 0.0),
        i if i == secret | 1 << ancilla => (-half, 0.0),
        _ => (0.0, 0.0),
    };

    for route in [(None, 1), (Some(EngineKind::Dist), 2)] {
        let error = max_error(&runner, &ghz, route, ghz_state);
        assert!(error <= TOLERANCE, "GHZ on {route:?}: max |Δ| {error:.3e}");
        let error = max_error(&runner, &bv, route, bv_state);
        assert!(error <= TOLERANCE, "BV on {route:?}: max |Δ| {error:.3e}");
    }
}
