//! Closed-form oracles beside `qft_oracle.rs`, sharing nothing with the
//! kernels: the expected state is a plain `f64` function of the basis index.
//!
//! * `cat_state(20)` is GHZ, (|0…0⟩ + |1…1⟩)/√2.
//! * `bv(20, seed)` leaves the data register in |secret⟩ and the ancilla
//!   (qubit 19) in |−⟩: +1/√2 at `secret`, −1/√2 at `secret | 1 << 19`. The
//!   secret is read off the circuit's CX gates into the ancilla.
//! * `adder(20)` is a 9-bit Cuccaro adder (carry-in qubit 0, `a_i` = qubit
//!   1 + 2i, `b_i` = qubit 2 + 2i, carry-out qubit 19) on A in uniform
//!   superposition and B = 73, the X bits it sets: each of the 512 branches
//!   is |a⟩|a + 73⟩, 2^-4.5 at its index, the sum's tenth bit the carry-out.
//! * `qpe(20)` estimates the 5-bit phase 0.34375 on 19 counting qubits: one
//!   basis state, amplitude 1, the counting register reading
//!   0.34375 · 2^19 with the eigenstate's target (qubit 19) set, but for the
//!   rounding of the generator's phase angles, which the form carries.
//!
//! Each circuit runs through `JobRunner` on the default route (one part
//! swept in place) and as a forced `EngineKind::Dist` job on two ranks.
//! These 20-qubit states are 16 tiles of 2^16 amplitudes, and every pass
//! that starts before some qubit is mixed sweeps only the tiles that can be
//! nonzero, so the forms check the skipped tiles too. Tolerance: 1e-14 per
//! real and imaginary part; every other amplitude is exactly zero in the
//! closed form, so a misplaced qubit is off by at least 2^-4.5 (the adder's
//! largest error measured is 2.8e-17, QPE's 2.7e-15).

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

#[test]
fn the_adder_and_phase_estimation_match_their_closed_forms() {
    let runner = JobRunner::new(SchedulerConfig::default());

    let adder = generators::adder(QUBITS);
    let k = (QUBITS - 2) / 2;
    // B's fixed bits: the X gates on its register, b_i at qubit 2 + 2i.
    let b = (adder.gates().iter())
        .filter(|gate| gate.kind == GateKind::X)
        .fold(0u64, |b, gate| b | 1 << ((gate.qubits[0] - 2) / 2));
    assert_eq!(b, 73, "the generator sets b_0, b_3 and b_6");
    // Branch a's index: a at qubits 1 + 2i, a + b at 2 + 2i, its carry at
    // qubit 2k + 1, the carry-in back to 0.
    let branch = |a: u64| {
        let sum = a + b;
        (0..k).fold(sum >> k << (2 * k + 1), |index, i| {
            index | (a >> i & 1) << (1 + 2 * i) | (sum >> i & 1) << (2 + 2 * i)
        })
    };
    let amplitude = 0.5f64.powf(k as f64 / 2.0);
    let adder_state = |index: u64| {
        let a = (0..k).fold(0, |a, i| a | (index >> (1 + 2 * i) & 1) << i);
        match index == branch(a) {
            true => (amplitude, 0.0),
            false => (0.0, 0.0),
        }
    };

    // The counting register (qubit q weighs 2^q) after the controlled
    // phases is Σ_x e^(iφ(x))|x⟩/√M with φ(x) = Σ_q x_q·a_q, a_q the angle
    // of the phase on qubit q, and the inverse QFT takes it to amplitude
    // Π_q (1 + e^(i(a_q − 2π·y·2^q/M)))/2 at y. The generator's angles are
    // 2^q·θ for θ = 2π·0.34375 rounded once, so a_q = 2π·11·2^q/32 +
    // 2^q·ε, and ε, the rounding, is carried exactly: the top qubit's
    // 2^18·ε alone comes near 1e-10, far above the tolerance. At ε = 0 this
    // is one basis state, y = 0.34375·M with amplitude 1.
    let qpe = generators::qpe(QUBITS);
    let counting = QUBITS - 1;
    let m = 1u64 << counting;
    let estimate = 11 * m / 32;
    let theta = 2.0 * std::f64::consts::PI * 0.34375;
    // π beyond the 53 bits of `PI`.
    const PI_LO: f64 = 1.2246467991473532e-16;
    let epsilon = (-0.6875f64).mul_add(std::f64::consts::PI, theta) - 0.6875 * PI_LO;
    let counting_state: Vec<(f64, f64)> = (0..m)
        .map(|y| {
            (0..counting).fold((1.0, 0.0), |(re, im), q| {
                let turns = (estimate.wrapping_sub(y) << q) % m;
                let angle =
                    std::f64::consts::TAU * turns as f64 / m as f64 + epsilon * (1u64 << q) as f64;
                let (f_re, f_im) = ((1.0 + angle.cos()) / 2.0, angle.sin() / 2.0);
                (re * f_re - im * f_im, re * f_im + im * f_re)
            })
        })
        .collect();
    assert!((counting_state[estimate as usize].0 - 1.0).abs() < 1e-9);
    // The eigenstate's target (qubit 19) stays |1⟩.
    let qpe_state = |index: u64| match index >> counting {
        1 => counting_state[(index & (m - 1)) as usize],
        _ => (0.0, 0.0),
    };

    for route in [(None, 1), (Some(EngineKind::Dist), 2)] {
        let error = max_error(&runner, &adder, route, adder_state);
        assert!(
            error <= TOLERANCE,
            "adder on {route:?}: max |Δ| {error:.3e}"
        );
        let error = max_error(&runner, &qpe, route, qpe_state);
        assert!(error <= TOLERANCE, "QPE on {route:?}: max |Δ| {error:.3e}");
    }
}
