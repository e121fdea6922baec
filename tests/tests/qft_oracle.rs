//! An oracle that shares nothing with the kernels: the QFT of a basis state
//! |x⟩ in closed form, amplitude k = e^{2πi·x·k/2ⁿ}/√2ⁿ, computed by a plain
//! `f64` loop, against `generators::qft(n)` after X gates prepare |x⟩,
//! submitted through `JobRunner`'s default route. At 20 qubits that route is
//! one part swept in place; at 22 it is `large_qft`'s: limit 21, a gathered
//! part, and the permutation the relabeled SWAPs leave.
//!
//! Tolerance: 1e-14 per real and imaginary part. Each amplitude has
//! magnitude 2^-n/2 (about 1e-3 at 20 qubits, 5e-4 at 22), so a slipped
//! phase or a misplaced qubit is off by ~1e-4 somewhere; the largest error
//! measured is 2.6e-18 at 20 qubits and under 1e-17 at 22.
//!
//! One test function: it reads the process-wide gathered-part tally.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::{parts_executed, PartMode};
use hisvsim_runtime::{EngineKind, JobControl, JobRunner, SchedulerConfig, Semaphore, SimJob};

const TOLERANCE: f64 = 1e-14;

/// Largest |Δ| over real and imaginary parts between `amps` (as `(re, im)`)
/// and the closed form for input `x` on `n` qubits.
fn max_error(n: usize, x: u64, amps: impl Iterator<Item = (f64, f64)>) -> f64 {
    let dim = 1u64 << n;
    let scale = 1.0 / (dim as f64).sqrt();
    amps.enumerate()
        .map(|(k, (re, im))| {
            // The phase's numerator mod 2ⁿ is exact in integers.
            let turns = (x * k as u64 % dim) as f64 / dim as f64;
            let angle = 2.0 * std::f64::consts::PI * turns;
            let (want_re, want_im) = (scale * angle.cos(), scale * angle.sin());
            (re - want_re).abs().max((im - want_im).abs())
        })
        .fold(0.0, f64::max)
}

/// |x⟩ prepared with X gates, then the QFT.
fn qft_of_basis(n: usize, x: u64) -> Circuit {
    let mut circuit = Circuit::named(format!("qft{n}_of_{x}"), n);
    for q in (0..n).filter(|&q| x >> q & 1 == 1) {
        circuit.x(q);
    }
    circuit.extend(&generators::qft(n));
    circuit
}

#[test]
fn the_default_route_computes_the_closed_form_qft() {
    let runner = JobRunner::new(SchedulerConfig::default());
    let residency = Semaphore::new(1);
    for (n, x, limit, gathers) in [(20, 0x9_3C5Au64, 20, false), (22, 0x2D_B1E7, 21, true)] {
        let before = parts_executed(PartMode::Gather);
        let result = runner
            .execute_job(
                0,
                SimJob::new(qft_of_basis(n, x)),
                &residency,
                &JobControl::new(),
            )
            .expect("the job runs");
        assert_eq!(
            (result.engine, result.decision.limit),
            (EngineKind::Hier, limit),
            "qft({n})"
        );
        assert_eq!(
            parts_executed(PartMode::Gather) > before,
            gathers,
            "qft({n})"
        );
        let state = result.state.expect("states are retained");
        let amps = state.amplitudes().iter().map(|a| (a.re, a.im));
        let error = max_error(n, x, amps);
        assert!(error <= TOLERANCE, "qft({n}) of |{x}⟩: max |Δ| {error:.3e}");
    }
}
