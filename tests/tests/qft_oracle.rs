//! An oracle that shares nothing with the kernels: the QFT of a basis state
//! |x⟩ in closed form, amplitude k = e^{2πi·x·k/2ⁿ}/√2ⁿ, computed by a plain
//! `f64` loop, against `generators::qft(n)` after X gates prepare |x⟩,
//! submitted through `JobRunner`. On the default route it is one part swept
//! in place at 20 qubits, and at 22 too (`large_qft`'s), its SWAPs dropped
//! and every other gate on the reversed qubits; at 22 its second pass
//! strides tiles across qubits 16–21. A job forcing limit 21 at 22 qubits keeps that plan,
//! three parts, each swept in place. |0⟩ at 22 qubits is `large_qft`'s own
//! circuit: each tiled pass there leaves out every diagonal run, since each
//! controlled phase waits on a qubit no H has reached yet. A job forcing
//! `Dist` runs qft(21) on two ranks, three parts each, whose slices start
//! zero but for rank 0's.
//!
//! Tolerance: 1e-14 per real and imaginary part. Each amplitude has
//! magnitude 2^-n/2 (about 1e-3 at 20 qubits, 5e-4 at 22), so a slipped
//! phase or a misplaced qubit is off by ~1e-4 somewhere; the largest error
//! measured is 2.6e-18 at 20 qubits and under 1e-17 at 22.
//!
//! One test function: it reads the process-wide part tally.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::hier::parts_executed;
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
    // (n, x, forced limit, forced engine, (engine, limit, ranks) run, parts
    // executed: every rank counts each of its schedule's parts)
    let rows = [
        (20, 0x9_3C5Au64, None, None, (EngineKind::Hier, 20, 1), 1),
        (22, 0x2D_B1E7, None, None, (EngineKind::Hier, 22, 1), 1),
        (22, 0x1E_83C5, Some(21), None, (EngineKind::Hier, 21, 1), 3),
        (22, 0, None, None, (EngineKind::Hier, 22, 1), 1),
        (
            21,
            0x0B_7D29,
            None,
            Some(EngineKind::Dist),
            (EngineKind::Dist, 20, 2),
            6,
        ),
    ];
    for (n, x, forced, engine, route, parts) in rows {
        let before = parts_executed();
        let mut job = SimJob::new(qft_of_basis(n, x));
        if let Some(forced) = forced {
            job = job.with_limit(forced);
        }
        if let Some(engine) = engine {
            job = job.with_engine(engine);
        }
        let result = runner
            .execute_job(0, job, &residency, &JobControl::new())
            .expect("the job runs");
        let decision = &result.decision;
        assert_eq!(
            (result.engine, decision.limit, decision.ranks),
            route,
            "qft({n})"
        );
        assert_eq!(parts_executed() - before, parts, "qft({n})");
        let state = result.state.expect("states are retained");
        let amps = state.amplitudes().iter().map(|a| (a.re, a.im));
        let error = max_error(n, x, amps);
        assert!(error <= TOLERANCE, "qft({n}) of |{x}⟩: max |Δ| {error:.3e}");
    }
}
