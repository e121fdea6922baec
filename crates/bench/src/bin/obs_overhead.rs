//! Observability overhead guard: an *enabled* span recorder must cost less
//! than 1% of wall time on a fused QFT-22 run — it fails loudly (non-zero
//! exit) if span bookkeeping ever leaks onto a hot path, so CI goes red.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin obs_overhead [reps]
//! ```
//!
//! Shared runners have ±3% wall-clock noise even on sequential runs, so a
//! naive on/off wall-time diff cannot honestly resolve a 1% threshold. The
//! gate is instead computed from two noise-immune measurements:
//!
//! 1. **span census** — how many spans one traced run actually emits
//!    (`drain().len()`); the sweeps record per *op*, never per amplitude,
//!    so this is O(circuit), ~dozens;
//! 2. **per-span cost** — a tight loop over 100k armed spans with a
//!    typical formatted detail, including the amortised drain.
//!
//! `overhead = spans × cost_per_span / run_time`. If a change starts
//! emitting spans per tile or per amplitude, the census jumps by orders of
//! magnitude and the guard trips regardless of machine noise. The raw
//! on/off wall times are printed for the record.

use hisvsim_circuit::generators;
use hisvsim_statevec::{ApplyOptions, FusedCircuit, StateVector};
use std::process::ExitCode;
use std::time::Instant;

const QUBITS: usize = 22;
const MAX_OVERHEAD_PCT: f64 = 1.0;

fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() -> ExitCode {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let circuit = generators::qft(QUBITS);
    let fused = FusedCircuit::new(&circuit, 3);
    let opts = ApplyOptions::default();
    let run = || {
        let mut state = StateVector::zero_state(QUBITS);
        fused.apply(&mut state, &opts);
        state
    };

    // Baseline wall time, recorder off.
    hisvsim_obs::set_enabled(false);
    let off_s = time_best(reps, || {
        run();
    });

    // Span census: how many spans one traced run emits.
    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    run();
    let spans = hisvsim_obs::drain().len();

    // Per-span cost, drain included, over a tight armed loop.
    const PROBE: usize = 100_000;
    let span_probe_s = time_best(reps, || {
        for i in 0..PROBE {
            let _g = hisvsim_obs::span("kernel", "probe")
                .detail(format!("{i} gates, {} amps", 1usize << QUBITS));
        }
        let _ = hisvsim_obs::drain();
    });
    let cost_per_span_s = span_probe_s / PROBE as f64;

    // Informational wall-clock diff (too noisy to gate on, printed for the
    // record).
    let on_s = time_best(reps, || {
        run();
        let _ = hisvsim_obs::drain();
    });
    hisvsim_obs::set_enabled(false);

    let overhead_pct = spans as f64 * cost_per_span_s / off_s * 100.0;
    println!(
        "obs overhead on qft-{QUBITS} (best of {reps}): {spans} spans/run x {:.0} ns/span \
         over {off_s:.4} s -> {overhead_pct:.4}% attributable (limit {MAX_OVERHEAD_PCT}%)",
        cost_per_span_s * 1e9,
    );
    println!(
        "  wall-clock for the record: recorder off {off_s:.4} s, on {on_s:.4} s \
         ({:+.2}%, machine noise ±3%)",
        (on_s / off_s - 1.0) * 100.0
    );
    if overhead_pct >= MAX_OVERHEAD_PCT {
        eprintln!(
            "FAIL: enabled span recorder costs {overhead_pct:.2}% of a qft-{QUBITS} run \
             (limit {MAX_OVERHEAD_PCT}%) — span bookkeeping has leaked onto a hot path \
             ({spans} spans for a {}-op fused circuit)",
            fused.num_ops()
        );
        return ExitCode::FAILURE;
    }
    println!("PASS: recorder overhead within the {MAX_OVERHEAD_PCT}% budget");
    ExitCode::SUCCESS
}
