//! The fused-pipeline acceptance benchmark: measures the end-to-end speedup
//! of the fused flat simulator and of the hierarchical engine (which only
//! runs fused) over the flat gate-by-gate
//! reference, verifies every result against that reference, and records
//! everything in `BENCH_fusion.json` — one run per width, a re-run replacing
//! the run of its width — so the perf trajectory of the execution path has
//! data points. The hier rows are taken at two limits (`qubits − 4`, and 16:
//! a working set of one L2 tile) and say how many of their passes were
//! strided tile walks (Algorithm 1 at tile granularity); the flat fused rows
//! are the same circuit as one part, which is what the paper's claim is read
//! against (README, "Reproducing the paper's artifacts").
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin fusion [qubits] [reps] [family]
//! ```
//!
//! `family` (`qft` | `random` | `all`, default `all`) restricts the run to
//! one circuit family — handy for re-measuring a single row without paying
//! for the whole matrix.
//!
//! Defaults: 24 qubits, 3 repetitions (best-of). Families: the QFT (layered:
//! mergeable gates sit close together) and the deep `random` interleaved
//! family (depth ≥ 64 at the default size: mergeable gates sit far apart in
//! program order). A width sweep at a smaller size maps the fusion-width
//! curve behind [`DEFAULT_FUSION_WIDTH`].
//!
//! Runs written before fusion had one form also carry a `strategy` column
//! (`window` or `dag`) and `auto_picks`: the evidence that DAG grouping is
//! never the slower form (README, "Fusion").

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{FusedSinglePlan, HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use hisvsim_statevec::{
    fusion, kernels, ApplyOptions, FusedCircuit, StateVector, DEFAULT_FUSION_WIDTH,
};
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

#[derive(Serialize)]
struct FlatResult {
    circuit: String,
    qubits: usize,
    gates: usize,
    depth: usize,
    fusion_width: usize,
    fused_ops: usize,
    unfused_s: f64,
    fused_s: f64,
    speedup: f64,
    max_abs_diff: f64,
}

#[derive(Serialize)]
struct HierResult {
    circuit: String,
    qubits: usize,
    limit: usize,
    num_parts: usize,
    /// Passes whose tiles were strided chunks, copied into a tile buffer
    /// and back, per run.
    strided_passes: usize,
    fusion_width: usize,
    /// The flat simulator applying the circuit gate by gate (the same
    /// measurement as the flat rows' `unfused_s`): the engine has no
    /// unfused path of its own to compare with.
    flat_gate_by_gate_s: f64,
    fused_s: f64,
    speedup_vs_flat_gate_by_gate: f64,
    max_abs_diff: f64,
}

#[derive(Serialize)]
struct SweepPoint {
    circuit: String,
    qubits: usize,
    fusion_width: usize,
    fused_ops: usize,
    time_s: f64,
    speedup_vs_flat: f64,
}

#[derive(Serialize)]
struct Report {
    qubits: usize,
    reps: usize,
    default_fusion_width: usize,
    flat: Vec<FlatResult>,
    hier: Vec<HierResult>,
    width_sweep: Vec<SweepPoint>,
}

/// Benchmark circuits: the layered QFT and the deep `random` interleaved
/// family. The random instance is deepened until its circuit depth reaches
/// 64 (at 24 qubits: ~48·n gates).
fn circuit_by_name(name: &str, n: usize) -> Circuit {
    match name {
        "random" => {
            let mut gates = 48 * n;
            loop {
                let c = generators::random_circuit(n, gates, 0x5EED);
                if c.depth() >= 64 {
                    return c;
                }
                gates += 8 * n;
            }
        }
        other => generators::by_name(other, n),
    }
}

/// Best-of-`reps` wall time of `f`.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// One family's circuit with its flat gate-by-gate run: the final state
/// every fused result is checked against, and the best-of-`reps` time both
/// tables measure speedup from.
struct Reference {
    name: &'static str,
    circuit: Circuit,
    state: StateVector,
    time_s: f64,
}

fn flat_reference(name: &'static str, n: usize, reps: usize) -> Reference {
    let circuit = circuit_by_name(name, n);
    let opts = ApplyOptions::default();
    let mut state = StateVector::zero_state(n);
    let time_s = time_best(reps, || {
        state = StateVector::zero_state(n);
        kernels::apply_circuit_with(&mut state, &circuit, &opts);
    });
    Reference {
        name,
        circuit,
        state,
        time_s,
    }
}

fn flat_case(reference: &Reference, reps: usize, width: usize) -> FlatResult {
    let Reference { name, circuit, .. } = reference;
    let n = circuit.num_qubits();
    let unfused_s = reference.time_s;
    let opts = ApplyOptions::default();
    let fused = FusedCircuit::new(circuit, width);
    let mut fused_state = StateVector::zero_state(n);
    let fused_s = time_best(reps, || {
        fused_state = StateVector::zero_state(n);
        fused.apply(&mut fused_state, &opts);
    });
    let max_abs_diff = fused_state.max_abs_diff(&reference.state);
    println!(
        "flat {name}@{n}: unfused {unfused_s:.3} s, fused(w={width}) {fused_s:.3} s -> {:.2}x \
         (max diff {max_abs_diff:.2e}, {} ops for {} gates)",
        unfused_s / fused_s,
        fused.num_ops(),
        circuit.num_gates()
    );
    FlatResult {
        circuit: name.to_string(),
        qubits: n,
        gates: circuit.num_gates(),
        depth: circuit.depth(),
        fusion_width: width,
        fused_ops: fused.num_ops(),
        unfused_s,
        fused_s,
        speedup: unfused_s / fused_s,
        max_abs_diff,
    }
}

fn hier_case(reference: &Reference, limit: usize, reps: usize, width: usize) -> HierResult {
    let Reference { name, circuit, .. } = reference;
    let n = circuit.num_qubits();
    let flat_s = reference.time_s;
    let dag = CircuitDag::from_circuit(circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("partitioning failed");
    let fused_sim = HierarchicalSimulator::new(HierConfig::new(limit));
    let plan =
        FusedSinglePlan::build_with_strategy(circuit, &dag, partition, width, Default::default());
    let strided_before = fusion::strided_passes();
    let mut fused_state = None;
    let fused_s = time_best(reps, || {
        fused_state = Some(fused_sim.run_with_fused_plan(circuit, &plan).state);
    });
    // Every rep runs the same passes.
    let strided_passes = (fusion::strided_passes() - strided_before) as usize / reps;
    let max_abs_diff = fused_state
        .expect("at least one rep")
        .max_abs_diff(&reference.state);
    println!(
        "hier {name}@{n} (limit {limit}, {} parts, {strided_passes} strided passes): flat gate by gate \
         {flat_s:.3} s, fused(w={width}) {fused_s:.3} s -> {:.2}x (max diff {max_abs_diff:.2e})",
        plan.parts.len(),
        flat_s / fused_s
    );
    HierResult {
        circuit: name.to_string(),
        qubits: n,
        limit,
        num_parts: plan.parts.len(),
        strided_passes,
        fusion_width: width,
        flat_gate_by_gate_s: flat_s,
        fused_s,
        speedup_vs_flat_gate_by_gate: flat_s / fused_s,
        max_abs_diff,
    }
}

/// Every run in `BENCH_fusion.json`, ascending by width.
struct Ledger(Vec<Value>);

impl Serialize for Ledger {
    fn to_value(&self) -> Value {
        Value::Object(vec![("runs".to_string(), Value::Array(self.0.clone()))])
    }
}

/// `BENCH_fusion.json` with this run in place of the earlier run of the same
/// width.
fn ledger_with(report: &Report) -> Ledger {
    let width_of = |run: &Value| match run.get_field("qubits") {
        Some(Value::Int(qubits)) => *qubits,
        _ => -1,
    };
    let mut runs: Vec<Value> = std::fs::read_to_string("BENCH_fusion.json")
        .ok()
        .and_then(|text| serde_json::value_from_str(&text).ok())
        .and_then(|ledger| Some(ledger.get_field("runs")?.as_array()?.to_vec()))
        .unwrap_or_default();
    runs.retain(|run| width_of(run) != report.qubits as i128);
    runs.push(serde_json::to_value(report));
    runs.sort_by_key(width_of);
    Ledger(runs)
}

fn width_sweep(name: &str, n: usize, reps: usize) -> Vec<SweepPoint> {
    let circuit = circuit_by_name(name, n);
    let opts = ApplyOptions::default();
    let flat_s = time_best(reps, || {
        let mut state = StateVector::zero_state(n);
        kernels::apply_circuit_with(&mut state, &circuit, &opts);
    });
    (1usize..=5)
        .map(|width| {
            let fused = FusedCircuit::new(&circuit, width);
            let time_s = time_best(reps, || {
                let mut state = StateVector::zero_state(n);
                fused.apply(&mut state, &opts);
            });
            println!(
                "sweep {name}@{n} w={width}: {time_s:.3} s ({:.2}x vs flat, {} ops)",
                flat_s / time_s,
                fused.num_ops()
            );
            SweepPoint {
                circuit: name.to_string(),
                qubits: n,
                fusion_width: width,
                fused_ops: fused.num_ops(),
                time_s,
                speedup_vs_flat: flat_s / time_s,
            }
        })
        .collect()
}

fn main() {
    let qubits: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let family = std::env::args().nth(3).unwrap_or_else(|| "all".to_string());
    let families: Vec<&'static str> = match family.as_str() {
        "all" => vec!["qft", "random"],
        "qft" => vec!["qft"],
        "random" => vec!["random"],
        other => panic!("unknown family {other:?} (expected qft, random or all)"),
    };
    let width = DEFAULT_FUSION_WIDTH;
    let sweep_qubits = qubits.saturating_sub(2).max(16);

    println!("fused-pipeline benchmark: {qubits} qubits, best of {reps}\n");

    // The paper's shape (a part a few qubits narrower than the state), and
    // an inner vector of one L2 tile.
    let mut limits = vec![qubits.saturating_sub(4).max(4)];
    if 16 < limits[0] {
        limits.push(16);
    }
    let (mut flat, mut hier) = (Vec::new(), Vec::new());
    for name in families.iter().copied() {
        let reference = flat_reference(name, qubits, reps);
        flat.push(flat_case(&reference, reps, width));
        for &limit in &limits {
            hier.push(hier_case(&reference, limit, reps, width));
        }
    }
    let sweep = width_sweep("qft", sweep_qubits, reps);

    let report = Report {
        qubits,
        reps,
        default_fusion_width: width,
        flat,
        hier,
        width_sweep: sweep,
    };
    if family == "all" {
        let json = serde_json::to_string_pretty(&ledger_with(&report)).expect("serialize ledger");
        std::fs::write("BENCH_fusion.json", &json).expect("write BENCH_fusion.json");
        println!("\nwrote the {qubits}-qubit run into BENCH_fusion.json");
    } else {
        println!("\nfamily filter active ({family}): BENCH_fusion.json left untouched");
    }

    for result in &report.flat {
        assert!(
            result.max_abs_diff < 1e-9,
            "{}: fused flat result diverged",
            result.circuit
        );
    }
    for result in &report.hier {
        assert!(
            result.max_abs_diff < 1e-9,
            "{} (limit {}): fused hier result diverged",
            result.circuit,
            result.limit
        );
    }
}
