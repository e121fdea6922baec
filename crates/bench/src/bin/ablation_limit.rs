//! Ablation (README, "Reproducing the paper's artifacts"): sweep of the working-set limit `Lm` — the knob that
//! trades part count (communication) against inner-state-vector size
//! (locality) — for the single-node hierarchical engine.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin ablation_limit [qubits] [family]
//! ```

use hisvsim_bench::tables::render_table;
use hisvsim_circuit::generators;
use hisvsim_core::hier::{HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;

fn main() {
    let qubits: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(18);
    let family = std::env::args().nth(2).unwrap_or_else(|| "qft".to_string());
    let circuit = generators::by_name(&family, qubits);
    let dag = CircuitDag::from_circuit(&circuit);

    println!(
        "working-set limit sweep: {} ({} qubits, {} gates), dagP, single node\n",
        circuit.name,
        circuit.num_qubits(),
        circuit.num_gates()
    );
    let mut rows = Vec::new();
    let mut limit = 3usize;
    while limit <= qubits {
        match Strategy::DagP.partition(&dag, limit) {
            Ok(partition) => {
                let run = HierarchicalSimulator::new(
                    HierConfig::new(limit).with_strategy(Strategy::DagP),
                )
                .run_with_partition(&circuit, &dag, partition);
                rows.push(vec![
                    limit.to_string(),
                    run.report.num_parts.to_string(),
                    format!("{} KB", (16usize << limit) >> 10),
                    format!("{:.3}", run.report.total_time_s),
                ]);
            }
            Err(e) => rows.push(vec![
                limit.to_string(),
                format!("({e})"),
                "-".into(),
                "-".into(),
            ]),
        }
        limit += if limit < 8 { 1 } else { 2 };
    }
    println!(
        "{}",
        render_table(
            &["limit Lm", "parts", "inner SV size", "runtime (s)"],
            &rows
        )
    );
    println!("\nExpected: larger limits mean fewer parts (fewer outer sweeps) until the inner");
    println!("state vector no longer fits in cache — the trade-off the multi-level design");
    println!("(paper Sec. IV/V-D) exploits by picking two limits at once.");
}
