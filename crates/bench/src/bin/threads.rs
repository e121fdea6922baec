//! Sec. V-A single-node strong scaling — the paper reports close-to-linear
//! speedup of the single-node hierarchical engine as OpenMP threads increase
//! (2–128 threads on the 448-core workstation). Here the rayon pool size
//! plays the role of the OpenMP thread count.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin threads [qubits] [family]
//! ```

use hisvsim_bench::tables::render_table;
use hisvsim_circuit::generators;
use hisvsim_core::hier::{HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use std::time::Instant;

fn main() {
    let qubits: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let family = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "ising".to_string());
    let circuit = generators::by_name(&family, qubits);
    let limit = qubits / 2;
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP
        .partition(&dag, limit)
        .expect("partitioning failed");

    println!(
        "single-node strong scaling: {} ({} qubits, {} gates), dagP, Lm = {limit}\n",
        circuit.name,
        circuit.num_qubits(),
        circuit.num_gates()
    );

    let max_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads = 1usize;
    let mut rows = Vec::new();
    let mut baseline_time = None;
    while threads <= max_threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let sim = HierarchicalSimulator::new(HierConfig::new(limit).with_strategy(Strategy::DagP));
        let start = Instant::now();
        let run = pool.install(|| sim.run_with_partition(&circuit, &dag, partition.clone()));
        let elapsed = start.elapsed().as_secs_f64();
        let base = *baseline_time.get_or_insert(elapsed);
        rows.push(vec![
            threads.to_string(),
            format!("{elapsed:.3}"),
            format!("{:.2}x", base / elapsed),
            format!("{:.0}%", 100.0 * base / elapsed / threads as f64),
            run.report.num_parts.to_string(),
        ]);
        threads *= 2;
    }
    println!(
        "{}",
        render_table(
            &["threads", "time (s)", "speedup", "efficiency", "parts"],
            &rows
        )
    );
    println!("\nPaper shape to reproduce: close-to-linear speedup in this strong-scaling sweep.");
}
