//! Table II — memory-access breakdown of the single-node execution under the
//! three partitioning strategies (bv and ising, as in the paper), using the
//! cache-hierarchy model as the VTune substitute plus the measured execution
//! time of the hierarchical engine.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin table2 [qubits] [limit]
//! ```

use hisvsim_bench::profile::{hierarchical_access_trace, TraceOptions};
use hisvsim_bench::tables::render_table;
use hisvsim_circuit::generators;
use hisvsim_core::hier::{HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_memmodel::{replay_amplitude_indices, HierarchyConfig, MemoryBreakdown};
use hisvsim_partition::Strategy;

fn main() {
    let qubits: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(18);
    let limit: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(qubits / 2);
    let cache = HierarchyConfig::cascade_lake();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");

    println!("Table II — memory access breakdown (cache-model substitute for VTune)\n");
    println!("circuits at {qubits} qubits, working-set limit Lm = {limit}, Cascade-Lake-like cache model\n");

    let mut rows = Vec::new();
    for family in ["bv", "ising"] {
        let circuit = generators::by_name(family, qubits);
        let dag = CircuitDag::from_circuit(&circuit);
        for strategy in Strategy::ALL {
            let partition = strategy
                .partition(&dag, limit)
                .expect("partitioning failed");
            // Measured execution time of the hierarchical engine, on one
            // thread.
            let sim = HierarchicalSimulator::new(HierConfig::new(limit).with_strategy(strategy));
            let run =
                one_thread.install(|| sim.run_with_partition(&circuit, &dag, partition.clone()));

            // Modelled memory behaviour of the same execution order.
            let trace = hierarchical_access_trace(
                &circuit,
                &dag,
                &partition,
                TraceOptions {
                    max_assignments_per_part: 8,
                    max_accesses: 3_000_000,
                },
            );
            let stats = replay_amplitude_indices(cache, trace);
            let breakdown = MemoryBreakdown::from_stats(
                family,
                strategy.name(),
                stats,
                &cache,
                run.report.total_time_s,
            );
            rows.push(vec![
                family.to_string(),
                strategy.name().to_string(),
                partition.num_parts().to_string(),
                format!("{:.1}", breakdown.service_percent[0]),
                format!("{:.1}", breakdown.service_percent[1]),
                format!("{:.1}", breakdown.service_percent[2]),
                format!("{:.1}", breakdown.service_percent[3]),
                format!("{:.1}", breakdown.avg_latency_cycles),
                format!("{:.3}", breakdown.execution_time_s),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "strategy",
                "parts",
                "L1 %",
                "L2 %",
                "L3 %",
                "DRAM %",
                "avg lat (cyc)",
                "exec time (s)",
            ],
            &rows
        )
    );
    println!("Paper shape to reproduce: dagP has the lowest DRAM share and the lowest execution");
    println!("time, Nat the highest, on both circuits (paper Table II).");
}
