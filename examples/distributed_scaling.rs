//! Distributed strong-scaling demo: one circuit, growing virtual-rank counts,
//! HiSVSIM (three strategies) against the IQS-style baseline.
//!
//! ```text
//! cargo run --release -p hisvsim-examples --bin distributed_scaling [family] [qubits]
//! ```
//!
//! This is a miniature of the paper's Figs. 5–7: for every rank count it
//! prints the end-to-end modelled time, the computation time, the modelled
//! communication time and the improvement factor over the baseline.

use hisvsim_circuit::generators;
use hisvsim_core::{BaselineConfig, DistConfig, DistributedSimulator, IqsBaseline};
use hisvsim_partition::Strategy;
use hisvsim_statevec::run_circuit;

fn main() {
    let family = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ising".to_string());
    let qubits: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let circuit = generators::by_name(&family, qubits);
    let reference = run_circuit(&circuit);
    println!(
        "strong scaling of {} ({} qubits, {} gates)\n",
        circuit.name,
        circuit.num_qubits(),
        circuit.num_gates()
    );
    println!(
        "{:>6} {:>14} | {:>10} {:>10} {:>10} {:>12} | {:>8}",
        "ranks", "engine", "total (s)", "compute(s)", "comm (s)", "bytes moved", "speedup"
    );

    // Virtual ranks are threads, so oversubscription is harmless; floor the
    // sweep at 8 ranks so small hosts still produce a table.
    let max_ranks = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .next_power_of_two()
        .clamp(8, 16);
    let mut ranks = 2usize;
    while ranks <= max_ranks {
        let baseline = IqsBaseline::new(BaselineConfig::new(ranks)).run(&circuit);
        assert!(baseline.state.approx_eq(&reference, 1e-9));
        let baseline_total = baseline.report.modeled_total_time_s();
        println!(
            "{:>6} {:>14} | {:>10.4} {:>10.4} {:>10.6} {:>12} | {:>8}",
            ranks,
            "IQS-baseline",
            baseline_total,
            baseline.report.compute_time_s,
            baseline.report.avg_comm_time_s,
            baseline.report.comm.bytes_sent,
            "1.00x"
        );
        for strategy in Strategy::ALL {
            let run = DistributedSimulator::new(DistConfig::new(ranks).with_strategy(strategy))
                .run(&circuit)
                .expect("partitioning failed");
            assert!(run.state.approx_eq(&reference, 1e-9));
            println!(
                "{:>6} {:>14} | {:>10.4} {:>10.4} {:>10.6} {:>12} | {:>7.2}x",
                ranks,
                format!("HiSVSIM-{}", strategy.name()),
                run.report.modeled_total_time_s(),
                run.report.compute_time_s,
                run.report.avg_comm_time_s,
                run.report.comm.bytes_sent,
                baseline_total / run.report.modeled_total_time_s()
            );
        }
        println!();
        ranks *= 2;
    }
}
