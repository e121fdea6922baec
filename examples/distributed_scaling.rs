//! Distributed strong-scaling demo: one circuit, growing virtual-rank counts,
//! HiSVSIM (three strategies) against the IQS-style baseline.
//!
//! ```text
//! cargo run --release -p hisvsim-examples --bin distributed_scaling [family] [qubits]
//! ```
//!
//! This is a miniature of the paper's Figs. 5–7: for every rank count it
//! prints the end-to-end modelled time, the computation time, the modelled
//! communication time and the improvement factor over the baseline. The
//! engines count messages and bytes; the HDR-100 model prices each report
//! after its run.

use hisvsim_circuit::generators;
use hisvsim_cluster::NetworkModel;
use hisvsim_core::{BaselineConfig, DistConfig, DistributedSimulator, IqsBaseline, RunReport};
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
    // Modelled end-to-end time: computation plus the average priced
    // communication (they overlap across ranks; Sec. V-C).
    let net = NetworkModel::hdr100();
    let comm = |report: &RunReport| report.modeled_comm_s(&net);
    let total = |report: &RunReport| report.compute_time_s + comm(report);
    let mut ranks = 2usize;
    while ranks <= max_ranks {
        let baseline = IqsBaseline::new(BaselineConfig::new(ranks)).run(&circuit);
        assert!(baseline.state.approx_eq(&reference, 1e-9));
        let baseline_total = total(&baseline.report);
        println!(
            "{:>6} {:>14} | {:>10.4} {:>10.4} {:>10.6} {:>12} | {:>8}",
            ranks,
            "IQS-baseline",
            baseline_total,
            baseline.report.compute_time_s,
            comm(&baseline.report),
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
                total(&run.report),
                run.report.compute_time_s,
                comm(&run.report),
                run.report.comm.bytes_sent,
                baseline_total / total(&run.report)
            );
        }
        println!();
        ranks *= 2;
    }
}
