//! Quickstart: build a circuit, partition it, and simulate it three ways.
//!
//! ```text
//! cargo run --release -p hisvsim-examples --bin quickstart [qubits]
//! ```
//!
//! Runs a QFT circuit through (1) the flat reference simulator, (2) the
//! single-node hierarchical engine with each partitioning strategy, and
//! (3) the distributed engine on four virtual ranks, prints the
//! timing/communication report of each, and checks that all produce the same
//! quantum state.

use hisvsim_circuit::generators;
use hisvsim_cluster::NetworkModel;
use hisvsim_core::{DistConfig, DistributedSimulator, HierConfig, HierarchicalSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::Strategy;
use hisvsim_statevec::{measure, run_circuit};
use std::time::Instant;

fn main() {
    let qubits: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let circuit = generators::qft(qubits);
    println!(
        "circuit: {} — {} qubits, {} gates, depth {}",
        circuit.name,
        circuit.num_qubits(),
        circuit.num_gates(),
        circuit.depth()
    );

    // 1. Flat reference simulation.
    let start = Instant::now();
    let reference = run_circuit(&circuit);
    println!(
        "flat reference      : {:8.3} s",
        start.elapsed().as_secs_f64()
    );

    // 2. Single-node hierarchical simulation (Gather–Execute–Scatter).
    let limit = (qubits / 2).max(2);
    let dag = CircuitDag::from_circuit(&circuit);
    for strategy in Strategy::ALL {
        let partition = strategy
            .partition(&dag, limit)
            .expect("partitioning failed");
        let sim = HierarchicalSimulator::new(HierConfig::new(limit).with_strategy(strategy));
        let run = sim.run_with_partition(&circuit, &dag, partition);
        let ok = run.state.approx_eq(&reference, 1e-9);
        println!(
            "hierarchical {:>5}  : {:8.3} s   parts={:<3} correct={}",
            strategy.name(),
            run.report.total_time_s,
            run.report.num_parts,
            ok
        );
        assert!(ok, "hierarchical result diverged from the reference");
    }

    // 3. Distributed simulation on 4 virtual ranks: the ranks count their
    // messages and bytes, and the HDR-100 model prices them after the run.
    let run = DistributedSimulator::new(DistConfig::new(4).with_strategy(Strategy::DagP))
        .run(&circuit)
        .expect("distributed run failed");
    let ok = run.state.approx_eq(&reference, 1e-9);
    println!(
        "distributed dagP    : {:8.3} s   ranks={} parts={} exchanges={} comm(model)={:.6} s correct={}",
        run.report.total_time_s,
        run.report.num_ranks,
        run.report.num_parts,
        run.report.num_exchanges,
        run.report.modeled_comm_s(&NetworkModel::hdr100()),
        ok
    );
    assert!(ok, "distributed result diverged from the reference");

    // A quick physics sanity check: QFT of |0…0⟩ is the uniform superposition.
    let p0 = measure::probabilities(&run.state)[0];
    println!(
        "P(|0…0⟩) = {:.3e} (uniform superposition expects {:.3e})",
        p0,
        1.0 / (1u64 << qubits) as f64
    );
}
