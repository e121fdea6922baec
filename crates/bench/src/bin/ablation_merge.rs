//! Ablation (README, "Reproducing the paper's artifacts"): the dagP merge phase — the phase the paper *adds* to
//! the original acyclic partitioner — with and without, measured by part
//! count and distributed communication volume.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin ablation_merge [qubits]
//! ```

use hisvsim_bench::tables::render_table;
use hisvsim_circuit::generators;
use hisvsim_core::{DistConfig, DistributedSimulator};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{DagPConfig, DagPPartitioner, Strategy};

fn main() {
    let qubits: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let ranks = 4usize;
    // A limit tight enough that the recursive bisection produces several
    // leaves, so the merge phase actually has candidates to consider.
    let limit = (qubits / 2).max(3);

    println!("dagP merge-phase ablation ({qubits} qubits, limit {limit}, {ranks} virtual ranks)\n");
    let mut rows = Vec::new();
    for family in generators::FAMILY_NAMES {
        let circuit = generators::by_name(family, qubits);
        let dag = CircuitDag::from_circuit(&circuit);
        let with_merge = DagPPartitioner::new(DagPConfig::default())
            .partition(&dag, limit)
            .expect("partitioning failed");
        let without_merge = DagPPartitioner::new(DagPConfig {
            merge: false,
            ..Default::default()
        })
        .partition(&dag, limit)
        .expect("partitioning failed");

        // Communication impact: run the distributed engine with each partition.
        let engine =
            DistributedSimulator::new(DistConfig::new(ranks).with_strategy(Strategy::DagP));
        let run_with = engine.run_with_partition(&circuit, &dag, with_merge.clone());
        let run_without = engine.run_with_partition(&circuit, &dag, without_merge.clone());
        rows.push(vec![
            family.to_string(),
            with_merge.num_parts().to_string(),
            without_merge.num_parts().to_string(),
            run_with.report.comm.bytes_sent.to_string(),
            run_without.report.comm.bytes_sent.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "parts(merge)",
                "parts(no merge)",
                "bytes(merge)",
                "bytes(no merge)"
            ],
            &rows
        )
    );
    println!("\nExpected: the merge phase never increases the part count, and fewer parts mean");
    println!("less redistribution traffic in the distributed engine.");
}
