//! Table I — benchmark suite description.
//!
//! Prints, for every circuit configuration of the paper's Table I, the paper
//! values (qubits, gates, state-vector memory) next to the reproduction-scale
//! configuration actually generated here (qubits, gates, memory), so the two
//! can be compared side by side.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin table1
//! ```

use hisvsim_bench::config::{evaluation_suite, paper_table1};
use hisvsim_bench::tables::render_table;

fn format_bytes(bytes: u128) -> String {
    const GIB: u128 = 1 << 30;
    const MIB: u128 = 1 << 20;
    if bytes >= GIB {
        format!("{} GB", bytes / GIB)
    } else if bytes >= MIB {
        format!("{} MB", bytes / MIB)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

fn main() {
    let paper = paper_table1();
    let suite = evaluation_suite();
    let mut rows = Vec::new();
    for (cfg, entry) in paper.iter().zip(suite.iter()) {
        let circuit = entry.circuit();
        rows.push(vec![
            entry.label.clone(),
            cfg.description.to_string(),
            cfg.paper_qubits.to_string(),
            cfg.paper_gates.to_string(),
            cfg.paper_memory.to_string(),
            circuit.num_qubits().to_string(),
            circuit.num_gates().to_string(),
            format_bytes(circuit.state_vector_bytes()),
        ]);
    }
    println!(
        "Table I — benchmark description (paper configuration vs reproduction configuration)\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "description",
                "qubits(paper)",
                "gates(paper)",
                "mem(paper)",
                "qubits(repro)",
                "gates(repro)",
                "mem(repro)",
            ],
            &rows
        )
    );
    println!(
        "Reproduction widths come from HISVSIM_SMALL_QUBITS / HISVSIM_LARGE_QUBITS \
         (see the README, \"Reproducing the paper's artifacts\")."
    );
}
