//! The scaled-down experiment configuration shared by every table/figure
//! binary.
//!
//! The paper evaluates 30–37 qubit circuits on up to 256 Frontera nodes
//! (1024 MPI ranks). This reproduction runs the same circuit families and the
//! same sweeps on one machine, scaled so a full regeneration finishes in
//! minutes: circuit widths come from the environment (defaults below) and the
//! virtual-rank sweep is capped by the host's core count. The `table1` binary
//! prints the mapping from each paper configuration to the reproduction
//! configuration actually used; the README's "Reproducing the paper's
//! artifacts" names the variables.

use hisvsim_circuit::generators::{self, BenchConfig};
use hisvsim_circuit::Circuit;
use serde::{Deserialize, Serialize};

/// One circuit instance of the evaluation suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteEntry {
    /// Family name (`bv`, `qft`, …).
    pub family: String,
    /// Label used in figures (e.g. `bv35` for the larger configuration).
    pub label: String,
    /// Qubits used by this reproduction.
    pub qubits: usize,
    /// Qubits used in the paper.
    pub paper_qubits: usize,
    /// True for the paper's ≥ 35-qubit group (evaluated on more ranks).
    pub large: bool,
}

impl SuiteEntry {
    /// Build the circuit for this entry.
    pub fn circuit(&self) -> Circuit {
        let mut c = generators::by_name(&self.family, self.qubits);
        c.name = self.label.clone();
        c
    }
}

/// Read an environment variable as usize with a default.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The evaluation suite (Table I), at reproduction scale.
///
/// Widths are controlled by `HISVSIM_SMALL_QUBITS` (default 16, the paper's
/// ≤ 31-qubit group) and `HISVSIM_LARGE_QUBITS` (default 18, the paper's
/// ≥ 35-qubit group).
pub fn evaluation_suite() -> Vec<SuiteEntry> {
    let small = env_usize("HISVSIM_SMALL_QUBITS", 16);
    let large = env_usize("HISVSIM_LARGE_QUBITS", 18);
    let mut suite = Vec::new();
    for cfg in generators::paper_suite() {
        let is_large = cfg.paper_qubits >= 35;
        let qubits = if is_large { large } else { small };
        let label = if is_large {
            format!("{}{}", cfg.family, cfg.paper_qubits)
        } else {
            cfg.family.to_string()
        };
        suite.push(SuiteEntry {
            family: cfg.family.to_string(),
            label,
            qubits,
            paper_qubits: cfg.paper_qubits,
            large: is_large,
        });
    }
    suite
}

/// The paper's Table I rows, re-exported for the `table1` binary.
pub fn paper_table1() -> Vec<BenchConfig> {
    generators::paper_suite()
}

/// Rank counts for the small-circuit group (paper: 16–256 MPI ranks) and the
/// large group (paper: 512/1024), scaled to the host.
pub fn rank_sweeps() -> (Vec<usize>, Vec<usize>) {
    // Virtual ranks are threads, so oversubscription is harmless; floor the
    // sweep at 8 ranks so both groups stay non-empty on small hosts.
    let max_ranks = env_usize(
        "HISVSIM_MAX_RANKS",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .next_power_of_two()
            .clamp(8, 16),
    );
    let small: Vec<usize> = [2usize, 4, 8, 16, 32]
        .into_iter()
        .filter(|&r| r <= max_ranks)
        .collect();
    let large: Vec<usize> = [8usize, 16, 32]
        .into_iter()
        .filter(|&r| r <= max_ranks)
        .collect();
    (small, large)
}

/// Where experiment records are written (JSON, one file per figure/table).
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var("HISVSIM_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("cannot create results directory");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_thirteen_entries_like_table1() {
        let suite = evaluation_suite();
        assert_eq!(suite.len(), 13);
        assert_eq!(suite.iter().filter(|e| e.large).count(), 4);
        // Labels of the large group carry the paper's qubit count.
        assert!(suite.iter().any(|e| e.label == "bv35"));
        assert!(suite.iter().any(|e| e.label == "adder37"));
    }

    #[test]
    fn suite_entries_build_circuits_of_the_requested_width() {
        for entry in evaluation_suite() {
            let circuit = entry.circuit();
            assert_eq!(circuit.num_qubits(), entry.qubits, "{}", entry.label);
            assert_eq!(circuit.name, entry.label);
            assert!(circuit.num_gates() > 0);
        }
    }

    #[test]
    fn rank_sweeps_are_powers_of_two_and_bounded() {
        let (small, large) = rank_sweeps();
        assert!(!small.is_empty());
        assert!(!large.is_empty());
        for &r in small.iter().chain(large.iter()) {
            assert!(r.is_power_of_two());
        }
    }
}
