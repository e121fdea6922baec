//! Run reports: the timing and communication metrics every engine returns,
//! in the shape the paper's figures consume (total runtime, computation
//! time, communication counts, part counts). A report holds what the run
//! measured; [`RunReport::modeled_comm_s`] prices its counts on a network
//! model after the run.

use hisvsim_cluster::{CommStats, NetworkModel};
use serde::{Deserialize, Serialize};

/// Metrics of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Engine name: `"hier"` or `"dist"` (the engines the runtime serves),
    /// or a comparator's, `"multilevel"` or `"iqs-baseline"`.
    pub engine: String,
    /// Partitioning strategy name (`"Nat"`, `"DFS"`, `"dagP"`, or `"-"`).
    pub strategy: String,
    /// Circuit name.
    pub circuit: String,
    /// Number of qubits simulated.
    pub num_qubits: usize,
    /// Number of gates executed.
    pub num_gates: usize,
    /// Number of parts the circuit was split into (first-level parts for
    /// `"multilevel"`, 1 for the baseline).
    pub num_parts: usize,
    /// Number of virtual ranks (1 for single-node engines).
    pub num_ranks: usize,
    /// Wall-clock end-to-end time in seconds (maximum over ranks for
    /// distributed engines — the paper reports maximum end-to-end time).
    pub total_time_s: f64,
    /// Wall-clock computation time in seconds (maximum over ranks).
    pub compute_time_s: f64,
    /// Aggregated communication statistics summed over all ranks.
    pub comm: CommStats,
    /// Number of state-vector redistribution (part-switch) events.
    pub num_exchanges: usize,
}

impl RunReport {
    /// A report skeleton for a single-node engine.
    pub fn single_node(
        engine: impl Into<String>,
        strategy: impl Into<String>,
        circuit: impl Into<String>,
        num_qubits: usize,
        num_gates: usize,
    ) -> Self {
        Self {
            engine: engine.into(),
            strategy: strategy.into(),
            circuit: circuit.into(),
            num_qubits,
            num_gates,
            num_parts: 1,
            num_ranks: 1,
            total_time_s: 0.0,
            compute_time_s: 0.0,
            comm: CommStats::default(),
            num_exchanges: 0,
        }
    }

    /// Modelled communication time in seconds on `network`, averaged over
    /// ranks: the priced sum over ranks divided by [`Self::num_ranks`]. The
    /// paper reports the average across ranks since computation and
    /// communication overlap (Sec. V-C); the price is linear, so pricing
    /// the summed counts is summing every rank's price.
    pub fn modeled_comm_s(&self, network: &NetworkModel) -> f64 {
        network.time(&self.comm) / self.num_ranks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(compute: f64) -> RunReport {
        let mut r = RunReport::single_node("hier", "dagP", "bv", 10, 100);
        r.compute_time_s = compute;
        r.total_time_s = compute;
        r
    }

    #[test]
    fn modeled_comm_is_the_priced_counts_averaged_over_ranks() {
        let mut r = report(3.0);
        r.num_ranks = 4;
        r.comm = CommStats {
            messages_sent: 12,
            bytes_sent: 4_000_000,
            payload_messages: 10,
            wall_time_s: 0.5,
        };
        let net = NetworkModel::hdr100();
        // 10 latencies of 1.5 µs plus 4 MB at 12.5 GB/s, over 4 ranks.
        let expected = (10.0 * 1.5e-6 + 4e6 / 12.5e9) / 4.0;
        assert!((r.modeled_comm_s(&net) - expected).abs() <= 1e-15);
        assert_eq!(r.modeled_comm_s(&NetworkModel::ideal()), 0.0);
        assert_eq!(report(1.0).modeled_comm_s(&net), 0.0, "nothing sent");
    }

    #[test]
    fn serializes_to_json() {
        let r = report(1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"dagP\""));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.circuit, "bv");
    }
}
