//! Replay helpers and the Table II-shaped report type.
//!
//! The engines in `hisvsim-core` generate (sampled) amplitude address streams
//! for a given execution order; this module replays such a stream through a
//! [`MemoryHierarchy`] and packages the
//! result in the same shape as the paper's Table II rows.

use crate::hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
use serde::{Deserialize, Serialize};

/// One row of the Table II reproduction: the memory-access breakdown of one
/// (circuit, strategy) combination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Circuit name.
    pub circuit: String,
    /// Strategy name (`Nat`, `DFS`, `dagP`).
    pub strategy: String,
    /// Percentage of accesses served by each level: `[L1, L2, L3, DRAM]`.
    pub service_percent: [f64; 4],
    /// Average modelled access latency in cycles (memory-boundedness proxy,
    /// analogous to the paper's "Memory/Pipeline slots" column).
    pub avg_latency_cycles: f64,
    /// Measured wall-clock execution time in seconds of the corresponding
    /// simulation (filled in by the benchmark harness).
    pub execution_time_s: f64,
    /// Number of addresses replayed.
    pub accesses: u64,
}

impl MemoryBreakdown {
    /// Assemble a breakdown row from replay statistics.
    pub fn from_stats(
        circuit: impl Into<String>,
        strategy: impl Into<String>,
        stats: HierarchyStats,
        config: &HierarchyConfig,
        execution_time_s: f64,
    ) -> Self {
        let fractions = stats.service_fractions();
        Self {
            circuit: circuit.into(),
            strategy: strategy.into(),
            service_percent: [
                fractions[0] * 100.0,
                fractions[1] * 100.0,
                fractions[2] * 100.0,
                fractions[3] * 100.0,
            ],
            avg_latency_cycles: stats.average_latency(config.latency_cycles),
            execution_time_s,
            accesses: stats.total(),
        }
    }

    /// A one-line textual rendering matching Table II's column order.
    pub fn render_row(&self) -> String {
        format!(
            "{:<10} {:<5} | L1 {:5.1}%  L2 {:5.1}%  L3 {:5.1}%  DRAM {:5.1}% | lat {:6.1} cyc | {:8.3} s",
            self.circuit,
            self.strategy,
            self.service_percent[0],
            self.service_percent[1],
            self.service_percent[2],
            self.service_percent[3],
            self.avg_latency_cycles,
            self.execution_time_s
        )
    }
}

/// Replay an address stream through a fresh hierarchy and return the
/// statistics.
pub fn replay_addresses<I>(config: HierarchyConfig, addresses: I) -> HierarchyStats
where
    I: IntoIterator<Item = u64>,
{
    let mut hierarchy = MemoryHierarchy::new(config);
    for addr in addresses {
        hierarchy.access(addr);
    }
    hierarchy.stats()
}

/// Replay a stream of 16-byte amplitude *element indices* (as produced by the
/// simulation engines) rather than raw byte addresses.
pub fn replay_amplitude_indices<I>(config: HierarchyConfig, indices: I) -> HierarchyStats
where
    I: IntoIterator<Item = usize>,
{
    replay_addresses(config, indices.into_iter().map(|i| (i as u64) * 16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_beats_strided_access() {
        let cfg = HierarchyConfig::tiny();
        let n = 4096usize;
        let sequential = replay_amplitude_indices(cfg, 0..n);
        // A 256-element stride puts every access on a different line and far
        // exceeds the tiny L3.
        let strided = replay_amplitude_indices(cfg, (0..n).map(|i| (i * 256) % (1 << 16)));
        assert!(
            sequential.average_latency(cfg.latency_cycles)
                < strided.average_latency(cfg.latency_cycles)
        );
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let cfg = HierarchyConfig::tiny();
        let stats = replay_amplitude_indices(cfg, (0..10_000usize).map(|i| (i * 7) % 4096));
        let row = MemoryBreakdown::from_stats("bv", "dagP", stats, &cfg, 1.25);
        let sum: f64 = row.service_percent.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(row.accesses, 10_000);
        assert!(row.render_row().contains("dagP"));
    }

    #[test]
    fn empty_stream_yields_zero_stats() {
        let cfg = HierarchyConfig::tiny();
        let stats = replay_addresses(cfg, std::iter::empty());
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.average_latency(cfg.latency_cycles), 0.0);
    }
}
