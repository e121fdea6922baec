//! The network performance model.
//!
//! The virtual-MPI substrate moves real data between rank threads through
//! memory, so the *pattern* and *volume* of communication are exact; what a
//! single machine cannot reproduce is the wall-clock cost of pushing those
//! bytes through an actual interconnect. This model prices each message the
//! classic latency–bandwidth (α–β) cost so a run's counts become a
//! communication time comparable across strategies and rank counts — the
//! quantity behind the paper's Figs. 7 and 8. A world only counts; the
//! price is [`NetworkModel::time`] of its [`CommStats`], taken after the run.

use crate::comm::CommStats;
use serde::{Deserialize, Serialize};

/// A latency–bandwidth (α–β) interconnect model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Per-message latency in seconds (α).
    pub latency_s: f64,
    /// Sustained point-to-point bandwidth in bytes per second (1/β).
    pub bandwidth_bytes_per_s: f64,
    /// Fraction of the node's injection bandwidth a single rank can use when
    /// several ranks share a NIC (1.0 = full bandwidth per rank).
    pub injection_share: f64,
}

impl NetworkModel {
    /// Constants approximating the Frontera InfiniBand HDR-100 fabric the
    /// paper runs on: 100 Gb/s ≈ 12.5 GB/s per port, ~1.5 µs MPI latency.
    pub fn hdr100() -> Self {
        Self {
            latency_s: 1.5e-6,
            bandwidth_bytes_per_s: 12.5e9,
            injection_share: 1.0,
        }
    }

    /// An idealised zero-cost network, useful in unit tests that only check
    /// data movement correctness.
    pub fn ideal() -> Self {
        Self {
            latency_s: 0.0,
            bandwidth_bytes_per_s: f64::INFINITY,
            injection_share: 1.0,
        }
    }

    /// Modelled time to push one `bytes`-sized message to another rank.
    pub fn message_time(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 / (self.bandwidth_bytes_per_s * self.injection_share)
    }

    /// Modelled time of every message `stats` counts: the sum of
    /// [`message_time`](Self::message_time) over them. The price is linear,
    /// and an empty message costs nothing, so it is the latency of each
    /// payload message plus every byte at the rank's bandwidth.
    pub fn time(&self, stats: &CommStats) -> f64 {
        self.latency_s * stats.payload_messages as f64
            + stats.bytes_sent as f64 / (self.bandwidth_bytes_per_s * self.injection_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_has_latency_floor() {
        let net = NetworkModel::hdr100();
        assert!(net.message_time(1) >= net.latency_s);
        assert_eq!(net.message_time(0), 0.0);
    }

    #[test]
    fn large_messages_are_bandwidth_bound() {
        let net = NetworkModel::hdr100();
        let one_gb = net.message_time(1 << 30);
        // 1 GiB over 12.5 GB/s ≈ 86 ms; latency is negligible.
        assert!((one_gb - (1u64 << 30) as f64 / 12.5e9).abs() / one_gb < 0.01);
    }

    #[test]
    fn shared_injection_slows_each_rank() {
        let full = NetworkModel::hdr100();
        let quarter = NetworkModel {
            injection_share: 0.25,
            ..full
        };
        assert!(quarter.message_time(1 << 20) > full.message_time(1 << 20));
    }

    #[test]
    fn ideal_network_is_free() {
        let net = NetworkModel::ideal();
        assert_eq!(net.message_time(1 << 30), 0.0);
    }

    #[test]
    fn pricing_the_counts_is_pricing_every_message() {
        use crate::comm::{world, RankComm};
        // splitmix64: random scripts without a dependency.
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let quarter = NetworkModel {
            injection_share: 0.25,
            ..NetworkModel::hdr100()
        };
        for script in 0..32 {
            let mut ranks = world::<u64>(2);
            let _peer = ranks.pop().unwrap();
            let mut sender = ranks.pop().unwrap();
            let sizes: Vec<usize> = (0..next() % 40)
                .map(|_| match next() % 4 {
                    0 => 0,
                    1 => (next() % 8) as usize,
                    _ => (next() % 100_000) as usize,
                })
                .collect();
            for (tag, &items) in sizes.iter().enumerate() {
                sender.send(1, tag as u64, vec![0; items]);
            }
            let stats = sender.stats();
            for net in [NetworkModel::hdr100(), quarter, NetworkModel::ideal()] {
                let priced: f64 = sizes.iter().map(|&items| net.message_time(items * 8)).sum();
                let time = net.time(&stats);
                assert!(
                    (time - priced).abs() <= 1e-12 * priced,
                    "script {script}: {time} s priced from the counts, {priced} s per message"
                );
            }
        }
    }

    #[test]
    fn doubling_volume_roughly_doubles_time() {
        let net = NetworkModel::hdr100();
        let t1 = net.message_time(64 << 20);
        let t2 = net.message_time(128 << 20);
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }
}
