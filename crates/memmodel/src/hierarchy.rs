//! A three-level cache hierarchy + DRAM model, the reproduction's stand-in
//! for the VTune memory-access breakdown of Table II.
//!
//! The hierarchy is inclusive and accessed top-down: an access that misses in
//! L1 goes to L2, then L3, then DRAM. The model reports, per level, the
//! fraction of accesses *served* by that level — the same shape as the
//! paper's "% of clockticks" columns — plus a memory-bound pipeline-slot
//! proxy computed from per-level latency weights.

use crate::cache::{Cache, CacheConfig};
use serde::{Deserialize, Serialize};

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceLevel {
    /// Served by the first-level cache.
    L1,
    /// Served by the second-level cache.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Missed everywhere; served by DRAM.
    Dram,
}

/// Geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 cache geometry.
    pub l2: CacheConfig,
    /// L3 (last-level) cache geometry.
    pub l3: CacheConfig,
    /// Load-to-use latency of each level in cycles, used for the
    /// memory-bound-slots proxy: `[l1, l2, l3, dram]`.
    pub latency_cycles: [f64; 4],
}

impl HierarchyConfig {
    /// A configuration matching the workstation described in Sec. III-A of
    /// the paper: 64 KB L1 and 1 MB L2 per core, 32 MB shared L3 (the model
    /// simulates one core's view), 64-byte lines.
    pub fn cascade_lake() -> Self {
        Self {
            l1: CacheConfig {
                capacity_bytes: 64 * 1024,
                line_bytes: 64,
                associativity: 8,
            },
            l2: CacheConfig {
                capacity_bytes: 1024 * 1024,
                line_bytes: 64,
                associativity: 16,
            },
            l3: CacheConfig {
                capacity_bytes: 32 * 1024 * 1024,
                line_bytes: 64,
                associativity: 16,
            },
            latency_cycles: [4.0, 14.0, 50.0, 250.0],
        }
    }

    /// A deliberately tiny hierarchy for fast unit tests (256 B / 1 KB / 4 KB).
    pub fn tiny() -> Self {
        Self {
            l1: CacheConfig {
                capacity_bytes: 256,
                line_bytes: 64,
                associativity: 2,
            },
            l2: CacheConfig {
                capacity_bytes: 1024,
                line_bytes: 64,
                associativity: 2,
            },
            l3: CacheConfig {
                capacity_bytes: 4096,
                line_bytes: 64,
                associativity: 4,
            },
            latency_cycles: [4.0, 14.0, 50.0, 250.0],
        }
    }
}

/// Statistics accumulated by a [`MemoryHierarchy`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Accesses served by L1.
    pub l1_hits: u64,
    /// Accesses served by L2.
    pub l2_hits: u64,
    /// Accesses served by L3.
    pub l3_hits: u64,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
}

impl HierarchyStats {
    /// Total accesses replayed.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_hits + self.dram_accesses
    }

    /// Fraction of accesses served by each level `[l1, l2, l3, dram]`.
    pub fn service_fractions(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        let t = total as f64;
        [
            self.l1_hits as f64 / t,
            self.l2_hits as f64 / t,
            self.l3_hits as f64 / t,
            self.dram_accesses as f64 / t,
        ]
    }

    /// Average access latency in cycles under the supplied per-level
    /// latencies — the model's proxy for the paper's "Memory/Pipeline slots"
    /// column (larger = more memory-bound).
    pub fn average_latency(&self, latency_cycles: [f64; 4]) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let f = self.service_fractions();
        f.iter()
            .zip(latency_cycles.iter())
            .map(|(a, b)| a * b)
            .sum()
    }
}

/// The three-level inclusive hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Build an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            config,
            stats: HierarchyStats::default(),
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Replay one access to byte address `addr`; returns the level that
    /// served it. Every miss installs the line at all levels (inclusive).
    pub fn access(&mut self, addr: u64) -> ServiceLevel {
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return ServiceLevel::L1;
        }
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            return ServiceLevel::L2;
        }
        if self.l3.access(addr) {
            self.stats.l3_hits += 1;
            return ServiceLevel::L3;
        }
        self.stats.dram_accesses += 1;
        ServiceLevel::Dram
    }

    /// Replay a read-modify-write of a 16-byte amplitude at element index
    /// `index` of a state-vector array starting at byte offset `base`.
    pub fn access_amplitude(&mut self, base: u64, index: usize) -> ServiceLevel {
        self.access(base + (index as u64) * 16)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Reset contents and statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.l3.reset();
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_set_is_served_by_l1() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        // 4 lines = 256 B working set touched repeatedly.
        for _ in 0..100 {
            for line in 0..4u64 {
                h.access(line * 64);
            }
        }
        let f = h.stats().service_fractions();
        assert!(f[0] > 0.95, "L1 share {f:?}");
    }

    #[test]
    fn medium_working_set_spills_to_l2() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        // 512 B working set: fits L2 (1 KB), exceeds L1 (256 B).
        for _ in 0..100 {
            for line in 0..8u64 {
                h.access(line * 64);
            }
        }
        let f = h.stats().service_fractions();
        assert!(f[3] < 0.05, "DRAM share too high: {f:?}");
        assert!(f[1] + f[0] > 0.9, "L1+L2 share too low: {f:?}");
    }

    #[test]
    fn huge_working_set_goes_to_dram() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        // 64 KB streaming working set with 64-byte strides over a 4 KB L3:
        // every line access misses all levels after the first pass.
        for _ in 0..4 {
            for line in 0..1024u64 {
                h.access(line * 64);
            }
        }
        let f = h.stats().service_fractions();
        assert!(f[3] > 0.9, "DRAM share {f:?}");
    }

    #[test]
    fn average_latency_orders_working_sets() {
        let lat = HierarchyConfig::tiny().latency_cycles;
        let mut small = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut large = MemoryHierarchy::new(HierarchyConfig::tiny());
        for _ in 0..50 {
            for line in 0..4u64 {
                small.access(line * 64);
            }
            for line in 0..512u64 {
                large.access(line * 64);
            }
        }
        assert!(small.stats().average_latency(lat) < large.stats().average_latency(lat));
    }

    #[test]
    fn amplitude_accessor_uses_16_byte_elements() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.access_amplitude(0, 0);
        // Elements 1-3 share the same 64-byte line.
        assert_eq!(h.access_amplitude(0, 3), ServiceLevel::L1);
        // Element 4 starts the next line.
        assert_ne!(h.access_amplitude(0, 4), ServiceLevel::L1);
    }

    #[test]
    fn stats_fractions_sum_to_one() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        for i in 0..1000u64 {
            h.access((i * 37) % 8192);
        }
        let f = h.stats().service_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(h.stats().total(), 1000);
    }

    #[test]
    fn cascade_lake_config_matches_paper_description() {
        let cfg = HierarchyConfig::cascade_lake();
        assert_eq!(cfg.l3.capacity_bytes, 32 * 1024 * 1024);
        assert_eq!(cfg.l2.capacity_bytes, 1024 * 1024);
        assert_eq!(cfg.l1.capacity_bytes, 64 * 1024);
        cfg.l1.validate();
        cfg.l2.validate();
        cfg.l3.validate();
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.access(0);
        h.access(0);
        h.reset();
        assert_eq!(h.stats().total(), 0);
        assert_eq!(h.access(0), ServiceLevel::Dram);
    }
}
