//! # hisvsim-memmodel
//!
//! A deterministic cache-hierarchy model used as the reproduction's
//! substitute for the Intel VTune memory-access profile behind the paper's
//! Table II (the authors report per-level clocktick shares and
//! memory-bound pipeline-slot percentages for the Nat/DFS/dagP execution
//! orders).
//!
//! * [`cache`] — one set-associative LRU cache level,
//! * [`hierarchy`] — the inclusive L1/L2/L3 + DRAM stack with per-level
//!   service statistics and a latency-weighted memory-boundedness proxy,
//! * [`replay`] — address-stream replay helpers and the Table II-shaped
//!   [`MemoryBreakdown`] report row.
//!
//! The simulation engines in `hisvsim-core` produce the (sampled) amplitude
//! address streams; this crate only ranks their locality. The README's
//! "Layout" table records where the substitute is used.
//!
//! ## Example
//!
//! ```
//! use hisvsim_memmodel::{HierarchyConfig, replay};
//!
//! let cfg = HierarchyConfig::tiny();
//! // A small, repeatedly-touched working set is served by the L1 cache.
//! let stats = replay::replay_amplitude_indices(cfg, (0..10_000).map(|i| i % 8));
//! assert!(stats.service_fractions()[0] > 0.9);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod replay;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy, ServiceLevel};
pub use replay::{replay_addresses, replay_amplitude_indices, MemoryBreakdown};
