//! Shared nothing: the examples are standalone binaries; this library target
//! exists only so `cargo doc` has a crate root to attach the package-level
//! documentation to.
//!
//! See the individual binaries:
//!
//! * `quickstart` — flat vs hierarchical vs distributed on one circuit,
//! * `partition_explorer` — Nat/DFS/dagP/optimal part counts across the suite,
//! * `distributed_scaling` — strong scaling against the IQS-style baseline,
//! * `qasm_runner` — run an OpenQASM 2.0 file end to end,
//! * `batch_service` — a mixed workload through the concurrent runtime
//!   (engine auto-selection, plan-cache hit rates, a cold batch then a
//!   warm one).
