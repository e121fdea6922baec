//! # hisvsim-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! HiSVSIM paper at reproduction scale. Each table/figure has its own binary
//! (see the `src/bin` directory and the README section "Reproducing the
//! paper's artifacts"):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — benchmark suite description |
//! | `table2` | Table II — memory-access breakdown (cache-model substitute) |
//! | `table3` | Table III — QAOA partition breakdown + modelled GPU times |
//! | `table4` | Table IV — hybrid HiSVSIM+GPU estimate vs HyQuas-style baseline |
//! | `fig5`   | Fig. 5 — improvement factor over the IQS-style baseline |
//! | `fig6`   | Fig. 6 — end-to-end runtime per circuit vs rank count |
//! | `fig7`   | Fig. 7 — average communication time per circuit |
//! | `fig8`   | Fig. 8 — geometric mean of communication ratio |
//! | `fig9`   | Fig. 9 — Dolan–Moré performance profiles |
//! | `fig10`  | Fig. 10 — single-level vs multi-level runtime |
//! | `optimality` | Sec. V-A — dagP part count vs exact optimum |
//! | `threads` | Sec. V-A — single-node thread strong scaling |
//! | `ablation_merge` | ablation — dagP with/without the merge phase |
//! | `ablation_limit` | ablation — part count & runtime vs working-set limit |
//!
//! The library half of the crate holds the shared machinery: the scaled
//! experiment [`config`], the [`runner`] that executes (circuit, ranks,
//! algorithm) combinations and persists JSON records, the [`perfstats`]
//! aggregations (geometric mean, performance profiles), ASCII [`tables`], and
//! the access-trace generator [`profile`] that `table2` replays through the
//! `hisvsim-memmodel` cache model.

#![warn(missing_docs)]

pub mod config;
pub mod perfstats;
pub mod profile;
pub mod progress;
pub mod runner;
pub mod tables;

pub use config::{evaluation_suite, rank_sweeps, results_dir, SuiteEntry};
pub use perfstats::{geometric_mean, performance_profile, ProfileCurve};
pub use progress::progress;
pub use runner::{
    improvement_factor, load_records, run_algorithm, save_records, sweep_entry, Algorithm,
    ExperimentRecord,
};
