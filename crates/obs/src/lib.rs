//! hisvsim-obs: unified observability for the HiSVSIM workspace.
//!
//! Four parts:
//!
//! - [`trace`]: a low-overhead span/event recorder. Instrumented code calls
//!   [`span`]/[`instant`]; recording is off by default (a single relaxed
//!   atomic load per call site) and compiles out entirely without the
//!   `trace` feature. [`drain`] collects every thread's buffered spans and
//!   [`chrome_trace_json`] renders them for `chrome://tracing`/Perfetto.
//!   Worker processes ship their [`SpanRecord`]s back over the cluster
//!   protocol so a multi-rank run merges into one timeline.
//!
//! - [`metrics`]: a process-wide [`Registry`] of counters, gauges, and
//!   log-scale histograms with Prometheus text exposition
//!   ([`Registry::render`]) and a strict format checker
//!   ([`validate_prometheus`]) used by the test suite and CI.
//!
//! - [`log`]: leveled structured JSON logging on the same clock as the
//!   span recorder, filtered by `HISVSIM_LOG` and mirrored into the trace
//!   timeline as instant events when recording is on.
//!
//! - [`profile`]: measured-cost aggregation. A [`CostProfile`] folds
//!   drained spans and job phase timings into per-kernel/per-collective
//!   bandwidth tables, served per completed job; an output, never an
//!   input to a placement decision.

pub mod log;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use log::{log_enabled, set_max_level, Level};
pub use metrics::{validate_prometheus, Counter, Gauge, Histogram, Registry, BUCKET_BOUNDS};
pub use profile::{CollectiveCost, CostProfile, KernelCost, PhaseCost, PROFILE_VERSION};
pub use trace::{
    chrome_trace_json, drain, dropped, enabled, instant, now_us, record, set_enabled, span,
    SpanGuard, SpanRecord,
};
