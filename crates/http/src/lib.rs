//! # hisvsim-http
//!
//! The observability front door for a running
//! [`SimService`](hisvsim_service::SimService): a hand-rolled HTTP/1.1
//! server over [`std::net`] (no new dependencies — the same idiom as
//! `hisvsim-net`'s TCP wire protocol) that makes the in-process
//! observability substrate reachable from the outside:
//!
//! | Endpoint | What it serves |
//! |---|---|
//! | `GET /metrics` | The unified registry in Prometheus text format (strict-parser clean) |
//! | `GET /healthz` | Liveness: `200 ok` while the process serves |
//! | `GET /readyz` | Readiness JSON: worker pool up, plan-cache warm state |
//! | `GET /jobs/<id>` | Status JSON: phase, progress, `EngineDecision` audit, predicted-vs-measured verdict |
//! | `GET /jobs/<id>/trace` | Chrome trace-event JSON (Perfetto-compatible) of the job's merged timeline + spans |
//! | `GET /jobs/<id>/profile` | The job's measured `CostProfile` as JSON |
//!
//! The server instruments itself into the registry it serves
//! (`hisvsim_http_requests_total{endpoint,code}` and the
//! `hisvsim_http_request_seconds` histogram), so scraping `/metrics` also
//! observes the front door. Per-job documents survive job completion via
//! the service's bounded artifact LRU
//! ([`hisvsim_service::JobArtifacts`]); requests for a job still running
//! answer `409` so clients can distinguish "retry later" from "gone".
//!
//! ## Example
//!
//! ```
//! use hisvsim_circuit::generators;
//! use hisvsim_http::{client, HttpServer};
//! use hisvsim_runtime::{EngineSelector, SchedulerConfig, SimJob};
//! use hisvsim_service::prelude::*;
//! use std::sync::Arc;
//!
//! let service = Arc::new(SimService::start(ServiceConfig::new().with_scheduler(
//!     SchedulerConfig::default()
//!         .with_workers(2)
//!         .with_selector(EngineSelector::scaled(4, 8)),
//! )));
//! let job = service.submit(SimJob::new(generators::qft(6)));
//! job.wait().expect("job succeeded");
//! let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
//! let health = client::http_get(server.local_addr(), "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! let trace = client::http_get(server.local_addr(), &format!("/jobs/{}/trace", job.id())).unwrap();
//! assert_eq!(trace.status, 200);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;

pub use client::{http_get, http_raw, HttpResponse};
pub use server::{HttpServer, MAX_REQUEST_HEADER_BYTES};
