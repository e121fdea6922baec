//! End-to-end coverage of the observability front door over real TCP:
//! `/metrics` must survive the strict Prometheus parser when fetched
//! through the wire, error handling must stay bounded (404/400/405/431),
//! and a traced job's `/jobs/<id>/trace` download must round-trip as
//! valid Chrome trace-event JSON.

use hisvsim_circuit::generators;
use hisvsim_http::{client, HttpServer};
use hisvsim_obs::validate_prometheus;
use hisvsim_runtime::{EngineKind, EngineSelector, SchedulerConfig, SimJob};
use hisvsim_service::prelude::*;
use std::sync::Arc;

fn service(workers: usize) -> ServiceConfig {
    ServiceConfig::new().with_scheduler(
        SchedulerConfig::default()
            .with_workers(workers)
            .with_selector(EngineSelector::scaled(4, 8)),
    )
}

#[test]
fn live_metrics_pass_the_strict_parser_and_include_http_series() {
    let service = Arc::new(SimService::start(service(2)));
    service
        .submit(SimJob::new(generators::qft(8)).with_shots(16))
        .wait()
        .expect("job must complete");
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let first = client::http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(first.status, 200);
    assert!(first
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    validate_prometheus(&first.body_string()).expect("live exposition must be valid");

    // The server observes each request *after* writing its response, so
    // poll until the first scrape's own series lands in the registry.
    let mut last = String::new();
    let http_series_present = (0..50).any(|_| {
        let scrape = client::http_get(addr, "/metrics").expect("GET /metrics");
        last = scrape.body_string();
        last.contains("hisvsim_http_requests_total{code=\"200\",endpoint=\"/metrics\"}")
            && last.contains("hisvsim_http_request_seconds_bucket")
    });
    assert!(
        http_series_present,
        "self-instrumentation series missing from the exposition:\n{last}"
    );
    // Labeled counter families must also survive the strict parser.
    validate_prometheus(&last).expect("exposition with http series must be valid");
    server.shutdown();
}

#[test]
fn bad_requests_get_bounded_error_codes() {
    let service = Arc::new(SimService::start(service(1)));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let missing = client::http_get(addr, "/no/such/endpoint").expect("GET unknown path");
    assert_eq!(missing.status, 404);
    assert!(missing.body_string().contains("\"error\""));

    let unknown_job = client::http_get(addr, "/jobs/999999").expect("GET unknown job");
    assert_eq!(unknown_job.status, 404);
    assert!(unknown_job.body_string().contains("unknown job id"));

    let post = client::http_raw(
        addr,
        b"POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .expect("POST probe");
    assert_eq!(post.status, 405);

    let malformed = client::http_raw(addr, b"garbage\r\n\r\n").expect("malformed probe");
    assert_eq!(malformed.status, 400);

    // ~10 KiB of header in one write: small enough to fit the socket
    // buffer (the client must finish writing before the server answers
    // and closes), large enough to trip the 8 KiB bound.
    let mut oversized = b"GET /metrics HTTP/1.1\r\nX-Padding: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', 10 * 1024));
    oversized.extend_from_slice(b"\r\n\r\n");
    let too_large = client::http_raw(addr, &oversized).expect("oversized probe");
    assert_eq!(too_large.status, 431);

    server.shutdown();
}

#[test]
fn traced_job_trace_round_trips_as_chrome_trace_json() {
    hisvsim_obs::set_enabled(true);
    let service = Arc::new(SimService::start(service(1).with_trace_artifacts(true)));
    // Distributed over thread ranks, so the job has collectives as well as
    // kernel sweeps to measure.
    let handle = service.submit(
        SimJob::new(generators::qft(10))
            .with_engine(EngineKind::Dist)
            .with_shots(16)
            .with_observables(vec![0]),
    );
    let id = handle.id();
    handle.wait().expect("job must complete");
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let status = client::http_get(addr, &format!("/jobs/{id}")).expect("GET status");
    assert_eq!(status.status, 200);
    let report = serde_json::value_from_str(&status.body_string()).expect("status is JSON");
    assert_eq!(
        report.get_field("phase").and_then(|v| v.as_str()),
        Some("done")
    );
    assert!(
        report.get_field("decision").is_some(),
        "status must carry the engine-decision audit"
    );

    let trace = client::http_get(addr, &format!("/jobs/{id}/trace")).expect("GET trace");
    assert_eq!(trace.status, 200);
    assert!(trace
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("application/json")));
    let parsed = serde_json::value_from_str(&trace.body_string()).expect("trace is JSON");
    let events = parsed
        .get_field("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    // Chrome trace-event shape: every event is a complete ("X") or
    // instant event with the mandatory fields.
    for event in events {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(
                event.get_field(field).is_some(),
                "trace event missing `{field}`"
            );
        }
    }
    for phase in ["plan", "execute", "postprocess"] {
        assert!(
            events
                .iter()
                .any(|e| e.get_field("name").and_then(|n| n.as_str()) == Some(phase)),
            "trace must contain the `{phase}` phase"
        );
    }
    // The drained spans ride along with the phase timeline, so a traced
    // run's document is strictly richer than the three phases.
    assert!(
        events.len() > 3,
        "a traced run must carry kernel spans beyond the phase timeline, got {}",
        events.len()
    );

    let profile = client::http_get(addr, &format!("/jobs/{id}/profile")).expect("GET profile");
    assert_eq!(profile.status, 200);
    let profile = serde_json::value_from_str(&profile.body_string()).expect("profile is JSON");
    let cells = |table: &str, key: &str| -> Vec<String> {
        profile
            .get_field(table)
            .and_then(|t| t.as_array())
            .unwrap_or_else(|| panic!("profile has no `{table}` table"))
            .iter()
            .filter_map(|cell| cell.get_field(key)?.as_str().map(str::to_string))
            .collect()
    };
    assert!(
        cells("kernels", "kernel")
            .iter()
            .any(|k| k.starts_with("sweep:")),
        "a traced job's profile must carry kernel cells"
    );
    assert!(
        cells("collectives", "collective").contains(&"alltoallv".to_string()),
        "a traced distributed job's profile must carry collective cells"
    );
    assert_eq!(
        cells("phases", "phase"),
        ["execute", "plan", "postprocess"],
        "the profile must carry one cell per runner phase"
    );
    server.shutdown();
}
