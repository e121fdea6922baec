//! Validation of the unified metrics exposition and the per-job timeline:
//! every line `SimService::metrics_text()` emits must be well-formed
//! Prometheus text format (HELP/TYPE pairs, monotone histogram buckets, no
//! duplicate series), the service/cache/comm series must all be present,
//! and `JobResult::timeline()` must cover every runner phase.

use hisvsim_circuit::generators;
use hisvsim_obs::validate_prometheus;
use hisvsim_runtime::{EngineKind, EngineSelector, SchedulerConfig, SimJob};
use hisvsim_service::prelude::*;

fn service(workers: usize) -> SimService {
    SimService::start(
        ServiceConfig::new().with_scheduler(
            SchedulerConfig::default()
                .with_workers(workers)
                .with_selector(EngineSelector::scaled(4, 8)),
        ),
    )
}

#[test]
fn metrics_text_is_valid_prometheus_exposition() {
    let service = service(2);
    // Cold scrape: valid before any job has run.
    validate_prometheus(&service.metrics_text()).expect("cold exposition must be valid");

    for width in [8usize, 9, 8] {
        let job = SimJob::new(generators::qft(width)).with_shots(16);
        service.submit(job).wait().expect("job must complete");
    }
    let text = service.metrics_text();
    validate_prometheus(&text).expect("exposition after jobs must be valid");

    // The unified registry must expose all three families: service
    // counters, plan-cache counters (including the in-flight dedups), and
    // the comm/job series fed from completed JobResults.
    for series in [
        "hisvsim_service_jobs_submitted_total 3",
        "hisvsim_service_jobs_completed_total 3",
        "hisvsim_service_queue_depth",
        // Occupancy gauges: pool size, in-flight jobs (0 — every wait()
        // above returned), resident-slot capacity/usage, and the artifact
        // LRU's retention counters.
        "hisvsim_service_workers 2",
        "hisvsim_service_jobs_in_flight 0",
        "hisvsim_service_resident_slots",
        "hisvsim_service_resident_slots_in_use 0",
        "hisvsim_service_job_artifacts_retained 3",
        "hisvsim_service_job_artifacts_evicted_total 0",
        "hisvsim_plan_cache_hits_total",
        "hisvsim_plan_cache_warm_hits_total",
        "hisvsim_plan_cache_misses_total",
        "hisvsim_plan_cache_inflight_dedups_total",
        "hisvsim_plan_cache_entries",
        "hisvsim_job_wall_seconds_bucket",
        "hisvsim_job_wall_seconds_count 3",
        "hisvsim_job_plan_seconds_sum",
        "hisvsim_comm_bytes_sent_total",
        "hisvsim_comm_wall_seconds_total",
        // The cost model's audit series (predicted-vs-measured ratio per
        // job) and the tracer's drop counter.
        "hisvsim_selector_misprediction_ratio_bucket",
        "hisvsim_selector_misprediction_ratio_count 3",
        "hisvsim_obs_spans_dropped_total",
        // The parts the rank bodies ran and the bytes the buffer pool keeps
        // between uses.
        "hisvsim_hier_parts_total",
        "hisvsim_buffer_pool_bytes",
    ] {
        assert!(
            text.contains(series),
            "exposition is missing `{series}`:\n{text}"
        );
    }
    // The repeated qft-8 must have hit the plan cache.
    let cache = service.cache_stats();
    assert!(cache.hits >= 1, "repeat submission must hit the cache");
}

#[test]
fn job_result_timeline_covers_every_phase() {
    let service = service(1);
    let job = SimJob::new(generators::qft(10))
        .with_engine(EngineKind::Hier)
        .with_shots(8)
        .with_observables(vec![0, 1]);
    let result = service.submit(job).wait().expect("job must complete");
    let names: Vec<&str> = result.timeline().iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["plan", "execute", "postprocess"],
        "timeline must record the three runner phases in order"
    );
    for span in result.timeline() {
        assert_eq!(span.cat, "job");
        assert!(span.dur_us >= 1, "phases record at least 1µs");
    }
    // The timeline is exportable as-is.
    let json = hisvsim_obs::chrome_trace_json(result.timeline());
    assert!(json.contains("\"traceEvents\""));
}

#[test]
fn http_front_door_series_join_the_unified_exposition() {
    use hisvsim_http::{client, HttpServer};
    use std::sync::Arc;

    let service = Arc::new(service(1));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let health = client::http_get(server.local_addr(), "/healthz").expect("GET /healthz");
    assert_eq!(health.status, 200);
    // The request is observed after its response is written, so poll the
    // in-process exposition until the probe's series lands.
    let mut text = String::new();
    let landed = (0..100).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(10));
        text = service.metrics_text();
        text.contains("hisvsim_http_requests_total{code=\"200\",endpoint=\"/healthz\"} 1")
    });
    assert!(landed, "healthz probe never reached the registry:\n{text}");
    assert!(text.contains("hisvsim_http_request_seconds_count"));
    validate_prometheus(&text).expect("exposition with http series must be valid");
    server.shutdown();
}

#[test]
fn histogram_buckets_are_cumulative_and_terminated() {
    // Drive a histogram through the registry directly and check the
    // rendered bucket structure survives the strict parser (the same
    // parser CI runs over the service exposition).
    let registry = hisvsim_obs::Registry::new();
    let h = registry.histogram("t_seconds", "test");
    for v in [1e-7, 1e-3, 0.5, 2.0, 1e6] {
        h.observe(v);
    }
    let text = registry.render();
    validate_prometheus(&text).expect("rendered histogram must be valid");
    assert!(text.contains("t_seconds_bucket{le=\"+Inf\"} 5"));
    assert!(text.contains("t_seconds_count 5"));
}
