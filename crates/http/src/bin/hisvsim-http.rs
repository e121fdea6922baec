//! The `hisvsim-http` binary: serve a demo-loaded job service over the
//! observability front door, or probe a running server (CI's end-to-end
//! check).
//!
//! ```text
//! hisvsim-http serve [--port P] [--qubits N] [--jobs J] [--trace]
//! hisvsim-http check <host:port> [job_id]
//! ```
//!
//! `serve` starts a [`SimService`], runs a few jobs to completion so the
//! per-job endpoints have something to say, prints the listen address and
//! serves until killed. `--trace` enables the span recorder and per-job
//! trace artifacts, making `/jobs/<id>/trace` downloads carry kernel
//! sweeps and not just the phase timeline.
//!
//! `check` exercises a live server through real TCP GETs: `/healthz` and
//! `/readyz` must answer 200, `/metrics` must pass the strict Prometheus
//! validator and contain the server's own request counters, and (when a
//! job id is given) the job's trace download must parse as Chrome
//! trace-event JSON with the expected phases. Exits non-zero on any
//! violation, so CI can gate on it.

use hisvsim_circuit::generators;
use hisvsim_http::{client, HttpServer};
use hisvsim_obs::log;
use hisvsim_runtime::{SchedulerConfig, SimJob};
use hisvsim_service::prelude::*;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

const LOG_TARGET: &str = "hisvsim-http";

fn usage() -> ExitCode {
    eprintln!("usage: hisvsim-http serve [--port P] [--qubits N] [--jobs J] [--trace]");
    eprintln!("       hisvsim-http check <host:port> [job_id]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => usage(),
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut port = 0u16;
    let mut qubits = 16usize;
    let mut jobs = 2usize;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => port = v,
                None => return usage(),
            },
            "--qubits" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => qubits = v,
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => jobs = v,
                None => return usage(),
            },
            "--trace" => trace = true,
            _ => return usage(),
        }
    }
    if trace {
        hisvsim_obs::set_enabled(true);
    }
    let service = Arc::new(SimService::start(
        ServiceConfig::new()
            .with_scheduler(SchedulerConfig::default().with_workers(2))
            .with_trace_artifacts(trace),
    ));
    // Run a few jobs to completion so /jobs/<id>{,/trace,/profile} serve
    // real artifacts the moment the listener is up.
    for index in 0..jobs {
        let circuit = if index % 2 == 0 {
            generators::qft(qubits)
        } else {
            generators::by_name("qaoa", qubits)
        };
        let handle = service.submit(SimJob::new(circuit).with_shots(32));
        let id = handle.id();
        match handle.wait() {
            Ok(result) => log::info(
                LOG_TARGET,
                "demo job done",
                &[
                    ("job", &id.to_string()),
                    ("circuit", &result.circuit_name),
                    ("engine", result.engine.name()),
                ],
            ),
            Err(failure) => {
                log::error(
                    LOG_TARGET,
                    "demo job failed",
                    &[("job", &id.to_string()), ("error", &failure.to_string())],
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let server = match HttpServer::start(Arc::clone(&service), ("127.0.0.1", port)) {
        Ok(server) => server,
        Err(error) => {
            log::error(LOG_TARGET, "bind failed", &[("error", &error.to_string())]);
            return ExitCode::FAILURE;
        }
    };
    // Machine-greppable readiness line (CI waits for the port anyway; the
    // address line is for humans and logs).
    println!("hisvsim-http: listening on http://{}", server.local_addr());
    // A launcher that reads the address and then closes the pipe must not
    // take the server down: this line is for humans only.
    let _ = writeln!(
        std::io::stdout(),
        "hisvsim-http: demo jobs 0..{jobs} completed; try /metrics, /jobs/0/trace"
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn check(args: &[String]) -> ExitCode {
    let Some(base) = args.first() else {
        return usage();
    };
    let addr = base.trim_start_matches("http://").trim_end_matches('/');
    let job_id = args.get(1).and_then(|v| v.parse::<u64>().ok());

    let fail = |what: &str, detail: &str| {
        log::error(
            LOG_TARGET,
            "check failed",
            &[("probe", what), ("detail", detail)],
        );
        eprintln!("check FAILED at {what}: {detail}");
        ExitCode::FAILURE
    };

    match client::http_get(addr, "/healthz") {
        Ok(r) if r.status == 200 => println!("healthz OK"),
        Ok(r) => return fail("/healthz", &format!("status {}", r.status)),
        Err(e) => return fail("/healthz", &e.to_string()),
    }
    match client::http_get(addr, "/readyz") {
        Ok(r) if r.status == 200 => println!("readyz OK: {}", r.body_string()),
        Ok(r) => return fail("/readyz", &format!("status {}", r.status)),
        Err(e) => return fail("/readyz", &e.to_string()),
    }
    match client::http_get(addr, "/metrics") {
        Ok(r) if r.status == 200 => {
            let body = r.body_string();
            if let Err(error) = hisvsim_obs::validate_prometheus(&body) {
                return fail("/metrics", &format!("strict parser rejected: {error}"));
            }
            if !body.contains("hisvsim_http_requests_total{") {
                return fail("/metrics", "no hisvsim_http_requests_total series");
            }
            println!("metrics OK: {} bytes, strict-parser clean", body.len());
        }
        Ok(r) => return fail("/metrics", &format!("status {}", r.status)),
        Err(e) => return fail("/metrics", &e.to_string()),
    }
    if let Some(id) = job_id {
        match client::http_get(addr, &format!("/jobs/{id}")) {
            Ok(r) if r.status == 200 => println!("job {id} status OK: {}", r.body_string()),
            Ok(r) => return fail("/jobs/<id>", &format!("status {}", r.status)),
            Err(e) => return fail("/jobs/<id>", &e.to_string()),
        }
        match client::http_get(addr, &format!("/jobs/{id}/trace")) {
            Ok(r) if r.status == 200 => {
                let body = r.body_string();
                let parsed = match serde_json::value_from_str(&body) {
                    Ok(parsed) => parsed,
                    Err(error) => return fail("/jobs/<id>/trace", &format!("bad JSON: {error:?}")),
                };
                let Some(events) = parsed.get_field("traceEvents").and_then(|e| e.as_array())
                else {
                    return fail("/jobs/<id>/trace", "no traceEvents array");
                };
                for phase in ["plan", "execute", "postprocess"] {
                    let present = events.iter().any(|event| {
                        event.get_field("name").and_then(|n| n.as_str()) == Some(phase)
                    });
                    if !present {
                        return fail("/jobs/<id>/trace", &format!("no {phase} span"));
                    }
                }
                println!("job {id} trace OK: {} events", events.len());
            }
            Ok(r) => return fail("/jobs/<id>/trace", &format!("status {}", r.status)),
            Err(e) => return fail("/jobs/<id>/trace", &e.to_string()),
        }
    }
    println!("all checks passed");
    ExitCode::SUCCESS
}
