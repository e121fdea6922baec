//! The HTTP/1.1 server: accept loop, request parsing, routing and
//! self-instrumentation.
//!
//! Deliberately hand-rolled over [`std::net`] in the same spirit as
//! `hisvsim-net`'s wire protocol — the workspace vendors its dependencies,
//! so there is no async runtime or HTTP library to lean on, and none is
//! needed: every endpoint is a small read-only snapshot, connections are
//! `Connection: close`, and a thread per request keeps the code obvious.

use hisvsim_obs::{log, Registry};
use hisvsim_service::SimService;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers. Beyond this the server
/// answers `431 Request Header Fields Too Large` and closes.
pub const MAX_REQUEST_HEADER_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a stalled client cannot pin its
/// handler thread longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

const LOG_TARGET: &str = "hisvsim-http";

/// The observability front door over a running [`SimService`]. Binds a
/// TCP listener, serves until dropped or [`HttpServer::shutdown`].
pub struct HttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `service` on a background accept thread. The server's
    /// request counters and latency histogram register into
    /// [`SimService::registry`] — the same registry `/metrics` renders, so
    /// the front door measures itself with the instruments it exposes.
    pub fn start(service: Arc<SimService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            let service = Arc::clone(&service);
            std::thread::spawn(move || accept_loop(&listener, &service, &stop))
        };
        log::info(
            LOG_TARGET,
            "listening",
            &[("addr", &local_addr.to_string())],
        );
        Ok(HttpServer {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, wake the accept thread and join it. In-flight
    /// request threads finish on their own (they hold no server state).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with a throwaway connection.
            let _ = TcpStream::connect(self.local_addr);
            let _ = accept.join();
            log::info(
                LOG_TARGET,
                "shut down",
                &[("addr", &self.local_addr.to_string())],
            );
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<SimService>, stop: &Arc<AtomicBool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(error) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                log::warn(
                    LOG_TARGET,
                    "accept failed",
                    &[("error", &error.to_string())],
                );
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let service = Arc::clone(service);
        std::thread::spawn(move || {
            let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
            let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
            handle_connection(&service, stream);
        });
    }
}

/// One parsed request head (the server never reads GET bodies).
enum Request {
    Ok { method: String, path: String },
    TooLarge,
    Malformed,
}

fn read_request(stream: &mut TcpStream) -> Request {
    // Oversized heads are still drained (up to a hard cap) before the 431
    // goes out: closing with unread bytes in the receive buffer makes the
    // kernel reset the connection, and the client would lose the response.
    const DRAIN_CAP_BYTES: usize = 64 * 1024;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > DRAIN_CAP_BYTES {
            return Request::TooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => return Request::Malformed,
        }
    }
    if head.len() > MAX_REQUEST_HEADER_BYTES {
        return Request::TooLarge;
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = match text.lines().next() {
        Some(line) if !line.trim().is_empty() => line,
        _ => return Request::Malformed,
    };
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) if version.starts_with("HTTP/") => Request::Ok {
            method: method.to_string(),
            path: path.to_string(),
        },
        _ => Request::Malformed,
    }
}

/// A response about to be written: status + reason, content type, body.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: String) -> Self {
        Response {
            status,
            reason,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Self {
        Response::json(
            status,
            reason,
            to_json(Value::Object(vec![(
                "error".to_string(),
                Value::Str(message.to_string()),
            )])),
        )
    }
}

/// Serialize a vendored-serde [`Value`] tree (the same bridge idiom as
/// `hisvsim_obs::chrome_trace_json`).
fn to_json(value: Value) -> String {
    struct Raw(Value);
    impl serde::Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Raw(value)).expect("JSON serialisation cannot fail")
}

fn handle_connection(service: &SimService, mut stream: TcpStream) {
    let start = Instant::now();
    let (endpoint, response) = match read_request(&mut stream) {
        Request::Ok { method, path } => {
            let path = path.split('?').next().unwrap_or("").to_string();
            let endpoint = endpoint_label(&path);
            if method != "GET" {
                (
                    endpoint,
                    Response::error(405, "Method Not Allowed", "only GET is supported"),
                )
            } else {
                (endpoint, route(service, &path))
            }
        }
        Request::TooLarge => (
            "malformed",
            Response::error(
                431,
                "Request Header Fields Too Large",
                "request head exceeds 8 KiB",
            ),
        ),
        Request::Malformed => (
            "malformed",
            Response::error(400, "Bad Request", "malformed HTTP request line"),
        ),
    };
    let status = response.status;
    write_response(&mut stream, &response);
    observe_request(service, endpoint, status, start.elapsed().as_secs_f64());
}

/// Collapse a concrete path onto its route template so the request
/// counter's label cardinality stays bounded no matter what clients send.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        _ => match job_route(path) {
            Some((_, "")) => "/jobs/{id}",
            Some((_, "trace")) => "/jobs/{id}/trace",
            Some((_, "profile")) => "/jobs/{id}/profile",
            _ => "other",
        },
    }
}

/// Parse `/jobs/<id>[/<sub>]` into `(id, sub)`; `sub` is `""` for the
/// bare status route. `None` when the path is not a job route (including
/// non-numeric ids — those fall through to 404).
fn job_route(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (id_part, sub) = match rest.split_once('/') {
        Some((id_part, sub)) => (id_part, sub),
        None => (rest, ""),
    };
    let id = id_part.parse::<u64>().ok()?;
    if matches!(sub, "" | "trace" | "profile") {
        Some((id, sub))
    } else {
        None
    }
}

fn route(service: &SimService, path: &str) -> Response {
    match path {
        "/metrics" => Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: service.metrics_text().into_bytes(),
        },
        "/healthz" => Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain; charset=utf-8",
            body: b"ok\n".to_vec(),
        },
        "/readyz" => readyz(service),
        _ => match job_route(path) {
            Some((id, "")) => match service.job_status(id) {
                Some(report) => Response::json(
                    200,
                    "OK",
                    serde_json::to_string(&report).expect("status report serialises"),
                ),
                None => Response::error(404, "Not Found", "unknown job id"),
            },
            Some((id, "trace")) => artifact_response(service, id, service.job_trace_json(id)),
            Some((id, "profile")) => artifact_response(service, id, service.job_profile_json(id)),
            _ => Response::error(404, "Not Found", "no such endpoint"),
        },
    }
}

/// Serve a per-job artifact document, distinguishing "not finished yet"
/// (409, retry later) from "never existed / evicted / nothing captured"
/// (404).
fn artifact_response(service: &SimService, id: u64, artifact: Option<String>) -> Response {
    match artifact {
        Some(body) => Response::json(200, "OK", body),
        None => match service.job_status(id) {
            Some(report) if !report.is_terminal() => Response::error(
                409,
                "Conflict",
                "job still running; artifacts appear at completion",
            ),
            Some(_) => Response::error(404, "Not Found", "no artifact retained for this job"),
            None => Response::error(404, "Not Found", "unknown job id"),
        },
    }
}

/// Readiness: the worker pool must be up; the warm-state fields report
/// how much of the plan cache a restart has already recovered
/// (informational — a cold cache is still ready).
fn readyz(service: &SimService) -> Response {
    let stats = service.stats();
    let cache = service.cache_stats();
    let workers = service.worker_count();
    let ready = workers > 0;
    let body = to_json(Value::Object(vec![
        ("ready".to_string(), Value::Bool(ready)),
        ("workers".to_string(), Value::Int(workers as i128)),
        (
            "queue_depth".to_string(),
            Value::Int(stats.queue_depth as i128),
        ),
        (
            "plan_cache_entries".to_string(),
            Value::Int(cache.entries as i128),
        ),
        (
            "plan_cache_warm".to_string(),
            Value::Bool(cache.entries > 0),
        ),
    ]));
    if ready {
        Response::json(200, "OK", body)
    } else {
        Response::json(503, "Service Unavailable", body)
    }
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(&response.body))
        .and_then(|_| stream.flush());
}

/// Record one served request into the service's registry: a labeled
/// counter per (endpoint, status) and a shared latency histogram — the
/// server shows up on the `/metrics` page it serves.
fn observe_request(service: &SimService, endpoint: &str, status: u16, seconds: f64) {
    let registry: Registry = service.registry();
    registry
        .labeled_counter(
            "hisvsim_http_requests_total",
            "HTTP requests served, by route template and status code.",
            &[("endpoint", endpoint), ("code", &status.to_string())],
        )
        .inc();
    registry
        .histogram(
            "hisvsim_http_request_seconds",
            "Wall time from request receipt to response write, all endpoints.",
        )
        .observe(seconds);
    log::debug(
        LOG_TARGET,
        "request",
        &[
            ("endpoint", endpoint),
            ("code", &status.to_string()),
            ("seconds", &format!("{seconds:.6}")),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_label("/metrics"), "/metrics");
        assert_eq!(endpoint_label("/jobs/17"), "/jobs/{id}");
        assert_eq!(endpoint_label("/jobs/17/trace"), "/jobs/{id}/trace");
        assert_eq!(endpoint_label("/jobs/17/profile"), "/jobs/{id}/profile");
        assert_eq!(endpoint_label("/jobs/abc"), "other");
        assert_eq!(endpoint_label("/jobs/1/bogus"), "other");
        assert_eq!(endpoint_label("/anything/else"), "other");
    }

    #[test]
    fn job_routes_parse_ids_strictly() {
        assert_eq!(job_route("/jobs/0"), Some((0, "")));
        assert_eq!(job_route("/jobs/42/trace"), Some((42, "trace")));
        assert_eq!(job_route("/jobs/42/profile"), Some((42, "profile")));
        assert_eq!(job_route("/jobs/"), None);
        assert_eq!(job_route("/jobs/-1"), None);
        assert_eq!(job_route("/jobs/1/x"), None);
        assert_eq!(job_route("/metrics"), None);
    }
}
