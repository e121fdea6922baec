//! Completed-job artifact retention.
//!
//! A running job's observability (timeline, engine decision, measured
//! spans) used to evaporate the moment its [`JobResult`] was handed to the
//! caller — nothing survived for an operator asking "what did job 17 do?"
//! five minutes later. The service now folds every terminal job into a
//! [`JobArtifacts`] record held in a bounded LRU (`ArtifactStore`), so
//! the HTTP front door can serve per-job status, a Chrome trace, and the
//! job's measured [`CostProfile`] delta *after* completion without pinning
//! result state vectors in memory.

use crate::handle::JobFailure;
use hisvsim_obs::{chrome_trace_json, CostProfile, SpanRecord};
use hisvsim_runtime::{DecisionVerdict, EngineDecision, JobResult};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Default bound of the completed-job artifact LRU. Artifacts are small
/// (spans + decision audit, never amplitudes), so a few dozen jobs of
/// history cost megabytes at worst.
pub const DEFAULT_ARTIFACT_CAPACITY: usize = 64;

/// Everything the service retains about one terminal job: the audit trail
/// and observability surface of the run, deliberately *excluding* the
/// result payload (state vector, counts) whose lifecycle belongs to the
/// [`JobHandle`](crate::JobHandle).
#[derive(Debug, Clone)]
pub struct JobArtifacts {
    /// The service-assigned job id.
    pub id: u64,
    /// Name of the job's circuit.
    pub circuit: String,
    /// Total source gates of the circuit.
    pub gates_total: u64,
    /// Terminal outcome: `"done"`, `"cancelled"` or `"failed"`.
    pub outcome: String,
    /// Failure message for `"failed"` outcomes.
    pub failure: Option<String>,
    /// The selector's full audit trail (successful runs only).
    pub decision: Option<EngineDecision>,
    /// Predicted-vs-measured execute-phase audit (successful runs only).
    pub verdict: Option<DecisionVerdict>,
    /// End-to-end wall seconds (successful runs only).
    pub wall_time_s: Option<f64>,
    /// Seconds spent obtaining the plan (successful runs only).
    pub plan_time_s: Option<f64>,
    /// Whether the plan came from the cache (successful runs only).
    pub plan_cache_hit: Option<bool>,
    /// The worker-recorded per-phase timeline (plan → execute →
    /// postprocess), present even when the span recorder is off.
    pub timeline: Vec<SpanRecord>,
    /// Recorder spans drained at completion — kernel sweeps, collectives,
    /// spliced worker-rank spans. Empty unless the service was configured
    /// with [`ServiceConfig::with_trace_artifacts`](crate::ServiceConfig::with_trace_artifacts)
    /// and the recorder was enabled.
    pub spans: Vec<SpanRecord>,
    /// The job's measured costs: its phase timings plus whatever
    /// kernel/collective cells its drained spans carried.
    pub profile_delta: Option<CostProfile>,
}

impl JobArtifacts {
    /// The record of a job that ended with `outcome`. `spans` are the
    /// recorder spans drained for it (empty unless a worker ran it with
    /// [`ServiceConfig::trace_artifacts`](crate::ServiceConfig::trace_artifacts)
    /// on); a successful run also gets its profile delta, built from its
    /// phase timeline (the execute phase streams `state_bytes`) and those
    /// spans.
    pub(crate) fn new(
        id: u64,
        circuit: String,
        gates_total: u64,
        state_bytes: u64,
        outcome: &Result<JobResult, JobFailure>,
        spans: Vec<SpanRecord>,
    ) -> Self {
        let mut artifacts = JobArtifacts {
            id,
            circuit,
            gates_total,
            outcome: String::new(),
            failure: None,
            decision: None,
            verdict: None,
            wall_time_s: None,
            plan_time_s: None,
            plan_cache_hit: None,
            timeline: Vec::new(),
            spans,
            profile_delta: None,
        };
        match outcome {
            Ok(result) => {
                let mut delta = CostProfile::new();
                let engine = result.engine.name();
                for span in &result.timeline {
                    let seconds = span.dur_us as f64 / 1e6;
                    match span.name.as_str() {
                        "plan" => delta.absorb_phase(engine, "plan", seconds, 0),
                        "execute" => delta.absorb_phase(engine, "execute", seconds, state_bytes),
                        "postprocess" => delta.absorb_phase(engine, "postprocess", seconds, 0),
                        _ => {}
                    }
                }
                delta.absorb_spans(&artifacts.spans, result.kernel_dispatch.resolved_name());
                artifacts.outcome = "done".to_string();
                artifacts.decision = Some(result.decision.clone());
                artifacts.verdict = Some(result.verdict.clone());
                artifacts.wall_time_s = Some(result.wall_time_s);
                artifacts.plan_time_s = Some(result.plan_time_s);
                artifacts.plan_cache_hit = Some(result.plan_cache_hit);
                artifacts.timeline = result.timeline.clone();
                artifacts.profile_delta = Some(delta);
            }
            Err(JobFailure::Cancelled) => artifacts.outcome = "cancelled".to_string(),
            Err(JobFailure::Failed(message)) => {
                artifacts.outcome = "failed".to_string();
                artifacts.failure = Some(message.clone());
            }
        }
        artifacts
    }

    /// The job's merged timeline + recorder spans as a Chrome trace-event
    /// JSON document (Perfetto-compatible), sorted chronologically.
    pub fn trace_json(&self) -> String {
        let mut all = self.timeline.clone();
        all.extend(self.spans.iter().cloned());
        all.sort_by_key(|s| (s.ts_us, s.pid, s.tid));
        chrome_trace_json(&all)
    }

    /// The job's [`CostProfile`] delta as JSON, when one was captured.
    pub fn profile_json(&self) -> Option<String> {
        self.profile_delta.as_ref().map(|p| p.to_json())
    }
}

/// A point-in-time status report for a job, servable whether the job is
/// still queued/running (snapshotted from its live state) or already
/// terminal (reconstructed from its retained [`JobArtifacts`]).
#[derive(Debug, Clone, Serialize)]
pub struct JobStatusReport {
    /// The service-assigned job id.
    pub id: u64,
    /// Name of the job's circuit.
    pub circuit: String,
    /// Lifecycle phase: `"queued"`, `"planning"`, `"plan_ready"`,
    /// `"executing"`, `"done"`, `"cancelled"` or `"failed"`.
    pub phase: String,
    /// Source gates whose parts have fully executed.
    pub gates_done: u64,
    /// Total source gates of the circuit.
    pub gates_total: u64,
    /// The selector's audit trail (once the job completed successfully).
    pub decision: Option<EngineDecision>,
    /// Predicted-vs-measured execute audit (completed jobs only).
    pub verdict: Option<DecisionVerdict>,
    /// End-to-end wall seconds (completed jobs only).
    pub wall_time_s: Option<f64>,
    /// Plan-acquisition seconds (completed jobs only).
    pub plan_time_s: Option<f64>,
    /// Whether the plan came from the cache (completed jobs only).
    pub plan_cache_hit: Option<bool>,
    /// Failure message for failed jobs.
    pub failure: Option<String>,
    /// Recorder spans retained for `/jobs/<id>/trace` download.
    pub retained_spans: u64,
}

impl JobStatusReport {
    /// Whether the reported phase is terminal (artifacts, if retained,
    /// are complete).
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase.as_str(), "done" | "cancelled" | "failed")
    }

    pub(crate) fn from_artifacts(artifacts: &JobArtifacts) -> Self {
        JobStatusReport {
            id: artifacts.id,
            circuit: artifacts.circuit.clone(),
            phase: artifacts.outcome.clone(),
            gates_done: if artifacts.outcome == "done" {
                artifacts.gates_total
            } else {
                0
            },
            gates_total: artifacts.gates_total,
            decision: artifacts.decision.clone(),
            verdict: artifacts.verdict.clone(),
            wall_time_s: artifacts.wall_time_s,
            plan_time_s: artifacts.plan_time_s,
            plan_cache_hit: artifacts.plan_cache_hit,
            failure: artifacts.failure.clone(),
            retained_spans: (artifacts.timeline.len() + artifacts.spans.len()) as u64,
        }
    }
}

struct StoreInner {
    capacity: usize,
    /// Recency order, least-recently-used first.
    order: VecDeque<u64>,
    map: HashMap<u64, JobArtifacts>,
    evicted: u64,
}

/// A bounded LRU of [`JobArtifacts`], keyed by job id. Reads refresh
/// recency, inserts evict the least-recently-used entry past capacity.
pub(crate) struct ArtifactStore {
    inner: Mutex<StoreInner>,
}

impl ArtifactStore {
    pub(crate) fn new(capacity: usize) -> Self {
        ArtifactStore {
            inner: Mutex::new(StoreInner {
                capacity: capacity.max(1),
                order: VecDeque::new(),
                map: HashMap::new(),
                evicted: 0,
            }),
        }
    }

    pub(crate) fn insert(&self, artifacts: JobArtifacts) {
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        let id = artifacts.id;
        if inner.map.insert(id, artifacts).is_none() {
            inner.order.push_back(id);
        } else {
            touch(&mut inner.order, id);
        }
        while inner.map.len() > inner.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
                inner.evicted += 1;
            }
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<JobArtifacts> {
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        let found = inner.map.get(&id).cloned();
        if found.is_some() {
            touch(&mut inner.order, id);
        }
        found
    }

    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("artifact store poisoned")
            .map
            .len()
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.inner.lock().expect("artifact store poisoned").evicted
    }
}

fn touch(order: &mut VecDeque<u64>, id: u64) {
    if let Some(pos) = order.iter().position(|&x| x == id) {
        order.remove(pos);
        order.push_back(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(id: u64) -> JobArtifacts {
        JobArtifacts {
            id,
            circuit: format!("c{id}"),
            gates_total: 3,
            outcome: "done".into(),
            failure: None,
            decision: None,
            verdict: None,
            wall_time_s: Some(0.1),
            plan_time_s: Some(0.01),
            plan_cache_hit: Some(false),
            timeline: vec![SpanRecord::instant("job", "plan", 1, String::new())],
            spans: Vec::new(),
            profile_delta: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let store = ArtifactStore::new(2);
        store.insert(artifact(1));
        store.insert(artifact(2));
        // Touch 1 so 2 becomes the eviction candidate.
        assert!(store.get(1).is_some());
        store.insert(artifact(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 1);
        assert!(store.get(2).is_none(), "2 was least recently used");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn trace_json_merges_timeline_and_spans_chronologically() {
        let mut a = artifact(7);
        a.spans = vec![SpanRecord {
            name: "sweep:dense".into(),
            cat: "kernel".into(),
            ts_us: 0,
            dur_us: 5,
            pid: 0,
            tid: 1,
            detail: String::new(),
            bytes: 64,
        }];
        let json = a.trace_json();
        let v = serde_json::value_from_str(&json).expect("valid trace JSON");
        let events = v
            .get_field("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        // The kernel span starts earlier and must sort first.
        assert_eq!(
            events[0].get_field("name").and_then(|n| n.as_str()),
            Some("sweep:dense")
        );
    }

    #[test]
    fn status_report_from_artifacts_is_terminal() {
        let report = JobStatusReport::from_artifacts(&artifact(9));
        assert!(report.is_terminal());
        assert_eq!(report.phase, "done");
        assert_eq!(report.gates_done, report.gates_total);
        let text = serde_json::to_string(&report).expect("report serialises");
        assert!(text.contains("\"phase\""));
    }
}
