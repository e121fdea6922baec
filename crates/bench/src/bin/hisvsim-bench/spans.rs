//! The benchmark's own span recorder. Spans are taken *around* calls into a
//! layer's public functions — nothing here reads a timer inside the program —
//! kept in memory, and written as Chrome trace-event JSON when the run ends.
//!
//! A span's layer is the part of its name before the first `.` (the crate
//! name); its parent is whichever span was open on the same thread when it
//! started.

use serde_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.hier`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one began.
    pub parent: Option<usize>,
    /// Iteration (repetition or job number) within the workload.
    pub iter: usize,
    /// Small per-thread id.
    pub tid: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Self time of every span, nanoseconds: its duration minus the union of its
/// children's intervals (clipped to it, so children on other threads that
/// overlap each other or outlive it are not counted twice).
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans {
        if let Some(parent) = child.parent {
            let p = &spans[parent];
            let clipped = (child.start_ns.max(p.start_ns), child.end_ns.min(p.end_ns));
            if clipped.0 < clipped.1 {
                children[parent].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.end_ns - span.start_ns - covered
        })
        .collect()
}

thread_local! {
    /// Indices of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Collects the spans of one workload run.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for `workload`; its clock starts now.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span is only pushed or closed under the lock, never left half-written")
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&self, name: &'static str, iter: usize, f: impl FnOnce() -> R) -> R {
        self.record(name, iter, f).0
    }

    /// Run `f` inside a span called `name` and return the span's seconds.
    pub fn seconds_of(&self, name: &'static str, iter: usize, f: impl FnOnce()) -> f64 {
        self.record(name, iter, f).1 as f64 * 1e-9
    }

    fn record<R>(&self, name: &'static str, iter: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let index = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                iter,
                tid: TID.with(|t| *t),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let mut spans = self.lock();
        spans[index].start_ns = start_ns;
        spans[index].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Durations (seconds) of every span called `name`, in recording order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time summed per layer (the part of a span's name before the
    /// first `.`): where the run's wall time went, counted once.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut layers = BTreeMap::new();
        for (span, ns) in spans.iter().zip(self_ns(&spans)) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0.0) += ns as f64 * 1e-9;
        }
        layers
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<Value> = self
            .lock()
            .iter()
            .map(|s| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(layer.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), Value::Int(s.tid.into())),
                    (
                        "args".into(),
                        Value::Object(vec![
                            ("workload".into(), Value::Str(self.workload.clone())),
                            ("iter".into(), Value::Int(s.iter as i128)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
        crate::json::compact(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_self_time_excludes_children() {
        let tracer = Tracer::new("unit");
        tracer.time("outer.call", 7, || {
            tracer.time("inner.a", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            tracer.time("inner.b", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let spans = tracer.lock().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(
            (spans[1].parent, spans[2].parent, spans[0].iter),
            (Some(0), Some(0), 7)
        );
        let total = tracer.seconds("outer.call")[0];
        let own_ns = self_ns(&spans);
        let own = own_ns[0] as f64 * 1e-9;
        let children = tracer.seconds("inner.a")[0] + tracer.seconds("inner.b")[0];
        assert!(total >= 0.008, "both sleeps sit inside the outer span");
        assert!((total - children - own).abs() < 1e-9);
        assert!(own < total / 2.0);
        // A leaf's self time is its duration.
        assert_eq!(own_ns[1], spans[1].end_ns - spans[1].start_ns);
        let by_layer = tracer.self_seconds_by_layer();
        assert_eq!(
            by_layer.keys().copied().collect::<Vec<_>>(),
            ["inner", "outer"]
        );
        assert!((by_layer["inner"] - children).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_from_other_threads_are_not_double_counted() {
        let tracer = Tracer::new("unit");
        let mut spans = tracer.lock();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
            tid: 1,
        };
        spans.push(span("root.call", 0, 100, None));
        spans.push(span("child.a", 10, 60, Some(0)));
        spans.push(span("child.b", 40, 90, Some(0)));
        spans.push(span("child.c", 95, 140, Some(0))); // clipped at the parent's end
        drop(spans);
        // Covered: [10, 90) and [95, 100) = 85 ns of 100.
        assert_eq!(self_ns(&tracer.lock())[0], 15);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let tracer = Tracer::new("unit");
        tracer.time("core.hier", 3, || ());
        let parsed = serde_json::value_from_str(&tracer.chrome_trace_json()).unwrap();
        let events = parsed.get_field("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get_field("cat").unwrap().as_str(), Some("core"));
        assert_eq!(events[0].get_field("ph").unwrap().as_str(), Some("X"));
    }
}
