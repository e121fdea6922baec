//! A default-routed job of one in-place part stays cancellable: above one
//! tile the rank body walks the passes its schedule lists for the part
//! (`FusedCircuit::passes`), a vote before each and a progress report after
//! it, on every world and here on a world of one. A default
//! `qft(20)` (one part at limit 20) cancelled from its progress sink after
//! its first pass ends `Cancelled` having run at most two passes, counted as
//! the sweep spans the recorder holds (one per pass on a state above one
//! tile). Alone in its test binary because the span recorder is
//! process-global.

use hisvsim_circuit::generators;
use hisvsim_runtime::{JobControl, JobError, JobRunner, SchedulerConfig, Semaphore, SimJob};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn a_default_one_part_job_stops_within_a_pass_of_its_cancel() {
    let runner = JobRunner::new(SchedulerConfig::default());
    let residency = Semaphore::new(1);
    let reports = Arc::new(AtomicU64::new(0));
    let control = JobControl::new();
    let (seen, token) = (Arc::clone(&reports), control.cancel.clone());
    let control = JobControl {
        on_executing: Some(Arc::new(move |done, total| {
            // The first report is the start of execution; the next follows
            // the first pass.
            if done > 0 && done < total && seen.fetch_add(1, Ordering::SeqCst) == 0 {
                token.cancel();
            }
        })),
        ..control
    };

    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    let outcome = runner.execute_job(0, SimJob::new(generators::qft(20)), &residency, &control);
    let spans = hisvsim_obs::drain();
    hisvsim_obs::set_enabled(false);

    assert!(matches!(outcome, Err(JobError::Cancelled)), "{outcome:?}");
    let parts: Vec<&str> = (spans.iter())
        .filter(|span| span.cat == "kernel" && span.name == "part")
        .map(|span| span.detail.as_str())
        .collect();
    assert_eq!(parts.len(), 1, "{parts:?}");
    let listed: usize = (parts[0].strip_prefix("ws=20 passes="))
        .and_then(|passes| passes.parse().ok())
        .unwrap_or_else(|| panic!("{parts:?}"));
    assert!(listed > 1, "{parts:?}: nothing to stop between");
    let passes = (spans.iter())
        .filter(|span| span.cat == "kernel" && span.name.starts_with("sweep"))
        .count();
    assert!((1..=2).contains(&passes), "{passes} passes ran");
    assert!(reports.load(Ordering::SeqCst) <= 2);
}
