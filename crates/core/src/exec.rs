//! Execution control for long-running engine loops: cooperative
//! cancellation and progress reporting.
//!
//! Every engine's fused execution path runs under an [`ExecControl`]. The
//! control carries a [`CancelToken`] the loops consult at their checkpoints
//! and an optional progress sink invoked with `(gates_done, gates_total)`
//! after each — the signal the service layer turns into
//! `Executing { gates_done / total }` events. A checkpoint is a pass over a
//! slice above one tile (2^16 amplitudes), else a whole part, baseline
//! segment or distributed gate, so a fired token stops a run within one
//! pass. The sink never hears a count below one it has heard. The default control
//! is inert, and an inert run is the same run: same arithmetic, same
//! schedule, same collectives.
//!
//! ## Cancelling an SPMD engine: the vote
//!
//! The engines run one rank per thread or per worker process, and the ranks
//! meet in collectives (the redistributions between parts). A rank that
//! polled the token on its own could leave before part `i` while a peer,
//! which polled an instant earlier, waits for it inside part `i`'s
//! all-to-all. So at every checkpoint the ranks *vote*
//! ([`DistState::vote_cancelled`](crate::dist::DistState::vote_cancelled),
//! a boolean OR over [`RankComm::vote_any`](hisvsim_cluster::RankComm::vote_any)):
//! each contributes what its own token says and all receive the same
//! answer, so every rank enters part `i` or none does. The vote travels over
//! the communicator, which is why the rank bodies serve the thread world and
//! the process world alike; on a one-rank world — the hier engine — it
//! returns at once and is a poll of the token.
//! It is control traffic: like a barrier it is charged as wall time only,
//! never as bytes or messages.

use hisvsim_statevec::{CancelToken, Cancelled};
use std::sync::{Arc, Mutex};

/// Progress callback: `(gates_done, gates_total)`.
pub type ProgressFn = dyn Fn(u64, u64) + Send + Sync;

/// Cancellation + progress plumbing for one engine run.
///
/// The default control is inert (never cancelled, no progress sink); the
/// uncontrolled engine entry points run under exactly that.
#[derive(Clone, Default)]
pub struct ExecControl {
    /// The cooperative cancellation flag the loops poll.
    pub cancel: CancelToken,
    /// The sink, behind the highest `gates_done` it has heard, which every
    /// clone of the control shares.
    progress: Option<Arc<(Mutex<u64>, Box<ProgressFn>)>>,
}

impl ExecControl {
    /// An inert control (never cancelled, no progress sink).
    pub fn new() -> Self {
        Self::default()
    }

    /// A control polling the given token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attach a progress sink called with `(gates_done, gates_total)` after
    /// each checkpoint.
    pub fn with_progress<F>(mut self, progress: F) -> Self
    where
        F: Fn(u64, u64) + Send + Sync + 'static,
    {
        self.progress = Some(Arc::new((Mutex::new(0), Box::new(progress))));
        self
    }

    /// Report progress to the sink, if any, unless `gates_done` is below the
    /// highest count already reported: a report another one overtook is
    /// dropped.
    pub fn report_progress(&self, gates_done: u64, gates_total: u64) {
        if let Some((high, sink)) = self.progress.as_deref() {
            let mut high = high.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if gates_done >= *high {
                *high = gates_done;
                sink(gates_done, gates_total);
            }
        }
    }

    /// Checkpoint: `Err(Cancelled)` once cancellation was requested.
    pub fn check(&self) -> Result<(), Cancelled> {
        self.cancel.check()
    }
}

impl std::fmt::Debug for ExecControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecControl")
            .field("cancelled", &self.cancel.is_cancelled())
            .field("has_progress_sink", &self.progress.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_control_never_cancels_and_swallows_progress() {
        let ctrl = ExecControl::new();
        assert!(ctrl.check().is_ok());
        ctrl.report_progress(1, 2); // no sink: must be a no-op
    }

    #[test]
    fn progress_sink_receives_reports() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let ctrl =
            ExecControl::new().with_progress(move |done, _| seen2.store(done, Ordering::SeqCst));
        ctrl.report_progress(17, 100);
        assert_eq!(seen.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn a_report_below_the_highest_one_is_dropped() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctrl = ExecControl::new().with_progress(move |done, _| sink.lock().unwrap().push(done));
        // Every clone shares the mark: a rank's control is a clone.
        let clone = ctrl.clone();
        for (control, done) in [(&ctrl, 3), (&clone, 7), (&ctrl, 5), (&clone, 7), (&ctrl, 9)] {
            control.report_progress(done, 10);
        }
        assert_eq!(*seen.lock().unwrap(), [3, 7, 7, 9]);
    }
}
