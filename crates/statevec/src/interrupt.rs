//! Cooperative interruption of long-running sweeps.
//!
//! A 30-qubit simulation walks gigabytes of amplitudes; once an engine's
//! execution loop is underway nothing above it can reclaim the worker
//! without help from below. [`CancelToken`] is that help: a clonable,
//! thread-safe flag the service layer sets and the engines poll at their
//! natural checkpoints (between the passes of a part and at part
//! switches), so an abandoned job stops within one checkpoint instead of
//! running to completion.
//!
//! The token is deliberately *cooperative*: it never interrupts a kernel
//! mid-sweep, so every checkpoint observes a consistent state vector and a
//! cancelled run simply abandons its (private) state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A clonable cancellation flag shared between a controller (the service's
/// job handle) and the execution loops acting on it. Cancellation is
/// one-way and sticky: once [`CancelToken::cancel`] is called every clone
/// observes it forever.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested (by any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Checkpoint helper: `Err(Cancelled)` once cancellation was requested.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

/// The error a cooperative execution loop returns when it observed its
/// [`CancelToken`] at a checkpoint and stopped early. The partial state is
/// discarded by the caller; no result is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("execution cancelled at a cooperative checkpoint")
    }
}

impl std::error::Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_sticky_and_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(clone.check().is_ok());
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(Cancelled));
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancelToken::new();
        let observer = token.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| token.cancel());
        });
        assert!(observer.is_cancelled());
    }
}
