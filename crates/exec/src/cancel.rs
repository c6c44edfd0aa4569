//! Cooperative cancellation for query execution.
//!
//! A [`CancelToken`] is a cheap, cloneable flag the engine checks at morsel
//! boundaries — between operator nodes and between parallel partitions —
//! never inside a tight row loop. Cancellation is therefore *cooperative*:
//! a running query stops at the next boundary, typically within one
//! morsel's worth of work, without unwinding threads or poisoning shared
//! state.
//!
//! Tokens carry an optional **deadline**: a fixed [`Instant`] past which
//! [`CancelToken::is_cancelled`] reports true without anyone calling
//! [`CancelToken::cancel`]. The server derives one token per request from
//! the request's arrival time and its `deadline_ms` field, so queued time
//! counts against the budget too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared cancellation flag with an optional deadline. Clones observe the
/// same flag; checking costs one relaxed atomic load (plus a clock read
/// when a deadline is set).
#[derive(Clone, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), deadline: None }
    }

    /// A token that additionally reports cancelled once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), deadline: Some(deadline) }
    }

    /// Trip the flag; every clone observes it from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether work should stop: explicitly cancelled, or past the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_tokens_are_live_until_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn deadlines_trip_the_token() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled(), "past deadline is already cancelled");
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled(), "a far deadline leaves the token live");
        t.cancel();
        assert!(t.is_cancelled(), "explicit cancel still wins");
    }
}
