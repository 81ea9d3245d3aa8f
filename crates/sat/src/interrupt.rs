//! Cooperative interruption of long-running solves.
//!
//! An [`Interrupt`] is a cheap, cloneable token shared between a solver and
//! the code supervising it (another thread, a job scheduler, a signal
//! handler). The supervisor calls [`Interrupt::trigger`] — or arms a
//! wall-clock deadline — and the solver polls the token at restart
//! boundaries and every few dozen conflicts, returning
//! [`SatResult::Unknown`](crate::SatResult::Unknown) promptly without
//! poisoning its state: the trail is rolled back to level 0 and everything
//! learnt is kept.
//!
//! The default token ([`Interrupt::none`]) carries no shared state at all,
//! so solvers that never get interrupted pay a single branch per poll.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an interrupted solve stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptReason {
    /// [`Interrupt::trigger`] was called (explicit cancellation).
    Cancelled,
    /// The armed wall-clock deadline passed.
    DeadlineExceeded,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Deadline as nanoseconds after `epoch`; 0 = no deadline armed.
    deadline_ns: AtomicU64,
    epoch: Instant,
}

/// A cooperative cancellation token, optionally carrying a wall-clock
/// deadline. Clones share the same state; triggering any clone interrupts
/// every solver the token was installed on.
///
/// # Examples
///
/// ```
/// use etcs_sat::{Interrupt, InterruptReason};
/// let token = Interrupt::new();
/// let shared = token.clone();
/// assert!(token.probe().is_none());
/// shared.trigger();
/// assert_eq!(token.probe(), Some(InterruptReason::Cancelled));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    inner: Option<Arc<Inner>>,
    /// An upstream token this one also listens to (see
    /// [`Interrupt::chained`]).
    parent: Option<Arc<Interrupt>>,
}

impl Interrupt {
    /// A token that can never fire. This is the solver default; probing it
    /// is a single branch.
    pub fn none() -> Self {
        Interrupt {
            inner: None,
            parent: None,
        }
    }

    /// A live token with no deadline; fires only via [`Interrupt::trigger`].
    pub fn new() -> Self {
        Interrupt {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(0),
                epoch: Instant::now(),
            })),
            parent: None,
        }
    }

    /// A live token that also fires whenever `parent` fires. Triggering the
    /// child never affects the parent: a replanning session arms a per-tick
    /// budget on a child of its session token, and a missed tick never
    /// cancels the session. The parent's reason takes precedence in
    /// [`Interrupt::probe`], so supervising code probing the *parent* still
    /// sees the true external cause.
    pub fn chained(parent: &Interrupt) -> Self {
        let mut token = Interrupt::new();
        if parent.inner.is_some() || parent.parent.is_some() {
            token.parent = Some(Arc::new(parent.clone()));
        }
        token
    }

    /// A live token whose deadline is `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        let token = Interrupt::new();
        token.arm_deadline(budget);
        token
    }

    /// Arms (or re-arms) the deadline to `budget` from now. A job scheduler
    /// creates the token at submission but starts the clock only when a
    /// worker picks the job up, so queueing time never counts against the
    /// solve. No-op on a [`Interrupt::none`] token.
    pub fn arm_deadline(&self, budget: Duration) {
        if let Some(inner) = &self.inner {
            let ns = inner
                .epoch
                .elapsed()
                .saturating_add(budget)
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            // 0 means "unarmed"; a zero budget still has to fire.
            inner.deadline_ns.store(ns.max(1), Ordering::Release);
        }
    }

    /// Requests cancellation. Idempotent; no-op on a [`Interrupt::none`]
    /// token.
    pub fn trigger(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Checks whether the token has fired, and why. A chained parent's
    /// reason outranks this token's own state, and explicit cancellation
    /// takes precedence over an expired deadline.
    pub fn probe(&self) -> Option<InterruptReason> {
        if let Some(parent) = &self.parent {
            if let Some(reason) = parent.probe() {
                return Some(reason);
            }
        }
        let inner = self.inner.as_ref()?;
        if inner.cancelled.load(Ordering::Acquire) {
            return Some(InterruptReason::Cancelled);
        }
        let deadline = inner.deadline_ns.load(Ordering::Acquire);
        if deadline != 0 && inner.epoch.elapsed().as_nanos() >= deadline as u128 {
            return Some(InterruptReason::DeadlineExceeded);
        }
        None
    }

    /// `true` once the token has fired ([`Interrupt::probe`] without the
    /// reason).
    pub fn is_triggered(&self) -> bool {
        self.probe().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let t = Interrupt::none();
        t.trigger();
        t.arm_deadline(Duration::ZERO);
        assert_eq!(t.probe(), None);
        assert!(!t.is_triggered());
    }

    #[test]
    fn trigger_is_shared_across_clones() {
        let t = Interrupt::new();
        let c = t.clone();
        assert!(!c.is_triggered());
        t.trigger();
        assert_eq!(c.probe(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let t = Interrupt::new();
        assert!(t.probe().is_none());
        t.arm_deadline(Duration::ZERO);
        assert_eq!(t.probe(), Some(InterruptReason::DeadlineExceeded));
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let t = Interrupt::with_deadline(Duration::ZERO);
        t.trigger();
        assert_eq!(t.probe(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn unarmed_deadline_does_not_fire() {
        let t = Interrupt::new();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(t.probe(), None);
    }

    #[test]
    fn chained_child_fires_with_parent_and_reports_its_reason() {
        let parent = Interrupt::new();
        let child = Interrupt::chained(&parent);
        assert!(child.probe().is_none());
        parent.arm_deadline(Duration::ZERO);
        assert_eq!(child.probe(), Some(InterruptReason::DeadlineExceeded));
    }

    #[test]
    fn triggering_a_chained_child_leaves_the_parent_untouched() {
        let parent = Interrupt::new();
        let child = Interrupt::chained(&parent);
        child.trigger();
        assert_eq!(child.probe(), Some(InterruptReason::Cancelled));
        assert_eq!(parent.probe(), None);
    }

    #[test]
    fn chaining_a_none_parent_is_a_plain_token() {
        let child = Interrupt::chained(&Interrupt::none());
        assert!(child.parent.is_none());
        assert!(child.probe().is_none());
        child.trigger();
        assert_eq!(child.probe(), Some(InterruptReason::Cancelled));
    }
}
