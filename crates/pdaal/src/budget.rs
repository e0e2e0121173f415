//! Resource budgets for the saturation procedures.
//!
//! Worst-case saturation is polynomial but large — on adversarial
//! networks (big label sets, deep failure nesting) a single `post*` can
//! run for minutes. A [`Budget`] bounds a run three ways:
//!
//! * a wall-clock **deadline** ([`Instant`]),
//! * a cap on the number of **saturation transitions** materialized,
//! * a cooperative **cancellation token** shared across threads.
//!
//! The budgeted entry points ([`post_star_budgeted`],
//! [`shortest_accepted_budgeted`]) check the budget inside their worklist
//! loops via [`BudgetChecker::tick`] and return a [`SaturationAbort`]
//! carrying the reason and the statistics accumulated so far instead of
//! running to completion.
//!
//! The transition cap is compared on every tick (it is a plain integer
//! comparison); the clock and the cancellation flag are only consulted
//! every 1024 ticks so the common unbudgeted path stays well under the
//! 2% overhead bar.
//!
//! [`post_star_budgeted`]: crate::poststar::post_star_budgeted
//! [`shortest_accepted_budgeted`]: crate::shortest::shortest_accepted_budgeted

use crate::poststar::SaturationStats;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cooperative cancellation flag.
///
/// Cloning shares the underlying flag: any clone's [`cancel`] is seen by
/// every holder (typically a controller thread cancels while worker
/// threads poll through their [`Budget`]s).
///
/// [`cancel`]: CancelToken::cancel
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](CancelToken::cancel) been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a budgeted run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The saturated automaton exceeded the transition cap.
    TransitionBudgetExceeded,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl AbortReason {
    /// A stable lower-case identifier (used in JSON telemetry).
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::DeadlineExceeded => "deadline",
            AbortReason::TransitionBudgetExceeded => "transition-budget",
            AbortReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbortReason::DeadlineExceeded => "wall-clock deadline exceeded",
            AbortReason::TransitionBudgetExceeded => "saturation transition budget exceeded",
            AbortReason::Cancelled => "cancelled",
        })
    }
}

/// An early-terminated saturation: the reason plus the statistics at the
/// moment of abort (useful to report how far the run got).
#[derive(Clone, Debug)]
pub struct SaturationAbort {
    /// Why the run stopped.
    pub reason: AbortReason,
    /// Counters accumulated up to the abort.
    pub stats: SaturationStats,
}

impl fmt::Display for SaturationAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "saturation aborted ({}) after {} worklist pops, {} transitions",
            self.reason, self.stats.worklist_pops, self.stats.transitions
        )
    }
}

/// Resource limits for one saturation / search run. The default budget
/// is unlimited; builder methods add individual limits.
///
/// ```
/// use pdaal::budget::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let cancel = CancelToken::new();
/// let budget = Budget::new()
///     .with_timeout(Duration::from_millis(100))
///     .with_max_transitions(1_000_000)
///     .with_cancel(cancel.clone());
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_transitions: Option<usize>,
    cancels: Vec<CancelToken>,
}

impl Budget {
    /// An unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Alias for [`Budget::new`] that reads better at call sites which
    /// explicitly want no limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Stop (with [`AbortReason::DeadlineExceeded`]) once `deadline` has
    /// passed. If a deadline is already set, the earlier one wins.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Convenience: deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Stop (with [`AbortReason::TransitionBudgetExceeded`]) when the
    /// saturated automaton holds more than `max` transitions.
    pub fn with_max_transitions(mut self, max: usize) -> Self {
        self.max_transitions = Some(match self.max_transitions {
            Some(m) => m.min(max),
            None => max,
        });
        self
    }

    /// Stop (with [`AbortReason::Cancelled`]) once `cancel` is cancelled.
    /// May be called several times; the budget aborts as soon as *any*
    /// registered token fires (the engine composes a caller-supplied
    /// token with its own internal phase-cancellation token this way).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancels.push(cancel);
        self
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The configured transition cap, if any.
    pub fn max_transitions(&self) -> Option<usize> {
        self.max_transitions
    }

    /// True iff no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_transitions.is_none() && self.cancels.is_empty()
    }

    /// A checker to be ticked inside a worklist loop.
    pub fn checker(&self) -> BudgetChecker {
        BudgetChecker {
            deadline: self.deadline,
            max_transitions: self.max_transitions,
            cancels: self.cancels.clone(),
            ticks: 0,
        }
    }
}

/// Per-run state for amortized budget checks; create via
/// [`Budget::checker`].
#[derive(Clone, Debug)]
pub struct BudgetChecker {
    deadline: Option<Instant>,
    max_transitions: Option<usize>,
    cancels: Vec<CancelToken>,
    ticks: u32,
}

/// Clock / cancellation polls happen every `TICK_MASK + 1` ticks.
const TICK_MASK: u32 = 0x3FF;

impl BudgetChecker {
    /// Record one unit of work (one worklist pop) with the current size
    /// of the saturated automaton; returns the abort reason once any
    /// limit is exceeded.
    ///
    /// The transition cap is enforced on every call; the wall clock and
    /// the cancellation flag are polled every 1024 calls (and on the
    /// first), bounding both detection latency and overhead.
    #[inline]
    pub fn tick(&mut self, transitions: usize) -> Result<(), AbortReason> {
        if let Some(max) = self.max_transitions {
            if transitions > max {
                return Err(AbortReason::TransitionBudgetExceeded);
            }
        }
        let t = self.ticks;
        self.ticks = t.wrapping_add(1);
        if t & TICK_MASK == 0 {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Err(AbortReason::DeadlineExceeded);
                }
            }
            if self.cancels.iter().any(|c| c.is_cancelled()) {
                return Err(AbortReason::Cancelled);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_aborts() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        let mut c = budget.checker();
        for i in 0..10_000 {
            assert!(c.tick(i).is_ok());
        }
    }

    #[test]
    fn transition_cap_fires_immediately() {
        let mut c = Budget::new().with_max_transitions(10).checker();
        assert!(c.tick(10).is_ok());
        assert_eq!(c.tick(11), Err(AbortReason::TransitionBudgetExceeded));
    }

    #[test]
    fn expired_deadline_fires_on_first_tick() {
        let mut c = Budget::new()
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .checker();
        assert_eq!(c.tick(0), Err(AbortReason::DeadlineExceeded));
    }

    #[test]
    fn deadline_fires_within_poll_interval() {
        let mut c = Budget::new()
            .with_timeout(Duration::from_millis(5))
            .checker();
        let start = Instant::now();
        let mut aborted = None;
        for i in 0..u64::MAX {
            if let Err(r) = c.tick(0) {
                aborted = Some((r, i));
                break;
            }
            std::hint::black_box(i);
        }
        let (reason, _) = aborted.expect("deadline must fire");
        assert_eq!(reason, AbortReason::DeadlineExceeded);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let mut c = Budget::new().with_cancel(token.clone()).checker();
        assert!(c.tick(0).is_ok());
        token.cancel();
        // Drain the poll interval; the cancellation must surface within
        // one full interval.
        let mut fired = false;
        for _ in 0..=TICK_MASK + 1 {
            if c.tick(0) == Err(AbortReason::Cancelled) {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn earlier_deadline_wins() {
        let early = Instant::now() + Duration::from_millis(10);
        let late = Instant::now() + Duration::from_secs(60);
        let b = Budget::new().with_deadline(late).with_deadline(early);
        assert_eq!(b.deadline(), Some(early));
        let b2 = Budget::new()
            .with_max_transitions(5)
            .with_max_transitions(9);
        assert_eq!(b2.max_transitions(), Some(5));
    }
}
