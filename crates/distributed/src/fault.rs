//! Deterministic fault injection for the token ring.
//!
//! Distributed failure modes are miserable to test when they depend on
//! timing. A [`FaultPlan`] makes them reproducible: it maps
//! `(user, round)` pairs to a [`FaultAction`] that the user node
//! executes when it holds the token at that round. Because the token
//! serializes the ring, a plan produces the same failure at the same
//! point of the computation on every run — crash tests become ordinary
//! deterministic unit tests.
//!
//! The actions cover the classic failure taxonomy for this protocol:
//!
//! * crash faults — [`FaultAction::PanicHoldingToken`] (the token dies
//!   with the node) and [`FaultAction::PanicAfterForward`] (the node
//!   stops but the token survives, so the failure is discovered later by
//!   the predecessor's refused send);
//! * omission faults — [`FaultAction::DropToken`] (the user processes
//!   the round but never forwards);
//! * timing faults — [`FaultAction::DelayForward`] (a slow participant,
//!   possibly slower than the failure detector's patience);
//! * state faults — [`FaultAction::StaleRound`] (the user best-responds
//!   to its previous observation instead of re-reading the board, so it
//!   publishes flows computed from stale information).
//! * capacity faults — [`CapacityEvent`] entries (crash / degrade /
//!   recover a *computer*), applied by the coordinator between rounds.

use crate::capacity::CapacityEvent;
use std::time::Duration;

/// What a user does when it holds the token at a planned `(user, round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Stop (crash) on receiving the token, before processing the
    /// round. The token is lost; only the coordinator's timeout can
    /// recover the ring.
    PanicHoldingToken,
    /// Process the round and forward the token normally, then stop. The
    /// token survives, so the ring keeps running until someone tries to
    /// send to the stopped node and splices around it via `next2`.
    PanicAfterForward,
    /// Process the round but silently discard the token instead of
    /// forwarding it. Indistinguishable from a crash to the rest of the
    /// ring.
    DropToken,
    /// Hold the token for the given virtual time before forwarding it. A
    /// delay longer than the round timeout makes the failure detector
    /// declare this user dead even though it is merely slow — the
    /// classic false-positive of timeout-based detection.
    DelayForward(Duration),
    /// Best-respond to the previous round's cached observation instead of
    /// re-reading the board, then publish those (stale) flows.
    StaleRound,
}

/// A deterministic schedule of injected faults, keyed by `(user, round)`.
///
/// Build one with the chained constructors and hand it to
/// `DistributedNash::fault_plan`:
///
/// ```
/// use lb_distributed::fault::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .panic_at(2, 5)
///     .delay_at(0, 3, Duration::from_millis(10))
///     .stale_at(1, 4);
/// assert!(!plan.is_empty());
/// ```
/// Besides user faults, a plan can carry *capacity* events — server
/// crash / degrade / recover — keyed by the round after which the
/// coordinator applies them:
///
/// ```
/// use lb_distributed::fault::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash_computer_at(3, 0)
///     .degrade_computer_at(5, 2, 4.0)
///     .recover_computer_at(8, 0);
/// assert_eq!(plan.capacity_events_at(3).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, u32, FaultAction)>,
    capacity: Vec<(u32, CapacityEvent)>,
}

impl FaultPlan {
    /// An empty plan (no faults — the default for every run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary action for `user` at `round`.
    ///
    /// Duplicate `(user, round)` keys are permitted: [`FaultPlan::action`]
    /// resolves a collision by insertion order, so the **first action
    /// added wins** and later additions are inert for that key (they
    /// still count toward [`FaultPlan::len`]). This is pinned,
    /// load-bearing behavior — plans are assembled by chaining scenario
    /// fragments, and first-wins lets a caller put an override in front
    /// of a fragment it does not control.
    pub fn with(mut self, user: usize, round: u32, action: FaultAction) -> Self {
        self.faults.push((user, round, action));
        self
    }

    /// `user` crashes while holding the token at `round`.
    pub fn panic_at(self, user: usize, round: u32) -> Self {
        self.with(user, round, FaultAction::PanicHoldingToken)
    }

    /// `user` forwards the token at `round`, then crashes.
    pub fn panic_after_forward_at(self, user: usize, round: u32) -> Self {
        self.with(user, round, FaultAction::PanicAfterForward)
    }

    /// `user` silently drops the token at `round`.
    pub fn drop_token_at(self, user: usize, round: u32) -> Self {
        self.with(user, round, FaultAction::DropToken)
    }

    /// `user` holds the token for `delay` of virtual time before
    /// forwarding at `round`.
    pub fn delay_at(self, user: usize, round: u32, delay: Duration) -> Self {
        self.with(user, round, FaultAction::DelayForward(delay))
    }

    /// `user` publishes from a stale observation at `round`.
    pub fn stale_at(self, user: usize, round: u32) -> Self {
        self.with(user, round, FaultAction::StaleRound)
    }

    /// Computer `i` crashes (`μ_i → 0`) after the ring completes
    /// `round`.
    pub fn crash_computer_at(mut self, round: u32, computer: usize) -> Self {
        self.capacity
            .push((round, CapacityEvent::Crash { computer }));
        self
    }

    /// Computer `i` degrades to `rate` jobs/s after the ring completes
    /// `round`.
    pub fn degrade_computer_at(mut self, round: u32, computer: usize, rate: f64) -> Self {
        self.capacity
            .push((round, CapacityEvent::Degrade { computer, rate }));
        self
    }

    /// Computer `i` returns to its nominal rate after the ring
    /// completes `round`.
    pub fn recover_computer_at(mut self, round: u32, computer: usize) -> Self {
        self.capacity
            .push((round, CapacityEvent::Recover { computer }));
        self
    }

    /// Capacity events scheduled for application after `round`
    /// completes, in insertion order.
    pub fn capacity_events_at(&self, round: u32) -> Vec<CapacityEvent> {
        self.capacity
            .iter()
            .filter(|&&(r, _)| r == round)
            .map(|&(_, e)| e)
            .collect()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.capacity.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The action planned for `user` at `round`, if any. When several
    /// actions collide on the same `(user, round)`, the first one added
    /// wins.
    pub fn action(&self, user: usize, round: u32) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|&&(u, r, _)| u == user && r == round)
            .map(|&(_, _, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_no_actions() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.action(0, 0), None);
    }

    #[test]
    fn actions_are_keyed_by_user_and_round() {
        let p = FaultPlan::new()
            .panic_at(1, 3)
            .drop_token_at(2, 0)
            .delay_at(0, 1, Duration::from_millis(5))
            .stale_at(1, 4)
            .panic_after_forward_at(3, 2);
        assert_eq!(p.len(), 5);
        assert_eq!(p.action(1, 3), Some(FaultAction::PanicHoldingToken));
        assert_eq!(p.action(2, 0), Some(FaultAction::DropToken));
        assert_eq!(
            p.action(0, 1),
            Some(FaultAction::DelayForward(Duration::from_millis(5)))
        );
        assert_eq!(p.action(1, 4), Some(FaultAction::StaleRound));
        assert_eq!(p.action(3, 2), Some(FaultAction::PanicAfterForward));
        assert_eq!(p.action(1, 0), None);
        assert_eq!(p.action(4, 3), None);
    }

    #[test]
    fn first_action_wins_on_collision() {
        // Pinned precedence (see `with`): duplicate (user, round) keys
        // resolve by insertion order, so reversing a chain reverses the
        // winner.
        let p = FaultPlan::new().drop_token_at(0, 0).panic_at(0, 0);
        assert_eq!(p.action(0, 0), Some(FaultAction::DropToken));
        let q = FaultPlan::new().panic_at(0, 0).drop_token_at(0, 0);
        assert_eq!(q.action(0, 0), Some(FaultAction::PanicHoldingToken));

        // A three-way pile-up still yields the first addition; the inert
        // duplicates keep counting toward `len`, and colliding on one
        // key leaves every other key untouched.
        let r = FaultPlan::new()
            .stale_at(2, 7)
            .drop_token_at(2, 7)
            .panic_at(2, 7)
            .panic_at(1, 7);
        assert_eq!(r.len(), 4);
        assert_eq!(r.action(2, 7), Some(FaultAction::StaleRound));
        assert_eq!(r.action(1, 7), Some(FaultAction::PanicHoldingToken));

        // The override idiom the precedence exists for: a `with` placed
        // before an uncontrolled fragment masks the fragment's action.
        let overridden = FaultPlan::new()
            .with(3, 1, FaultAction::StaleRound)
            .panic_at(3, 1); // "fragment"
        assert_eq!(overridden.action(3, 1), Some(FaultAction::StaleRound));
    }

    #[test]
    fn capacity_events_are_keyed_by_round() {
        let p = FaultPlan::new()
            .crash_computer_at(2, 1)
            .degrade_computer_at(2, 0, 3.5)
            .recover_computer_at(5, 1);
        assert!(!p.is_empty());
        assert_eq!(
            p.capacity_events_at(2),
            vec![
                CapacityEvent::Crash { computer: 1 },
                CapacityEvent::Degrade {
                    computer: 0,
                    rate: 3.5
                },
            ]
        );
        assert_eq!(
            p.capacity_events_at(5),
            vec![CapacityEvent::Recover { computer: 1 }]
        );
        assert!(p.capacity_events_at(0).is_empty());
        // User-fault accessors are unaffected.
        assert_eq!(p.action(1, 2), None);
        assert_eq!(p.len(), 0);
    }
}
