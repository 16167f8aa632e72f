//! Capacity churn events and the shed trajectory.
//!
//! PR 1 taught the ring to survive *user* failures; this module is the
//! *computer*-side counterpart. A [`CapacityEvent`] changes a computer's
//! service rate mid-run — crash (`μ_i → 0`), degrade (`μ_i → rate`), or
//! recover (`μ_i →` nominal) — and is injected deterministically through
//! the [`FaultPlan`](crate::fault::FaultPlan), keyed by the ring round
//! after which it fires. When the coordinator applies a batch of events
//! it:
//!
//! 1. updates its live capacity vector;
//! 2. zeroes crashed computers' *columns* on the
//!    [`LoadBoard`](crate::board::LoadBoard) (flow routed to a dead
//!    computer is not being served — leaving it would make every user's
//!    availability estimate lie);
//! 3. runs the configured
//!    [`OverloadPolicy`](lb_game::overload::OverloadPolicy) over the
//!    survivors' nominal demand, producing per-user *admitted* rates;
//! 4. bumps the epoch and reconfigures every live user with the new
//!    rate vector and its admitted demand, then regenerates the token —
//!    FIFO link order guarantees each user sees the reconfiguration
//!    before any new-epoch token, so no user ever best-responds against
//!    stale capacity.
//!
//! Each application appends a [`ShedRecord`] to the run's shed
//! trajectory. The trajectory is a pure function of the event schedule,
//! the nominal rates and the policy — host timing never enters — so
//! the same plan and seed reproduce it byte for byte.

/// A change to one computer's service rate, applied between rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CapacityEvent {
    /// The computer fails outright: `μ_i → 0`, its board column is
    /// zeroed, and no user may route flow to it until it recovers.
    Crash {
        /// Index of the computer.
        computer: usize,
    },
    /// The computer keeps running at a reduced (or otherwise changed)
    /// absolute rate.
    Degrade {
        /// Index of the computer.
        computer: usize,
        /// New service rate in jobs/s (must be positive and finite).
        rate: f64,
    },
    /// The computer returns to its nominal service rate.
    Recover {
        /// Index of the computer.
        computer: usize,
    },
}

impl CapacityEvent {
    /// The computer the event targets.
    #[must_use]
    pub(crate) fn computer(&self) -> usize {
        match *self {
            Self::Crash { computer }
            | Self::Degrade { computer, .. }
            | Self::Recover { computer } => computer,
        }
    }
}

/// One entry of the shed trajectory: the admission-control decision the
/// coordinator took after applying the capacity events of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// Ring round after which the decision was taken.
    pub round: u32,
    /// Epoch the ring moved to.
    pub epoch: u32,
    /// Capacity vector in force after the events (0 = crashed).
    pub capacity: Vec<f64>,
    /// Per-user admitted arrival rates (0 for failed users).
    pub admitted: Vec<f64>,
    /// Per-user shed arrival rates (`nominal − admitted` for live
    /// users, 0 for failed ones).
    pub shed: Vec<f64>,
}

impl ShedRecord {
    /// Total admitted arrival rate.
    #[must_use]
    pub(crate) fn admitted_total(&self) -> f64 {
        self.admitted.iter().sum()
    }

    /// Total shed arrival rate.
    #[must_use]
    pub(crate) fn shed_total(&self) -> f64 {
        self.shed.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_its_computer() {
        assert_eq!(CapacityEvent::Crash { computer: 3 }.computer(), 3);
        assert_eq!(
            CapacityEvent::Degrade {
                computer: 1,
                rate: 5.0
            }
            .computer(),
            1
        );
        assert_eq!(CapacityEvent::Recover { computer: 0 }.computer(), 0);
    }

    #[test]
    fn shed_record_totals() {
        let r = ShedRecord {
            round: 4,
            epoch: 2,
            capacity: vec![10.0, 0.0],
            admitted: vec![3.0, 4.0],
            shed: vec![1.0, 2.0],
        };
        assert!((r.admitted_total() - 7.0).abs() < 1e-12);
        assert!((r.shed_total() - 3.0).abs() < 1e-12);
    }
}
