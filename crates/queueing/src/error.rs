//! Error types for queueing-theory computations.

use std::fmt;

/// Errors raised by queueing-theory constructors and evaluators.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueingError {
    /// A rate parameter (arrival or service) was not strictly positive
    /// and finite where required.
    InvalidRate {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The queue (or network) is unstable: offered load reaches or exceeds
    /// capacity, so stationary quantities do not exist.
    Unstable {
        /// Total arrival rate offered.
        arrival_rate: f64,
        /// Capacity it was compared against.
        capacity: f64,
    },
    /// An empty system (zero computers) was supplied where at least one is
    /// required.
    EmptySystem,
    /// A probability or percentile argument fell outside `(0, 1)`.
    InvalidProbability {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for QueueingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRate { name, value } => {
                write!(f, "rate `{name}` must be positive and finite, got {value}")
            }
            Self::Unstable {
                arrival_rate,
                capacity,
            } => write!(
                f,
                "unstable system: arrival rate {arrival_rate} >= capacity {capacity}"
            ),
            Self::EmptySystem => write!(f, "system must contain at least one computer"),
            Self::InvalidProbability { value } => {
                write!(f, "probability must lie in (0, 1), got {value}")
            }
        }
    }
}

impl std::error::Error for QueueingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = QueueingError::InvalidRate {
            name: "mu",
            value: -1.0,
        };
        assert!(e.to_string().contains("mu"));
        assert!(e.to_string().contains("-1"));

        let e = QueueingError::Unstable {
            arrival_rate: 5.0,
            capacity: 4.0,
        };
        assert!(e.to_string().contains("unstable"));

        assert!(QueueingError::EmptySystem
            .to_string()
            .contains("at least one"));

        let e = QueueingError::InvalidProbability { value: 1.5 };
        assert!(e.to_string().contains("(0, 1)"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<QueueingError>();
    }
}
