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
    /// The queue is unstable: offered load reaches or exceeds capacity, so
    /// stationary quantities do not exist.
    Unstable {
        /// Total arrival rate offered.
        arrival_rate: f64,
        /// Capacity it was compared against.
        capacity: f64,
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
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<QueueingError>();
    }
}
