//! Job-retry policy for the churn extension.
//!
//! The paper's computers never fail; in the churn extension a crash
//! preempts the job in service and strands the queue
//! ([`crate::station::FcfsStation::fail`] returns them), and the
//! dispatcher re-submits those jobs under a capped exponential
//! [`RetryBackoff`], after which a job is counted *lost*, not served.
//! The policy only computes delays; the event wiring stays in the model
//! layer, keeping this crate's kernel generic.

// The retry policy proper lives in the shared `lb-retry` crate so the
// asynchronous equilibration runtime can reuse it for message retries;
// re-exported here because the DES churn model is its original home.
pub use lb_retry::RetryBackoff;

#[cfg(test)]
mod tests {
    use super::*;

    /// The policy moved to `lb-retry`; the historical path must keep
    /// working for the churn model and downstream callers.
    #[test]
    fn reexported_backoff_behaves() {
        let p = RetryBackoff::new(0.1, 2.0, 0.5, 4);
        assert_eq!(p.delay(0), Some(0.1));
        assert_eq!(p.delay(3), Some(0.5)); // capped
        assert_eq!(p.delay(4), None); // budget exhausted: job lost
    }
}
