//! Generic queue latency functions.
//!
//! The paper's computers are M/M/1 queues, whose latency `1/(μ − λ)`
//! admits the closed-form water-filling best reply. The multicore
//! extension replaces computers with M/M/c pools, whose Erlang-C latency
//! has no such closed form — so the game layer needs latency as an
//! *interface*: convex, increasing, with a finite capacity. The numeric
//! best-reply solver in [`crate::gradient`] works against this trait.

use lb_queueing::Mmc;

/// Expected-response-time function of a single service facility.
///
/// Implementations must be convex and increasing on `[0, capacity)` and
/// return `+∞` at or beyond capacity — the properties the game theory
/// (existence/uniqueness of equilibria, Orda et al. 1993) relies on.
pub trait Latency {
    /// Expected response time at offered flow `lambda` (`+∞` if
    /// saturated).
    fn response_time(&self, lambda: f64) -> f64;

    /// Maximum sustainable flow (exclusive bound).
    fn capacity(&self) -> f64;
}

/// M/M/1 latency `1/(μ − λ)` — the paper's model, the reference the
/// tests hold the numeric solver to.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Mm1Latency {
    /// Processing rate `μ`.
    pub(crate) mu: f64,
}

#[cfg(test)]
impl Latency for Mm1Latency {
    fn response_time(&self, lambda: f64) -> f64 {
        lb_queueing::mm1::response_time(lambda, self.mu)
    }

    fn capacity(&self) -> f64 {
        self.mu
    }
}

/// M/M/c latency (Erlang-C): a pool of `servers` cores of rate `mu`
/// behind one queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcLatency {
    /// Per-core service rate.
    pub mu: f64,
    /// Number of cores.
    pub servers: u32,
}

impl Latency for MmcLatency {
    fn response_time(&self, lambda: f64) -> f64 {
        if lambda < 0.0 {
            return f64::INFINITY;
        }
        if lambda == 0.0 {
            return 1.0 / self.mu;
        }
        match Mmc::new(lambda, self.mu, self.servers) {
            Ok(q) => q.response_time(),
            Err(_) => f64::INFINITY,
        }
    }

    fn capacity(&self) -> f64 {
        self.mu * f64::from(self.servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_latency_matches_queueing_crate() {
        let l = Mm1Latency { mu: 4.0 };
        let q = lb_queueing::mm1::response_time(1.0, 4.0);
        assert!((l.response_time(1.0) - q).abs() < 1e-12);
        assert_eq!(l.capacity(), 4.0);
        assert!(l.response_time(4.0).is_infinite());
    }

    #[test]
    fn mmc_latency_matches_queueing_crate() {
        let l = MmcLatency {
            mu: 1.0,
            servers: 4,
        };
        let q = Mmc::new(2.0, 1.0, 4).unwrap();
        assert!((l.response_time(2.0) - q.response_time()).abs() < 1e-12);
        assert_eq!(l.capacity(), 4.0);
        assert!(l.response_time(4.0).is_infinite());
        assert!((l.response_time(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latencies_are_increasing() {
        let pools: Vec<Box<dyn Latency>> = vec![
            Box::new(Mm1Latency { mu: 5.0 }),
            Box::new(MmcLatency {
                mu: 1.0,
                servers: 5,
            }),
        ];
        for p in &pools {
            let mut prev = p.response_time(0.0);
            for k in 1..40 {
                let lambda = p.capacity() * f64::from(k) / 41.0;
                let t = p.response_time(lambda);
                assert!(t >= prev, "latency not increasing at {lambda}");
                prev = t;
            }
        }
    }

    #[test]
    fn latencies_are_convex_on_a_grid() {
        // Midpoint convexity check of x -> T(x) on a grid.
        let pools: Vec<Box<dyn Latency>> = vec![
            Box::new(Mm1Latency { mu: 5.0 }),
            Box::new(MmcLatency {
                mu: 1.0,
                servers: 8,
            }),
        ];
        for p in &pools {
            let cap = p.capacity();
            for k in 1..30 {
                let a = cap * f64::from(k) / 32.0;
                let b = cap * f64::from(k + 2) / 32.0;
                let mid = 0.5 * (a + b);
                assert!(
                    p.response_time(mid) <= 0.5 * (p.response_time(a) + p.response_time(b)) + 1e-12,
                    "convexity fails on [{a}, {b}]"
                );
            }
        }
    }

    #[test]
    fn pooled_cores_beat_split_cores_at_equal_load() {
        // Classic pooling: one M/M/4 of rate 1 beats four M/M/1 of rate 1
        // each taking a quarter of the flow.
        let pool = MmcLatency {
            mu: 1.0,
            servers: 4,
        };
        let single = Mm1Latency { mu: 1.0 };
        let total = 3.2;
        assert!(pool.response_time(total) < single.response_time(total / 4.0));
    }
}
