//! Independent iterative solver for the best-reply subproblem.
//!
//! [`exponentiated_gradient_flows`] minimizes the same objective as the
//! water-filling OPTIMAL algorithm with a completely different method —
//! mirror descent (exponentiated gradient) on the scaled simplex with
//! backtracking — and serves as a cross-check that Theorem 2.1's closed
//! form really is the optimum. It is also the kind of generic solver the
//! paper contrasts with ("there exist few algorithms for finding the
//! optimum for similar optimization problems … complex and involving a
//! method for solving a nonlinear equation"); the benches quantify how
//! much slower it is than OPTIMAL.

use crate::best_reply::split_cost;
use crate::error::GameError;

/// Minimizes `Σ_i x_i/(a_i − x_i)` over `{x >= 0, Σ x_i = demand}` by
/// exponentiated-gradient descent. Non-positive rates are excluded.
///
/// Returns flows in the caller's order. Accuracy is controlled by
/// `iterations`; a few thousand iterations reach ~1e-8 relative cost on
/// paper-sized systems.
///
/// # Errors
///
/// * [`GameError::InvalidRate`] for a non-positive demand.
/// * [`GameError::InfeasibleBestReply`] when capacity is insufficient.
pub fn exponentiated_gradient_flows(
    rates: &[f64],
    demand: f64,
    iterations: u32,
) -> Result<Vec<f64>, GameError> {
    if !demand.is_finite() || demand <= 0.0 {
        return Err(GameError::InvalidRate {
            name: "demand",
            value: demand,
        });
    }
    let usable: Vec<usize> = (0..rates.len()).filter(|&i| rates[i] > 0.0).collect();
    let capacity: f64 = usable.iter().map(|&i| rates[i]).sum();
    if capacity <= demand {
        return Err(GameError::InfeasibleBestReply {
            user: usize::MAX,
            available: capacity,
            demand,
        });
    }

    // Feasible interior start: proportional to available rates.
    let mut x = vec![0.0; rates.len()];
    for &i in &usable {
        x[i] = demand * rates[i] / capacity;
    }
    let mut cost = split_cost(rates, &x);
    let mut eta = 0.5;

    for _ in 0..iterations {
        // Gradient of the (unnormalized) objective.
        let grad: Vec<f64> = usable
            .iter()
            .map(|&i| {
                let r = rates[i] - x[i];
                rates[i] / (r * r)
            })
            .collect();
        // Normalize the gradient so the step size is scale-free.
        let gmax = grad.iter().cloned().fold(f64::MIN, f64::max);

        // Backtracking exponentiated-gradient step.
        let mut improved = false;
        for _ in 0..40 {
            let mut trial = vec![0.0; rates.len()];
            let mut z = 0.0;
            for (k, &i) in usable.iter().enumerate() {
                let w = x[i] * (-eta * grad[k] / gmax).exp();
                trial[i] = w;
                z += w;
            }
            for &i in &usable {
                trial[i] *= demand / z;
            }
            let trial_cost = split_cost(rates, &trial);
            if trial_cost.is_finite() && trial_cost <= cost {
                improved = trial_cost < cost - 1e-15;
                x = trial;
                cost = trial_cost;
                // Gentle step growth after a success.
                eta = (eta * 1.5).min(8.0);
                break;
            }
            eta *= 0.5;
        }
        if !improved && eta < 1e-12 {
            break;
        }
    }
    Ok(x)
}

/// Minimizes `Σ_i x_i · T_i(base_i + x_i)` over `{x >= 0, Σ x = demand}`
/// for *arbitrary* convex increasing latencies — the numeric best-reply
/// engine of the multicore (M/M/c) extension, where no closed form
/// exists. `base` is the flow already placed on each queue by the other
/// users.
///
/// Exponentiated-gradient with numerical derivatives and backtracking;
/// queues whose remaining capacity is insufficient are excluded.
///
/// # Errors
///
/// * [`GameError::InvalidRate`] for a non-positive demand.
/// * [`GameError::InfeasibleBestReply`] when `Σ max(cap_i − base_i, 0)
///   <= demand`.
pub(crate) fn minimize_general_split(
    latencies: &[&dyn crate::latency::Latency],
    base: &[f64],
    demand: f64,
    iterations: u32,
) -> Result<Vec<f64>, GameError> {
    assert_eq!(latencies.len(), base.len(), "latency/base arity");
    if !demand.is_finite() || demand <= 0.0 {
        return Err(GameError::InvalidRate {
            name: "demand",
            value: demand,
        });
    }
    let headroom: Vec<f64> = latencies
        .iter()
        .zip(base)
        .map(|(l, &b)| (l.capacity() - b).max(0.0))
        .collect();
    let usable: Vec<usize> = (0..latencies.len())
        .filter(|&i| headroom[i] > 0.0)
        .collect();
    let total_headroom: f64 = usable.iter().map(|&i| headroom[i]).sum();
    if total_headroom <= demand {
        return Err(GameError::InfeasibleBestReply {
            user: usize::MAX,
            available: total_headroom,
            demand,
        });
    }

    let cost = |x: &[f64]| -> f64 {
        let mut acc = 0.0;
        for (&xi, (l, &b)) in x.iter().zip(latencies.iter().zip(base)) {
            if xi > 0.0 {
                let t = l.response_time(b + xi);
                if !t.is_finite() {
                    return f64::INFINITY;
                }
                acc += xi * t;
            }
        }
        acc
    };

    // Feasible interior start: proportional to headroom.
    let mut x = vec![0.0; latencies.len()];
    for &i in &usable {
        x[i] = demand * headroom[i] / total_headroom;
    }
    let mut current = cost(&x);
    let mut eta = 0.5;

    for _ in 0..iterations {
        // Numerical gradient of phi_i(x) = x * T_i(base + x).
        let grad: Vec<f64> = usable
            .iter()
            .map(|&i| {
                let h = (1e-6 * headroom[i]).max(1e-12);
                let xp = (x[i] + h).min(headroom[i] - 1e-12);
                let xm = (x[i] - h).max(0.0);
                let fp = xp * latencies[i].response_time(base[i] + xp);
                let fm = xm * latencies[i].response_time(base[i] + xm);
                if xp > xm {
                    (fp - fm) / (xp - xm)
                } else {
                    latencies[i].response_time(base[i])
                }
            })
            .collect();
        let gmax = grad.iter().cloned().fold(1e-300_f64, |a, b| a.max(b.abs()));

        let mut improved = false;
        for _ in 0..40 {
            let mut trial = vec![0.0; x.len()];
            let mut z = 0.0;
            for (k, &i) in usable.iter().enumerate() {
                let w = x[i].max(1e-300) * (-eta * grad[k] / gmax).exp();
                trial[i] = w;
                z += w;
            }
            for &i in &usable {
                trial[i] *= demand / z;
            }
            let trial_cost = cost(&trial);
            if trial_cost.is_finite() && trial_cost <= current {
                improved = trial_cost < current - 1e-15;
                x = trial;
                current = trial_cost;
                eta = (eta * 1.5).min(8.0);
                break;
            }
            eta *= 0.5;
        }
        if !improved && eta < 1e-12 {
            break;
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best_reply::water_fill_flows;
    use crate::latency::{Latency, Mm1Latency, MmcLatency};

    #[test]
    fn matches_water_filling_cost() {
        let cases: Vec<(Vec<f64>, f64)> = vec![
            (vec![10.0, 20.0, 50.0, 100.0], 90.0),
            (vec![10.0, 10.0, 10.0], 15.0),
            (vec![100.0, 1.0], 0.5),
            (vec![7.0, 13.0, 29.0, 61.0, 3.0], 60.0),
        ];
        for (rates, demand) in cases {
            let exact = water_fill_flows(&rates, demand).unwrap();
            let approx = exponentiated_gradient_flows(&rates, demand, 4000).unwrap();
            let c_exact = split_cost(&rates, &exact);
            let c_approx = split_cost(&rates, &approx);
            assert!(
                c_approx <= c_exact * (1.0 + 1e-5),
                "gradient cost {c_approx} vs optimal {c_exact} for {rates:?}, {demand}"
            );
            assert!(
                c_approx >= c_exact - 1e-12,
                "gradient beat the closed-form optimum?! {c_approx} < {c_exact}"
            );
        }
    }

    #[test]
    fn flows_are_feasible() {
        let rates = [10.0, 20.0, 50.0];
        let x = exponentiated_gradient_flows(&rates, 40.0, 2000).unwrap();
        let sum: f64 = x.iter().sum();
        assert!((sum - 40.0).abs() < 1e-9);
        for (&xi, &a) in x.iter().zip(&rates) {
            assert!(xi >= 0.0 && xi < a);
        }
    }

    #[test]
    fn skips_dead_servers() {
        let x = exponentiated_gradient_flows(&[10.0, -1.0, 0.0, 10.0], 5.0, 1000).unwrap();
        assert_eq!(x[1], 0.0);
        assert_eq!(x[2], 0.0);
    }

    #[test]
    fn rejects_infeasible() {
        assert!(exponentiated_gradient_flows(&[1.0, 1.0], 2.0, 10).is_err());
        assert!(exponentiated_gradient_flows(&[1.0], 0.0, 10).is_err());
    }

    #[test]
    fn general_solver_reduces_to_mm1_water_filling() {
        // With M/M/1 latencies and zero base load, the general solver must
        // agree with the closed form.
        let mus = [10.0, 20.0, 50.0];
        let lats: Vec<Mm1Latency> = mus.iter().map(|&mu| Mm1Latency { mu }).collect();
        let refs: Vec<&dyn Latency> = lats.iter().map(|l| l as &dyn Latency).collect();
        let demand = 40.0;
        let general = minimize_general_split(&refs, &[0.0, 0.0, 0.0], demand, 5000).unwrap();
        let exact = water_fill_flows(&mus, demand).unwrap();
        let c_general = split_cost(&mus, &general);
        let c_exact = split_cost(&mus, &exact);
        assert!(
            (c_general - c_exact).abs() < 1e-5 * c_exact,
            "general {c_general} vs exact {c_exact}"
        );
    }

    #[test]
    fn general_solver_accounts_for_base_load() {
        // Base load on the fast queue should push flow to the slow one
        // relative to the empty-system optimum.
        let mus = [10.0, 10.0];
        let lats = [Mm1Latency { mu: 10.0 }, Mm1Latency { mu: 10.0 }];
        let refs: Vec<&dyn Latency> = lats.iter().map(|l| l as &dyn Latency).collect();
        let x = minimize_general_split(&refs, &[6.0, 0.0], 4.0, 3000).unwrap();
        assert!(x[1] > x[0], "loaded queue should receive less: {x:?}");
        let sum: f64 = x.iter().sum();
        assert!((sum - 4.0).abs() < 1e-9);
        let _ = mus;
    }

    #[test]
    fn general_solver_handles_mmc_pools() {
        // One quad-core pool vs one fast single server, equal capacity.
        let pool = MmcLatency {
            mu: 5.0,
            servers: 4,
        };
        let single = Mm1Latency { mu: 20.0 };
        let refs: Vec<&dyn Latency> = vec![&pool, &single];
        let x = minimize_general_split(&refs, &[0.0, 0.0], 24.0, 4000).unwrap();
        let sum: f64 = x.iter().sum();
        assert!((sum - 24.0).abs() < 1e-9);
        assert!(x.iter().all(|&v| (0.0..20.0).contains(&v)));
        // The fast single server has lower latency at equal flow, so it
        // should carry more.
        assert!(x[1] > x[0], "flows {x:?}");
        // Local optimality: pairwise flow transfers cannot help.
        let cost = |x: &[f64]| x[0] * pool.response_time(x[0]) + x[1] * single.response_time(x[1]);
        let c0 = cost(&x);
        for d in [1e-3, -1e-3] {
            let y = [x[0] + d, x[1] - d];
            if y.iter().all(|&v| v >= 0.0) {
                assert!(cost(&y) >= c0 - 1e-9, "transfer {d} improves");
            }
        }
    }

    #[test]
    fn general_solver_rejects_insufficient_headroom() {
        let a = Mm1Latency { mu: 5.0 };
        let b = Mm1Latency { mu: 5.0 };
        let refs: Vec<&dyn Latency> = vec![&a, &b];
        assert!(matches!(
            minimize_general_split(&refs, &[4.0, 4.0], 3.0, 100),
            Err(GameError::InfeasibleBestReply { .. })
        ));
    }
}
