//! The OPTIMAL algorithm (paper §2, Theorem 2.1): a user's exact best
//! reply by square-root water-filling.
//!
//! Fixing the other users, user `j` sees *available* rates
//! `a_i = μ_i − Σ_{k≠j} s_ki φ_k` and solves
//!
//! ```text
//! min Σ_i x_i / (a_i − x_i)    s.t.  x_i >= 0,  Σ_i x_i = φ_j
//! ```
//!
//! (with `x_i = s_ji φ_j` the user's flow to computer `i`). The KKT
//! conditions give the closed form: sort computers by `a_i` descending,
//! keep the maximal prefix for which
//!
//! ```text
//! t = (Σ_{k<=c} a_k − φ_j) / (Σ_{k<=c} √a_k)      satisfies  t < √a_c ,
//! ```
//!
//! and set `x_i = a_i − t·√a_i` on the prefix, `0` elsewhere. The same
//! kernel with `a = μ` and demand `Φ` yields the *global* optimum used by
//! the GOS baseline (the social planner is a single grand user).
//!
//! The sort dominates the kernel, as the paper notes. It sorts integer
//! `(key, index)` pairs whose order is total (rate descending, then
//! index ascending), so any correct sort from any start order yields the
//! same permutation, and with it the same flows bit for bit. That
//! freedom is what [`WaterFillScratch`] uses: it starts each sort from
//! the order its last call produced. The worst case is `O(n log n)`;
//! from a warm scratch on `n <= 20` computers, where the std sort is an
//! insertion sort, it is `O(n + inversions)`, close to one pass when the
//! rates barely moved since the last call. The gain rests on that
//! small-slice insertion sort. Above 20 elements the std sort finishes
//! in one pass only when the start order is exactly right, and otherwise
//! runs its quicksort, for which a nearly sorted start is no cheaper.

use crate::error::GameError;
use crate::model::SystemModel;
use crate::strategy::{Strategy, StrategyProfile};

/// Relative headroom floor for assigned flows: `x_i` never comes closer
/// to its available rate than `SATURATION_GUARD · a_i`. Near saturation
/// the downstream `1/(a_i − x_i)` response-time terms explode to
/// huge-but-finite values that poison convergence norms (and a single
/// ulp of overshoot flips them to `∞` or negative); the guard bounds
/// them at `1/(GUARD · a_i)`. It binds only when the demand sits within
/// `GUARD` of the total available rate — a legitimately feasible split
/// keeps far more headroom (at ρ = 0.999 the equilibrium leaves ~6e-4
/// of each rate), so solutions away from the pathological sliver are
/// bit-for-bit unchanged.
pub(crate) const SATURATION_GUARD: f64 = 1e-9;

/// Available processing rate of each computer as seen by user `j`:
/// `a_i = μ_i − Σ_{k≠j} s_ki φ_k` (paper §2). Values can be ≤ 0 if other
/// users saturate a computer; the water-filling kernel skips those.
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] when profile and model disagree.
pub(crate) fn available_rates(
    model: &SystemModel,
    profile: &StrategyProfile,
    j: usize,
) -> Result<Vec<f64>, GameError> {
    let flows = profile.computer_flows(model)?;
    let own = profile.strategy(j);
    let phi_j = model.user_rate(j);
    Ok(model
        .computer_rates()
        .iter()
        .enumerate()
        .map(|(i, &mu)| mu - (flows[i] - own.fraction(i) * phi_j))
        .collect())
}

/// The water-filling kernel: splits a flow `demand` across servers of
/// (available) rates `rates`, minimizing `Σ x_i/(rates_i − x_i)`.
/// Non-positive rates are treated as unusable. Returns the per-server
/// flows `x_i` in the caller's order.
///
/// This is the body of the paper's OPTIMAL algorithm; `O(n log n)` from
/// the sort. It sorts from a fresh scratch; solver loops call
/// [`water_fill_flows_into`] with a held scratch instead, which keeps the
/// buffers and starts each sort from the last order.
///
/// # Examples
///
/// ```
/// use lb_game::best_reply::water_fill_flows;
/// // Two servers, light demand: everything rides the fast one.
/// let flows = water_fill_flows(&[100.0, 1.0], 0.5).unwrap();
/// assert!(flows[0] > 0.0 && flows[1] == 0.0);
/// // Conservation always holds.
/// assert!((flows.iter().sum::<f64>() - 0.5).abs() < 1e-12);
/// ```
///
/// # Errors
///
/// * [`GameError::InvalidRate`] for a non-positive/non-finite demand or a
///   non-finite rate.
/// * [`GameError::InfeasibleBestReply`] when `Σ max(rates_i, 0) <= demand`
///   (not enough capacity).
pub fn water_fill_flows(rates: &[f64], demand: f64) -> Result<Vec<f64>, GameError> {
    let mut scratch = WaterFillScratch::default();
    let mut flows = Vec::new();
    water_fill_flows_into(rates, demand, &mut scratch, &mut flows)?;
    Ok(flows)
}

/// Reusable scratch for [`water_fill_flows_into`]. Holding one of these
/// across calls keeps its buffers allocated, so the kernel performs no
/// heap allocations on the solver hot path. It also keeps the order the
/// last call sorted into, and the next call on a slice of the same
/// length starts its sort from there. Between the sweeps of a solve a
/// user's available rates barely move, so that order is nearly (often
/// exactly) right, and for `n <= 20` the sort is then close to one pass;
/// any start order gives the same result (see the
/// [module documentation](crate::best_reply)).
#[derive(Debug, Default, Clone)]
pub struct WaterFillScratch {
    /// `(key, index)` over every index of the last call's rates, in the
    /// order that call sorted them into. Always a permutation of
    /// `0..len`; rebuilt as the identity when the length changes.
    keyed: Vec<(u64, usize)>,
    /// `(a, √a)` of the usable rates in sorted order.
    used: Vec<(f64, f64)>,
}

/// Sort key of an available rate: ascending keys are descending rates.
/// The bits of a positive finite `f64` are monotone in its value, so
/// `!bits` orders them in reverse; an unusable rate (`a <= 0`) sorts
/// last.
fn sort_key(a: f64) -> u64 {
    if a > 0.0 {
        !a.to_bits()
    } else {
        u64::MAX
    }
}

/// Allocation-free form of [`water_fill_flows`]: writes the per-server
/// flows into `out` (cleared and resized to `rates.len()`), reusing the
/// buffers and the last sorted order in `scratch`. Bit-identical to the
/// allocating entry point, whatever the scratch held before — the sorted
/// order is unique, and the summation order is fixed by it.
///
/// `O(n log n)` in the worst case; from a warm scratch on `n <= 20`
/// computers, `O(n + inversions)`.
///
/// # Errors
///
/// Same contract as [`water_fill_flows`].
pub fn water_fill_flows_into(
    rates: &[f64],
    demand: f64,
    scratch: &mut WaterFillScratch,
    out: &mut Vec<f64>,
) -> Result<(), GameError> {
    if !demand.is_finite() || demand <= 0.0 {
        return Err(GameError::InvalidRate {
            name: "demand",
            value: demand,
        });
    }
    for &a in rates {
        if !a.is_finite() {
            return Err(GameError::InvalidRate {
                name: "available_rate",
                value: a,
            });
        }
    }
    // Usable computers, sorted by available rate descending (ties by index
    // for determinism) — step 1 of OPTIMAL. The sort starts from the
    // order the scratch's last call produced.
    let WaterFillScratch { keyed, used } = scratch;
    if keyed.len() != rates.len() {
        keyed.clear();
        keyed.extend((0..rates.len()).map(|i| (0, i)));
    }
    for (key, i) in keyed.iter_mut() {
        *key = sort_key(rates[*i]);
    }
    keyed.sort_unstable();
    let usable = keyed.partition_point(|&(key, _)| key != u64::MAX);
    let order = &keyed[..usable];
    used.clear();
    used.extend(order.iter().map(|&(_, i)| (rates[i], rates[i].sqrt())));
    let total: f64 = used.iter().map(|&(a, _)| a).sum();
    if total <= demand {
        return Err(GameError::InfeasibleBestReply {
            user: usize::MAX,
            available: total,
            demand,
        });
    }

    // Steps 2–3: shrink the used prefix until t < sqrt(a_c).
    let mut c = used.len();
    let mut sum_a: f64 = total;
    let mut sum_sqrt: f64 = used.iter().map(|&(_, r)| r).sum();
    let mut t = (sum_a - demand) / sum_sqrt;
    while c > 1 {
        let (a_last, r_last) = used[c - 1];
        if t < r_last {
            break;
        }
        sum_a -= a_last;
        sum_sqrt -= r_last;
        c -= 1;
        t = (sum_a - demand) / sum_sqrt;
    }

    // Step 4: assign flows on the used prefix, capped at the saturation
    // guard so cancellation can never park a flow within an ulp of its
    // rate.
    let cap = |a: f64| a * (1.0 - SATURATION_GUARD);
    out.clear();
    out.resize(rates.len(), 0.0);
    let flows = out;
    let prefix = || order[..c].iter().map(|&(_, i)| i).zip(&used[..c]);
    for (i, &(a, r)) in prefix() {
        flows[i] = (a - t * r).max(0.0).min(cap(a));
    }
    // In exact arithmetic Σ flows == demand, but the clamps above plus
    // floating-point cancellation can leave a drift of a few ulps of
    // Σ a_i. Fold the residual back in fastest-first (largest headroom:
    // a_i − x_i = t·√a_i is maximal there), still honoring the guard;
    // if the demand sits inside the guard sliver the leftover is
    // dropped — a ≤ GUARD·Σa conservation drift is the price of keeping
    // every 1/(a_i − x_i) bounded.
    let assigned: f64 = prefix().map(|(i, _)| flows[i]).sum();
    let mut residual = demand - assigned;
    if residual < 0.0 {
        let fastest = order[0].1;
        flows[fastest] = (flows[fastest] + residual).max(0.0);
    } else if residual > 0.0 {
        for (i, &(a, _)) in prefix() {
            let room = (cap(a) - flows[i]).max(0.0);
            let take = residual.min(room);
            flows[i] += take;
            residual -= take;
            if residual <= 0.0 {
                break;
            }
        }
    }
    Ok(())
}

/// Computes user `j`'s best reply to the rest of `profile` — the OPTIMAL
/// algorithm. Returns the strategy (fractions) minimizing `D_j`.
///
/// # Errors
///
/// * [`GameError::DimensionMismatch`] on shape mismatch.
/// * [`GameError::InfeasibleBestReply`] when the other users leave user
///   `j` less available capacity than its arrival rate (cannot happen from
///   a stable profile, but can from an arbitrary one).
pub(crate) fn best_reply(
    model: &SystemModel,
    profile: &StrategyProfile,
    j: usize,
) -> Result<Strategy, GameError> {
    let rates = available_rates(model, profile, j)?;
    let phi_j = model.user_rate(j);
    let flows = water_fill_flows(&rates, phi_j).map_err(|e| e.with_user(j))?;
    Strategy::new(flows.iter().map(|x| x / phi_j).collect())
}

/// One entry of the damped best-reply step `(1−β)·old + β·reply`, which
/// the sampled solver and the asynchronous runtime take instead of
/// jumping to the reply. A result below `1e-6·φ` is dust and becomes
/// zero; each caller then rescales its row to carry exactly φ again.
#[inline]
#[must_use]
pub fn damped_step(old: f64, reply: f64, beta: f64, phi: f64) -> f64 {
    let x = (1.0 - beta) * old + beta * reply;
    if x >= 1e-6 * phi {
        x
    } else {
        0.0
    }
}

/// Expected response time of a flow split `flows` against (available)
/// rates `rates`: `(1/demand) Σ x_i/(a_i − x_i)`, `+∞` if any used server
/// is saturated.
pub fn split_cost(rates: &[f64], flows: &[f64]) -> f64 {
    let demand: f64 = flows.iter().sum();
    if demand == 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (&x, &a) in flows.iter().zip(rates) {
        if x > 0.0 {
            if x >= a {
                return f64::INFINITY;
            }
            acc += x / (a - x);
        }
    }
    acc / demand
}

/// Verifies the KKT optimality conditions of a water-filling solution:
/// all used servers share the same marginal cost `a_i/(a_i − x_i)²`, and
/// every unused server's marginal at zero (`1/a_i`) is no better. Used by
/// tests and the ε-Nash checker.
pub fn satisfies_kkt(rates: &[f64], flows: &[f64], rel_tol: f64) -> bool {
    let mut lambda: Option<f64> = None;
    // Common multiplier from the used servers.
    for (&x, &a) in flows.iter().zip(rates) {
        if x > 0.0 {
            if a <= x {
                return false;
            }
            let marginal = a / ((a - x) * (a - x));
            match lambda {
                None => lambda = Some(marginal),
                Some(l) => {
                    if (marginal - l).abs() > rel_tol * l.max(1.0) {
                        return false;
                    }
                }
            }
        }
    }
    let Some(l) = lambda else {
        return flows.iter().all(|&x| x == 0.0);
    };
    // Unused servers must not offer a strictly better marginal.
    for (&x, &a) in flows.iter().zip(rates) {
        if x == 0.0 && a > 0.0 {
            let marginal_at_zero = 1.0 / a;
            if marginal_at_zero < l * (1.0 - rel_tol) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert, prop_oneof, proptest, ProptestConfig};
    use std::cell::RefCell;

    /// The kernel as first written, kept as the bitwise oracle for
    /// [`water_fill_flows_into`]: indices sorted through a closure
    /// comparing floats, each `√a` taken where it is read.
    fn reference_water_fill(rates: &[f64], demand: f64) -> Result<Vec<f64>, GameError> {
        if !demand.is_finite() || demand <= 0.0 {
            return Err(GameError::InvalidRate {
                name: "demand",
                value: demand,
            });
        }
        for &a in rates {
            if !a.is_finite() {
                return Err(GameError::InvalidRate {
                    name: "available_rate",
                    value: a,
                });
            }
        }
        let mut order: Vec<usize> = (0..rates.len()).filter(|&i| rates[i] > 0.0).collect();
        order.sort_by(|&p, &q| rates[q].total_cmp(&rates[p]).then(p.cmp(&q)));
        let total: f64 = order.iter().map(|&i| rates[i]).sum();
        if total <= demand {
            return Err(GameError::InfeasibleBestReply {
                user: usize::MAX,
                available: total,
                demand,
            });
        }
        let mut c = order.len();
        let mut sum_a: f64 = total;
        let mut sum_sqrt: f64 = order.iter().map(|&i| rates[i].sqrt()).sum();
        let mut t = (sum_a - demand) / sum_sqrt;
        while c > 1 {
            let a_last = rates[order[c - 1]];
            if t < a_last.sqrt() {
                break;
            }
            sum_a -= a_last;
            sum_sqrt -= a_last.sqrt();
            c -= 1;
            t = (sum_a - demand) / sum_sqrt;
        }
        let cap = |a: f64| a * (1.0 - SATURATION_GUARD);
        let mut flows = vec![0.0; rates.len()];
        for &i in &order[..c] {
            flows[i] = (rates[i] - t * rates[i].sqrt()).max(0.0).min(cap(rates[i]));
        }
        let assigned: f64 = order[..c].iter().map(|&i| flows[i]).sum();
        let mut residual = demand - assigned;
        if residual < 0.0 {
            let fastest = order[0];
            flows[fastest] = (flows[fastest] + residual).max(0.0);
        } else if residual > 0.0 {
            for &i in &order[..c] {
                let room = (cap(rates[i]) - flows[i]).max(0.0);
                let take = residual.min(room);
                flows[i] += take;
                residual -= take;
                if residual <= 0.0 {
                    break;
                }
            }
        }
        Ok(flows)
    }

    /// One rate of a generated case: mostly within a 10× band of
    /// `scale`, sometimes a duplicate of an earlier rate, a signed zero,
    /// a negative, a subnormal, or (rarely) non-finite.
    fn case_rate(scale: f64, kind: u32, u: f64, earlier: &[f64]) -> f64 {
        match kind {
            0..=69 => scale * (1.0 + 9.0 * u),
            70..=79 if !earlier.is_empty() => earlier[(u * earlier.len() as f64) as usize],
            80..=82 => 0.0,
            83 => -0.0,
            84..=88 => -scale * u,
            89..=92 => f64::from_bits(1 + (u * (1u64 << 52) as f64) as u64),
            93 if u < 0.01 => f64::INFINITY,
            _ => scale * (1.0 + 9.0 * u),
        }
    }

    /// Demand as a share of the usable capacity: from 1e-12, through
    /// the body, into the saturation guard, to exactly Σa and past it;
    /// rarely an invalid demand.
    fn case_demand(total: f64, kind: u32, u: f64) -> f64 {
        match kind {
            0..=9 => 1e-12 * total * (1.0 + u),
            10..=69 => total * u.max(1e-9),
            70..=79 => total * (1.0 - 1e-9 * u),
            80..=84 => total * (1.0 - f64::EPSILON),
            85..=89 => total,
            90..=96 => total * (1.0 + u),
            97 => 0.0,
            98 => -u,
            _ => f64::NAN,
        }
    }

    /// `None` when the kernel's result matches the reference bit for bit
    /// (the same flows, or the same error), else the first difference.
    fn first_difference(
        got: &Result<(), GameError>,
        out: &[f64],
        want: &Result<Vec<f64>, GameError>,
    ) -> Option<String> {
        match (got, want) {
            (Ok(()), Ok(want)) if out.len() != want.len() => {
                Some(format!("{} flows, want {}", out.len(), want.len()))
            }
            (Ok(()), Ok(want)) => out
                .iter()
                .zip(want)
                .position(|(g, w)| g.to_bits() != w.to_bits())
                .map(|i| format!("flow {i} is {:e}, want {:e}", out[i], want[i])),
            (Err(g), Err(w)) if format!("{g:?}") == format!("{w:?}") => None,
            _ => Some(format!("got {got:?}, want {:?}", want.as_ref().map(|_| ()))),
        }
    }

    thread_local! {
        /// One kernel scratch shared by every case of the oracle test,
        /// so warm, stale and length-changing start orders all occur.
        static ORACLE_SCRATCH: RefCell<(WaterFillScratch, Vec<f64>)> =
            RefCell::new((WaterFillScratch::default(), Vec::new()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Each case solves one rate vector four times through the shared
        /// scratch: from whatever order the previous case left (rebuilt
        /// when the length changed), from its own order (fully warm),
        /// after a small jitter (nearly warm), and after a rotation of the
        /// rates (stale).
        #[test]
        fn kernel_matches_the_reference_bitwise(
            n in prop_oneof![1usize..=20, 21usize..=300],
            scale in prop_oneof![0.01f64..1.0, 1.0f64..1000.0],
            draws in prop::collection::vec((0u32..100, 0.0f64..1.0), 300),
            demand_kind in 0u32..100,
            demand_u in 0.0f64..1.0,
            jitter in prop::collection::vec(-1e-6f64..1e-6, 300),
            rotation in 1usize..300,
        ) {
            let mut rates: Vec<f64> = Vec::with_capacity(n);
            for &(kind, u) in &draws[..n] {
                let a = case_rate(scale, kind, u, &rates);
                rates.push(a);
            }
            let total: f64 = rates.iter().filter(|a| a.is_finite() && **a > 0.0).sum();
            let demand = case_demand(total, demand_kind, demand_u);
            let jittered: Vec<f64> =
                rates.iter().zip(&jitter).map(|(a, e)| a * (1.0 + e)).collect();
            let mut rotated = rates.clone();
            rotated.rotate_left(rotation % n);
            let starts = [
                ("carried", &rates),
                ("warm", &rates),
                ("jittered", &jittered),
                ("rotated", &rotated),
            ];
            let mismatch = ORACLE_SCRATCH.with(|cell| {
                let (scratch, out) = &mut *cell.borrow_mut();
                starts.into_iter().find_map(|(label, rates)| {
                    let got = water_fill_flows_into(rates, demand, scratch, out);
                    let want = reference_water_fill(rates, demand);
                    first_difference(&got, out, &want)
                        .map(|diff| format!("{label}: n {n}, demand {demand:e}: {diff}"))
                })
            });
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }
    }

    #[test]
    fn single_computer_takes_everything() {
        let flows = water_fill_flows(&[10.0], 4.0).unwrap();
        assert!((flows[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn homogeneous_computers_split_evenly() {
        let flows = water_fill_flows(&[10.0, 10.0, 10.0, 10.0], 8.0).unwrap();
        for &x in &flows {
            assert!((x - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn light_demand_uses_only_fast_computers() {
        // With tiny demand, slow computers should get nothing: their pure
        // service time is worse than the queueing at the fast one.
        let flows = water_fill_flows(&[100.0, 1.0], 0.5).unwrap();
        assert!(flows[0] > 0.0);
        assert_eq!(flows[1], 0.0);
    }

    #[test]
    fn heavy_demand_spills_to_slow_computers() {
        let flows = water_fill_flows(&[100.0, 1.0], 100.4).unwrap();
        assert!(flows[1] > 0.0);
        let sum: f64 = flows.iter().sum();
        assert!((sum - 100.4).abs() < 1e-9);
    }

    #[test]
    fn conservation_and_stability_hold() {
        let rates = [10.0, 20.0, 50.0, 100.0];
        for &d in &[1.0, 30.0, 90.0, 179.0] {
            let flows = water_fill_flows(&rates, d).unwrap();
            let sum: f64 = flows.iter().sum();
            assert!((sum - d).abs() < 1e-9, "demand {d}");
            for (&x, &a) in flows.iter().zip(&rates) {
                assert!(x >= 0.0 && x < a, "demand {d}: flow {x} vs rate {a}");
            }
            assert!(
                satisfies_kkt(&rates, &flows, 1e-6),
                "KKT fails at demand {d}"
            );
        }
    }

    #[test]
    fn order_independence() {
        // The solution must not depend on input ordering.
        let a = water_fill_flows(&[10.0, 20.0, 50.0], 40.0).unwrap();
        let b = water_fill_flows(&[50.0, 10.0, 20.0], 40.0).unwrap();
        assert!((a[0] - b[1]).abs() < 1e-12);
        assert!((a[1] - b[2]).abs() < 1e-12);
        assert!((a[2] - b[0]).abs() < 1e-12);
    }

    #[test]
    fn closed_form_two_servers() {
        // Two servers, both used: x_i = a_i - t sqrt(a_i),
        // t = (a1 + a2 - d)/(sqrt(a1) + sqrt(a2)).
        let (a1, a2, d) = (9.0_f64, 4.0_f64, 7.0);
        let t = (a1 + a2 - d) / (a1.sqrt() + a2.sqrt());
        let flows = water_fill_flows(&[a1, a2], d).unwrap();
        assert!((flows[0] - (a1 - t * a1.sqrt())).abs() < 1e-12);
        assert!((flows[1] - (a2 - t * a2.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn beats_naive_splits() {
        // Optimality sanity: water-filling is no worse than proportional
        // or equal splits across a range of demands.
        let rates = [7.0, 13.0, 29.0, 61.0];
        let total: f64 = rates.iter().sum();
        for &d in &[5.0, 25.0, 60.0, 100.0] {
            let opt = water_fill_flows(&rates, d).unwrap();
            let c_opt = split_cost(&rates, &opt);
            let prop: Vec<f64> = rates.iter().map(|a| d * a / total).collect();
            let equal: Vec<f64> = rates.iter().map(|_| d / 4.0).collect();
            assert!(c_opt <= split_cost(&rates, &prop) + 1e-12);
            assert!(c_opt <= split_cost(&rates, &equal) + 1e-12);
        }
    }

    #[test]
    fn infeasible_demand_is_rejected() {
        assert!(matches!(
            water_fill_flows(&[1.0, 2.0], 3.0),
            Err(GameError::InfeasibleBestReply { .. })
        ));
        assert!(matches!(
            water_fill_flows(&[1.0, 2.0], 5.0),
            Err(GameError::InfeasibleBestReply { .. })
        ));
        assert!(water_fill_flows(&[1.0, 2.0], 2.999).is_ok());
    }

    #[test]
    fn bad_demand_and_rates_are_rejected() {
        assert!(water_fill_flows(&[1.0], 0.0).is_err());
        assert!(water_fill_flows(&[1.0], -1.0).is_err());
        assert!(water_fill_flows(&[1.0], f64::NAN).is_err());
        assert!(water_fill_flows(&[f64::NAN], 0.5).is_err());
    }

    #[test]
    fn nonpositive_rates_are_skipped() {
        let flows = water_fill_flows(&[10.0, -5.0, 0.0, 10.0], 4.0).unwrap();
        assert_eq!(flows[1], 0.0);
        assert_eq!(flows[2], 0.0);
        assert!((flows[0] - 2.0).abs() < 1e-12);
        assert!((flows[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn available_rates_subtract_other_users_only() {
        let model = SystemModel::new(vec![10.0, 10.0], vec![4.0, 2.0]).unwrap();
        let profile = StrategyProfile::new(vec![
            Strategy::new(vec![0.5, 0.5]).unwrap(),
            Strategy::new(vec![1.0, 0.0]).unwrap(),
        ])
        .unwrap();
        // User 0 sees mu minus user 1's flow: [10-2, 10-0].
        let a0 = available_rates(&model, &profile, 0).unwrap();
        assert!((a0[0] - 8.0).abs() < 1e-12);
        assert!((a0[1] - 10.0).abs() < 1e-12);
        // User 1 sees mu minus user 0's flow: [10-2, 10-2].
        let a1 = available_rates(&model, &profile, 1).unwrap();
        assert!((a1[0] - 8.0).abs() < 1e-12);
        assert!((a1[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn best_reply_favors_the_faster_computer() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = StrategyProfile::replicated(Strategy::uniform(2), 2).unwrap();
        let reply = best_reply(&model, &profile, 0).unwrap();
        assert!(reply.fraction(1) > reply.fraction(0));
    }

    #[test]
    fn best_reply_is_feasible_and_kkt_optimal() {
        let model = SystemModel::new(vec![10.0, 20.0, 50.0], vec![20.0, 30.0]).unwrap();
        let profile = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        for j in 0..2 {
            let br = best_reply(&model, &profile, j).unwrap();
            let sum: f64 = br.fractions().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            let rates = available_rates(&model, &profile, j).unwrap();
            let flows: Vec<f64> = br
                .fractions()
                .iter()
                .map(|s| s * model.user_rate(j))
                .collect();
            assert!(satisfies_kkt(&rates, &flows, 1e-6));
        }
    }

    #[test]
    fn best_reply_improves_cost() {
        use crate::response::user_response_time;
        let model = SystemModel::new(vec![10.0, 20.0, 50.0], vec![20.0, 30.0]).unwrap();
        let mut profile = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        let before = user_response_time(&model, &profile, 0).unwrap();
        let br = best_reply(&model, &profile, 0).unwrap();
        profile.set_strategy(0, br).unwrap();
        let after = user_response_time(&model, &profile, 0).unwrap();
        assert!(after <= before + 1e-12, "best reply must not worsen cost");
        assert!(after < before, "uniform split is not optimal here");
    }

    #[test]
    fn infeasible_best_reply_names_user() {
        // User 1 saturates both computers so user 0 has nothing left.
        let model = SystemModel::new(vec![5.0, 5.0], vec![4.0, 5.9]).unwrap();
        let profile = StrategyProfile::new(vec![
            Strategy::uniform(2),
            Strategy::new(vec![0.85, 0.15]).unwrap(),
        ])
        .unwrap();
        // User 1 puts 5.015 on computer 0 (rate 5): a_0 < 0 for user 0,
        // leaving only computer 1 with a_1 = 5 - 0.885 ~ 4.1 >= 4... make
        // it tighter: demand 4 vs available ~4.115 is feasible, so drive
        // user 1 harder.
        let mut profile = profile;
        profile
            .set_strategy(1, Strategy::new(vec![0.5, 0.5]).unwrap())
            .unwrap();
        // a for user 0 = [5 - 2.95, 5 - 2.95] = [2.05, 2.05]; total 4.1
        // barely exceeds 4 -> feasible.
        assert!(best_reply(&model, &profile, 0).is_ok());
        // Now rates [4.9, 1.0], user1 = 4.8 spread evenly saturates.
        let model = SystemModel::new(vec![3.0, 3.0], vec![4.0, 1.9]).unwrap();
        let profile =
            StrategyProfile::new(vec![Strategy::uniform(2), Strategy::uniform(2)]).unwrap();
        // a for user 0 = [3-0.95, 3-0.95] = [2.05, 2.05], total 4.1 > 4 ok;
        // verify the error path with a direct kernel call instead.
        assert!(best_reply(&model, &profile, 0).is_ok());
        match water_fill_flows(&[1.0, 1.5], 4.0) {
            Err(GameError::InfeasibleBestReply {
                available, demand, ..
            }) => {
                assert!((available - 2.5).abs() < 1e-12);
                assert_eq!(demand, 4.0);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn near_saturation_demand_never_saturates_a_server() {
        // Demand a few ulps below total capacity: the prefix formula
        // yields t ≈ 0 and the residual fold-in used to be able to push
        // the fastest server to (or past) its rate, making 1/(a − x)
        // infinite or negative. The guard keeps every flow strictly
        // inside its rate and the split cost finite.
        let rates = [10.0, 20.0, 50.0];
        let total: f64 = rates.iter().sum();
        for &demand in &[
            total * (1.0 - 1e-15),
            total * (1.0 - 1e-12),
            total - f64::EPSILON * total,
        ] {
            let flows = water_fill_flows(&rates, demand).unwrap();
            for (&x, &a) in flows.iter().zip(&rates) {
                assert!(x >= 0.0, "negative flow {x}");
                assert!(x < a, "saturating flow {x} on rate {a}");
                assert!(
                    a - x >= 0.5 * SATURATION_GUARD * a,
                    "headroom {:.3e} below guard on rate {a}",
                    a - x
                );
            }
            let cost = split_cost(&rates, &flows);
            assert!(cost.is_finite(), "infinite cost at demand {demand}");
            // Conservation drift stays within the guard sliver.
            let sum: f64 = flows.iter().sum();
            assert!(
                (sum - demand).abs() <= SATURATION_GUARD * total + 1e-9,
                "drift {:.3e}",
                (sum - demand).abs()
            );
        }
    }

    #[test]
    fn rho_0999_equilibrium_stays_finite_and_converges() {
        // Regression: at 99.9% utilization the per-sweep best replies
        // walk close to saturation; the guard must keep response times
        // finite and must not perturb the equilibrium itself (its
        // legitimate headroom is ~6e-4 of each rate, far outside the
        // guard sliver).
        use crate::model::SystemModel;
        use crate::nash::{Initialization, NashSolver};
        use crate::response::user_response_time;
        let model = SystemModel::table1_system(0.999).unwrap();
        let outcome = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-6)
            .max_iterations(20_000)
            .solve(&model)
            .unwrap();
        assert!(outcome.converged());
        let profile = outcome.profile();
        for j in 0..model.num_users() {
            let d = user_response_time(&model, profile, j).unwrap();
            assert!(d.is_finite() && d > 0.0, "user {j} response {d}");
        }
    }

    #[test]
    fn scratch_variant_is_bit_identical_and_reusable() {
        let mut scratch = WaterFillScratch::default();
        let mut out = Vec::new();
        // Reuse the same scratch and output buffer across differently
        // shaped calls; every result must match the allocating kernel
        // bit for bit.
        let cases: &[(&[f64], f64)] = &[
            (&[10.0, 20.0, 50.0], 40.0),
            (&[100.0, 1.0], 0.5),
            (&[10.0, -5.0, 0.0, 10.0], 4.0),
            (&[7.0, 13.0, 29.0, 61.0, 3.0, 91.0], 150.0),
            (&[10.0], 4.0),
        ];
        for &(rates, demand) in cases {
            let fresh = water_fill_flows(rates, demand).unwrap();
            water_fill_flows_into(rates, demand, &mut scratch, &mut out).unwrap();
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "rates {rates:?} demand {demand}");
            }
        }
        // Errors propagate identically too.
        assert!(water_fill_flows_into(&[1.0, 2.0], 3.0, &mut scratch, &mut out).is_err());
        assert!(water_fill_flows_into(&[1.0], f64::NAN, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn kkt_rejects_bad_splits() {
        let rates = [10.0, 10.0];
        // Lopsided split of demand 8 on identical servers is not optimal.
        assert!(!satisfies_kkt(&rates, &[7.0, 1.0], 1e-6));
        // Zero vector trivially satisfies (no used servers).
        assert!(satisfies_kkt(&rates, &[0.0, 0.0], 1e-6));
        // Saturated used server fails.
        assert!(!satisfies_kkt(&rates, &[10.0, 0.0], 1e-6));
    }
}
