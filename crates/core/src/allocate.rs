//! Node allocators: distribute `M` nodes over `N` posts minimizing
//! `Σ α_i / m_i` subject to `Σ m_i = M`, `1 ≤ m_i ≤ cap`.
//!
//! This is the paper's Phase IV subproblem. Two solvers are provided:
//!
//! - [`lagrange_allocate`] — the paper's method: the continuous optimum
//!   from Lagrange multipliers (`m_i ∝ √α_i`), rounding the smallest value
//!   and recursing on the rest.
//! - [`greedy_allocate`] — marginal-gain greedy, which is provably optimal
//!   for this separable convex objective (each post's cost `α_i/m_i` has
//!   decreasing marginal returns, so the exchange argument applies).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

fn check_inputs(weights: &[f64], total: u32, cap: Option<u32>) {
    let n = weights.len();
    assert!(n > 0, "at least one post required");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    assert!(
        total as usize >= n,
        "need at least one node per post: {total} nodes for {n} posts"
    );
    if let Some(cap) = cap {
        assert!(cap >= 1, "cap must allow one node per post");
        assert!(
            u64::from(cap) * n as u64 >= u64::from(total),
            "cap {cap} cannot accommodate {total} nodes over {n} posts"
        );
    }
}

/// The paper's Lagrange-multipliers allocation with iterative rounding.
///
/// Each round solves the continuous relaxation over the still-undecided
/// posts (`m_i = B·√α_i / Σ√α_j` for remaining budget `B`), then commits
/// the *smallest* `m_i`, rounded to the nearest feasible integer (at least
/// 1, at most `cap`, and leaving room for the other posts). Ties break to
/// the lowest post index, keeping the algorithm deterministic.
///
/// # Panics
///
/// Panics if `weights` is empty or contains negatives/NaN, if
/// `total < weights.len()`, or if the cap cannot accommodate `total`.
///
/// # Examples
///
/// ```
/// use wrsn_core::lagrange_allocate;
/// // A hub with 9x the workload gets ~3x the nodes (square-root rule).
/// let m = lagrange_allocate(&[9.0, 1.0], 8, None);
/// assert_eq!(m.iter().sum::<u32>(), 8);
/// assert_eq!(m, vec![6, 2]);
/// ```
#[must_use]
pub fn lagrange_allocate(weights: &[f64], total: u32, cap: Option<u32>) -> Vec<u32> {
    check_inputs(weights, total, cap);
    let n = weights.len();
    let cap = cap.unwrap_or(total);
    let mut result = vec![0u32; n];
    let roots: Vec<f64> = weights.iter().map(|w| w.sqrt()).collect();
    // Undecided posts in increasing index order, so the first strict
    // minimum below is the lowest-index tie.
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut budget = total;
    while !remaining.is_empty() {
        let k = remaining.len();
        if k == 1 {
            result[remaining[0]] = budget;
            break;
        }
        let sqrt_sum: f64 = remaining.iter().map(|&i| roots[i]).sum();
        // Continuous optimum over the remaining posts; with all-zero
        // weights any split is optimal, so fall back to uniform.
        let share = |i: usize| {
            if sqrt_sum > 0.0 {
                f64::from(budget) * roots[i] / sqrt_sum
            } else {
                f64::from(budget) / k as f64
            }
        };
        let (mut pos, mut smallest) = (0, share(remaining[0]));
        for (q, &i) in remaining.iter().enumerate().skip(1) {
            let s = share(i);
            if s.total_cmp(&smallest).is_lt() {
                (pos, smallest) = (q, s);
            }
        }
        let j = remaining[pos];
        // Round to nearest, then clamp to feasibility: at least 1, at
        // most cap, and the other k-1 posts still need [1, cap] each.
        let others = (k - 1) as u32;
        let lo = 1u32.max(budget.saturating_sub(others * cap));
        let hi = cap.min(budget - others);
        let rounded = (smallest.round() as i64).clamp(i64::from(lo), i64::from(hi)) as u32;
        result[j] = rounded;
        budget -= rounded;
        remaining.remove(pos);
    }
    debug_assert_eq!(
        result.iter().map(|&m| u64::from(m)).sum::<u64>(),
        u64::from(total)
    );
    result
}

#[derive(Debug)]
struct Gain {
    delta: f64,
    post: usize,
}

impl PartialEq for Gain {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Gain {}
impl Ord for Gain {
    fn cmp(&self, other: &Self) -> Ordering {
        // Larger gain first; ties to the lower post index.
        self.delta
            .total_cmp(&other.delta)
            .then_with(|| other.post.cmp(&self.post))
    }
}
impl PartialOrd for Gain {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Optimal integer allocation by marginal-gain greedy.
///
/// Starts from one node per post and repeatedly gives the next node to the
/// post with the largest cost decrease `α_i/m_i − α_i/(m_i+1)`. Because
/// each post's marginal gains are decreasing in `m_i`, the greedy schedule
/// is exactly optimal for the separable convex objective.
///
/// # Panics
///
/// Same conditions as [`lagrange_allocate`].
///
/// # Examples
///
/// ```
/// use wrsn_core::greedy_allocate;
/// let m = greedy_allocate(&[9.0, 1.0], 8, Some(5));
/// assert_eq!(m, vec![5, 3]); // capped hub spills to the other post
/// ```
#[must_use]
pub fn greedy_allocate(weights: &[f64], total: u32, cap: Option<u32>) -> Vec<u32> {
    check_inputs(weights, total, cap);
    let n = weights.len();
    let cap = cap.unwrap_or(total);
    let mut m = vec![1u32; n];
    let gain = |w: f64, m: u32| w / f64::from(m) - w / f64::from(m + 1);
    let mut heap: BinaryHeap<Gain> = (0..n)
        .filter(|&i| m[i] < cap)
        .map(|i| Gain {
            delta: gain(weights[i], 1),
            post: i,
        })
        .collect();
    for _ in 0..(total - n as u32) {
        let g = heap.pop().expect("cap capacity was validated");
        m[g.post] += 1;
        if m[g.post] < cap {
            heap.push(Gain {
                delta: gain(weights[g.post], m[g.post]),
                post: g.post,
            });
        }
    }
    m
}

/// Optimal integer allocation for an **arbitrary concave** charging-gain
/// curve: minimizes `Σ α_i / η(m_i)` subject to `Σ m_i = total`,
/// `1 ≤ m_i ≤ cap`.
///
/// [`greedy_allocate`] is the special case `η(m) = m` (the paper's
/// linear-gain assumption). When an instance carries a sub-linear or
/// measured gain curve, Phase IV must allocate against the *actual*
/// curve — this is the allocator RFH uses then. Greedy remains exactly
/// optimal as long as `η` is non-decreasing and concave, which makes
/// `1/η` convex and per-post marginal gains non-increasing (the classic
/// exchange argument).
///
/// # Panics
///
/// Panics on the same input conditions as [`lagrange_allocate`], or if
/// `efficiency` is not positive and non-decreasing over the probed
/// range.
///
/// # Examples
///
/// ```
/// use wrsn_core::{greedy_allocate, greedy_allocate_by_efficiency};
/// // With a linear curve the generalized form reduces to the special one.
/// let a = greedy_allocate(&[9.0, 1.0], 8, None);
/// let b = greedy_allocate_by_efficiency(&[9.0, 1.0], 8, None, |m| f64::from(m));
/// assert_eq!(a, b);
/// ```
#[must_use]
pub fn greedy_allocate_by_efficiency(
    weights: &[f64],
    total: u32,
    cap: Option<u32>,
    efficiency: impl Fn(u32) -> f64,
) -> Vec<u32> {
    check_inputs(weights, total, cap);
    let n = weights.len();
    let cap = cap.unwrap_or(total);
    let eff = |m: u32| -> f64 {
        let e = efficiency(m);
        assert!(
            e > 0.0 && e.is_finite(),
            "efficiency({m}) must be positive and finite, got {e}"
        );
        e
    };
    let gain = |w: f64, m: u32| {
        let (lo, hi) = (eff(m), eff(m + 1));
        assert!(hi >= lo, "efficiency must be non-decreasing at m={m}");
        w / lo - w / hi
    };
    let mut m = vec![1u32; n];
    let mut heap: BinaryHeap<Gain> = (0..n)
        .filter(|&i| m[i] < cap)
        .map(|i| Gain {
            delta: gain(weights[i], 1),
            post: i,
        })
        .collect();
    for _ in 0..(total - n as u32) {
        let g = heap.pop().expect("cap capacity was validated");
        m[g.post] += 1;
        if m[g.post] < cap {
            heap.push(Gain {
                delta: gain(weights[g.post], m[g.post]),
                post: g.post,
            });
        }
    }
    m
}

/// The objective value `Σ α_i / m_i` of an allocation — exposed for tests
/// and reporting.
#[cfg(test)]
#[must_use]
pub(crate) fn allocation_cost(weights: &[f64], m: &[u32]) -> f64 {
    weights
        .iter()
        .zip(m)
        .map(|(&w, &mi)| w / f64::from(mi))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimal allocation for small instances.
    fn brute(weights: &[f64], total: u32, cap: Option<u32>) -> f64 {
        fn rec(
            weights: &[f64],
            idx: usize,
            left: u32,
            cap: u32,
            current: &mut Vec<u32>,
            best: &mut f64,
        ) {
            let n = weights.len();
            if idx == n - 1 {
                if left >= 1 && left <= cap {
                    current.push(left);
                    *best = best.min(allocation_cost(weights, current));
                    current.pop();
                }
                return;
            }
            let remaining_posts = (n - idx - 1) as u32;
            for v in 1..=cap.min(left.saturating_sub(remaining_posts)) {
                current.push(v);
                rec(weights, idx + 1, left - v, cap, current, best);
                current.pop();
            }
        }
        let mut best = f64::INFINITY;
        rec(
            weights,
            0,
            total,
            cap.unwrap_or(total),
            &mut Vec::new(),
            &mut best,
        );
        best
    }

    #[test]
    fn greedy_is_optimal_small_cases() {
        let cases: Vec<(Vec<f64>, u32, Option<u32>)> = vec![
            (vec![1.0, 1.0, 1.0], 7, None),
            (vec![9.0, 1.0], 8, None),
            (vec![5.0, 3.0, 1.0, 0.5], 12, None),
            (vec![10.0, 10.0, 0.0], 9, None),
            (vec![4.0, 1.0], 10, Some(6)),
            (vec![100.0, 1.0, 1.0], 9, Some(4)),
        ];
        for (w, total, cap) in cases {
            let m = greedy_allocate(&w, total, cap);
            assert_eq!(m.iter().sum::<u32>(), total);
            if let Some(c) = cap {
                assert!(m.iter().all(|&x| x <= c));
            }
            let got = allocation_cost(&w, &m);
            let want = brute(&w, total, cap);
            assert!(
                (got - want).abs() < 1e-9,
                "weights {w:?} total {total}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn lagrange_respects_budget_and_cap() {
        for (w, total, cap) in [
            (vec![1.0, 2.0, 3.0, 4.0], 20u32, None),
            (vec![9.0, 1.0], 8, None),
            (vec![0.0, 0.0, 5.0], 6, None),
            (vec![50.0, 1.0], 12, Some(7)),
        ] {
            let m = lagrange_allocate(&w, total, cap);
            assert_eq!(m.iter().sum::<u32>(), total, "weights {w:?}");
            assert!(m.iter().all(|&x| x >= 1));
            if let Some(c) = cap {
                assert!(m.iter().all(|&x| x <= c));
            }
        }
    }

    #[test]
    fn lagrange_square_root_proportionality() {
        // α = (9, 1): continuous optimum m = (7.5·3/4, 7.5·1/4)… with
        // total 8 gives shares (6, 2).
        assert_eq!(lagrange_allocate(&[9.0, 1.0], 8, None), vec![6, 2]);
    }

    #[test]
    fn lagrange_close_to_greedy_quality() {
        // The paper's rounding can be slightly suboptimal but must stay
        // within a few percent on benign inputs.
        let w = [12.0, 7.0, 3.0, 1.0, 0.2];
        for total in [5u32, 8, 13, 40] {
            let lg = lagrange_allocate(&w, total, None);
            let gr = greedy_allocate(&w, total, None);
            let lc = allocation_cost(&w, &lg);
            let gc = allocation_cost(&w, &gr);
            assert!(lc >= gc - 1e-12);
            assert!(
                lc <= gc * 1.10,
                "total {total}: lagrange {lc} vs greedy {gc}"
            );
        }
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let m = lagrange_allocate(&[0.0, 0.0, 0.0], 9, None);
        assert_eq!(m.iter().sum::<u32>(), 9);
        assert!(m.iter().all(|&x| x >= 1));
        let g = greedy_allocate(&[0.0, 0.0, 0.0], 9, None);
        assert_eq!(g.iter().sum::<u32>(), 9);
    }

    #[test]
    fn exact_fit_gives_one_each() {
        assert_eq!(greedy_allocate(&[3.0, 1.0], 2, None), vec![1, 1]);
        assert_eq!(lagrange_allocate(&[3.0, 1.0], 2, None), vec![1, 1]);
    }

    #[test]
    fn single_post_takes_everything() {
        assert_eq!(greedy_allocate(&[2.0], 5, None), vec![5]);
        assert_eq!(lagrange_allocate(&[2.0], 5, None), vec![5]);
    }

    #[test]
    fn cap_saturation_spills_over() {
        let m = greedy_allocate(&[100.0, 1.0], 10, Some(5));
        assert_eq!(m, vec![5, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one node per post")]
    fn too_small_budget_panics() {
        let _ = greedy_allocate(&[1.0, 1.0], 1, None);
    }

    #[test]
    #[should_panic(expected = "cannot accommodate")]
    fn infeasible_cap_panics() {
        let _ = lagrange_allocate(&[1.0, 1.0], 5, Some(2));
    }

    #[test]
    fn generalized_matches_linear_special_case() {
        for (w, total, cap) in [
            (vec![5.0, 3.0, 1.0], 10u32, None),
            (vec![100.0, 1.0], 12, Some(7)),
        ] {
            let a = greedy_allocate(&w, total, cap);
            let b = greedy_allocate_by_efficiency(&w, total, cap, |m| f64::from(m) * 0.01);
            assert_eq!(a, b, "eta scaling must not change decisions");
        }
    }

    #[test]
    fn generalized_is_optimal_for_sublinear_gain() {
        let eff = |m: u32| f64::from(m).powf(0.7);
        let brute_eff = |weights: &[f64], total: u32| -> f64 {
            // Enumerate all compositions for 3 posts.
            let mut best = f64::INFINITY;
            for a in 1..=total - 2 {
                for b in 1..=total - a - 1 {
                    let c = total - a - b;
                    let cost: f64 = weights
                        .iter()
                        .zip([a, b, c])
                        .map(|(&w, m)| w / eff(m))
                        .sum();
                    best = best.min(cost);
                }
            }
            best
        };
        for (w, total) in [(vec![7.0, 2.0, 1.0], 9u32), (vec![1.0, 1.0, 10.0], 12)] {
            let m = greedy_allocate_by_efficiency(&w, total, None, eff);
            let got: f64 = w.iter().zip(&m).map(|(&wi, &mi)| wi / eff(mi)).sum();
            let want = brute_eff(&w, total);
            assert!((got - want).abs() < 1e-9, "{w:?}/{total}: {got} vs {want}");
        }
    }

    #[test]
    fn generalized_with_flat_measured_tail_stops_wasting_nodes() {
        // Efficiency saturates at m = 3: extra nodes beyond 3 are useless,
        // so the allocator should spread instead of stacking one post.
        let samples = [1.0, 1.9, 2.5, 2.5, 2.5, 2.5];
        let eff = |m: u32| samples[(m as usize - 1).min(samples.len() - 1)];
        let m = greedy_allocate_by_efficiency(&[10.0, 10.0, 10.0], 9, None, eff);
        assert_eq!(m, vec![3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn generalized_rejects_decreasing_efficiency() {
        let _ = greedy_allocate_by_efficiency(&[1.0, 1.0], 4, None, |m| 1.0 / f64::from(m));
    }

    /// `lagrange_allocate` as it ran before taking each root once: the
    /// roots recomputed inside every share, every comparison.
    fn lagrange_reference(weights: &[f64], total: u32, cap: Option<u32>) -> Vec<u32> {
        let n = weights.len();
        let cap = cap.unwrap_or(total);
        let mut result = vec![0u32; n];
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut budget = total;
        while !remaining.is_empty() {
            let k = remaining.len();
            if k == 1 {
                result[remaining[0]] = budget;
                break;
            }
            let sqrt_sum: f64 = remaining.iter().map(|&i| weights[i].sqrt()).sum();
            let share = |i: usize| {
                if sqrt_sum > 0.0 {
                    f64::from(budget) * weights[i].sqrt() / sqrt_sum
                } else {
                    f64::from(budget) / k as f64
                }
            };
            let (pos, &j) = remaining
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| share(a).total_cmp(&share(b)).then_with(|| a.cmp(&b)))
                .unwrap();
            let others = (k - 1) as u32;
            let lo = 1u32.max(budget.saturating_sub(others * cap));
            let hi = cap.min(budget - others);
            let rounded = (share(j).round() as i64).clamp(i64::from(lo), i64::from(hi)) as u32;
            result[j] = rounded;
            budget -= rounded;
            remaining.remove(pos);
        }
        result
    }

    proptest::proptest! {
        /// Same allocation as the reference on weights drawn from a
        /// small pool (zeros and ties) or spread widely, with and
        /// without a cap.
        #[test]
        fn lagrange_matches_the_reference(
            picks in proptest::collection::vec((0usize..6, 0.0f64..1e4), 1..40),
            spare in 0u32..200,
            cap_slack in 0u32..5,
        ) {
            let pool = [0.0, 0.0, 1.0, 2.5, 2.5];
            let weights: Vec<f64> = picks
                .iter()
                .map(|&(k, w)| if k < pool.len() { pool[k] } else { w })
                .collect();
            let n = weights.len() as u32;
            let total = n + spare;
            // Slack 4 stands for no cap.
            let cap = (cap_slack < 4).then(|| total.div_ceil(n) + cap_slack);
            proptest::prop_assert_eq!(
                lagrange_allocate(&weights, total, cap),
                lagrange_reference(&weights, total, cap)
            );
        }
    }

    #[test]
    fn lagrange_matches_the_reference_on_ties_and_zeros() {
        for (w, total, cap) in [
            (vec![0.0; 5], 17u32, None),
            (vec![1.0; 6], 6, None),
            (vec![4.0, 0.0, 4.0, 0.0, 4.0], 23, Some(6)),
            (vec![9.0, 9.0, 1.0, 1.0], 12, Some(4)),
            (vec![1e-300, 0.0, 1e300], 9, None),
        ] {
            assert_eq!(
                lagrange_allocate(&w, total, cap),
                lagrange_reference(&w, total, cap),
                "{w:?} {total} {cap:?}"
            );
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Equal weights: both allocators must distribute deterministically.
        let a = greedy_allocate(&[1.0; 4], 6, None);
        let b = greedy_allocate(&[1.0; 4], 6, None);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<u32>(), 6);
        let c = lagrange_allocate(&[1.0; 4], 6, None);
        assert_eq!(c.iter().sum::<u32>(), 6);
    }
}
