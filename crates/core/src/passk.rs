//! The unbiased pass@k estimator used throughout the paper's evaluation.

use serde::{Deserialize, Serialize};

/// Unbiased pass@k for one problem: `1 - C(n-c, k) / C(n, k)`.
///
/// `n` is the number of sampled solutions, `c` how many were correct, `k` the budget.
///
/// # Examples
///
/// ```
/// let p = assertsolver::pass_at_k(20, 10, 1);
/// assert!((p - 0.5).abs() < 1e-9);
/// assert_eq!(assertsolver::pass_at_k(20, 0, 5), 0.0);
/// assert_eq!(assertsolver::pass_at_k(20, 20, 5), 1.0);
/// ```
pub fn pass_at_k(n: usize, c: usize, k: usize) -> f64 {
    if c == 0 {
        return 0.0;
    }
    if n.saturating_sub(c) < k {
        return 1.0;
    }
    // 1 - prod_{i=0..k-1} (n - c - i) / (n - i)
    let mut failure = 1.0f64;
    for i in 0..k {
        failure *= (n - c - i) as f64 / (n - i) as f64;
    }
    1.0 - failure
}

/// pass@1 and pass@5 for a set of problems.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PassK {
    /// Expected pass@1 across problems.
    pub pass1: f64,
    /// Expected pass@5 across problems.
    pub pass5: f64,
    /// Number of problems aggregated.
    pub problems: usize,
}

impl PassK {
    /// Aggregates `(n, c)` pairs — one per problem — into mean pass@1/pass@5.
    pub(crate) fn from_counts(counts: &[(usize, usize)]) -> Self {
        if counts.is_empty() {
            return Self::default();
        }
        let pass1: f64 = counts.iter().map(|(n, c)| pass_at_k(*n, *c, 1)).sum();
        let pass5: f64 = counts.iter().map(|(n, c)| pass_at_k(*n, *c, 5)).sum();
        Self {
            pass1: pass1 / counts.len() as f64,
            pass5: pass5 / counts.len() as f64,
            problems: counts.len(),
        }
    }

    /// pass@1 as a percentage.
    pub fn pass1_percent(&self) -> f64 {
        self.pass1 * 100.0
    }

    /// pass@5 as a percentage.
    pub fn pass5_percent(&self) -> f64 {
        self.pass5 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_at_1_is_fraction_correct() {
        assert!((pass_at_k(20, 5, 1) - 0.25).abs() < 1e-12);
        assert!((pass_at_k(10, 10, 1) - 1.0).abs() < 1e-12);
        assert_eq!(pass_at_k(20, 0, 1), 0.0);
    }

    #[test]
    fn pass_at_5_upper_bounds_pass_at_1() {
        for c in 0..=20 {
            assert!(pass_at_k(20, c, 5) + 1e-12 >= pass_at_k(20, c, 1));
        }
    }

    #[test]
    fn certain_success_when_failures_fewer_than_k() {
        assert_eq!(pass_at_k(20, 18, 5), 1.0);
        assert_eq!(pass_at_k(5, 1, 5), 1.0);
    }

    #[test]
    fn aggregation_matches_manual_mean() {
        let counts = vec![(20, 20), (20, 0), (20, 10)];
        let agg = PassK::from_counts(&counts);
        assert!((agg.pass1 - (1.0 + 0.0 + 0.5) / 3.0).abs() < 1e-12);
        assert_eq!(agg.problems, 3);
        assert!(agg.pass5 >= agg.pass1);
        assert!((agg.pass1_percent() - agg.pass1 * 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregation_is_zero() {
        assert_eq!(PassK::from_counts(&[]), PassK::default());
    }
}
