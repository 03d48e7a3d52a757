//! Linear softmax policy with SFT (cross-entropy SGD) and DPO-style preference
//! updates.
//!
//! The AssertSolver training recipe is PT → SFT → DPO.  In this reproduction the
//! "model" is a pair of linear softmax policies (line localisation and fix ranking)
//! over program features; SFT is plain stochastic gradient descent on the
//! cross-entropy of the correct choice, and DPO is the pairwise preference update
//! obtained by differentiating the DPO loss for a linear policy (the log-ratio against
//! the frozen reference policy reduces to a score difference).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A linear softmax scorer over fixed-length feature vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    weights: Vec<f64>,
}

impl Policy {
    /// Creates a policy with all-zero weights (a uniform sampler).
    pub fn zeros(features: usize) -> Self {
        Self {
            weights: vec![0.0; features],
        }
    }

    /// Creates a policy with small deterministic pseudo-random weights, used for the
    /// untrained base model so its behaviour is noisy but reproducible.
    pub fn noisy(features: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 0.2 - 0.1
        };
        Self {
            weights: (0..features).map(|_| next()).collect(),
        }
    }

    /// Creates a policy from an explicit weight vector (used by the hand-tuned
    /// baseline surrogates).
    pub(crate) fn from_weights(weights: Vec<f64>) -> Self {
        Self { weights }
    }

    /// The current weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of features the policy expects.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` when the policy has no weights.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Raw score of one feature vector.
    pub(crate) fn score(&self, features: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(features.iter())
            .map(|(w, f)| w * f)
            .sum()
    }

    /// Softmax distribution over candidates at the given temperature.
    ///
    /// Temperatures close to zero approach greedy argmax selection; the evaluation
    /// uses 0.2 as in the paper.
    pub fn distribution(&self, candidates: &[Vec<f64>], temperature: f64) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let t = temperature.max(1e-3);
        let scores: Vec<f64> = candidates.iter().map(|c| self.score(c) / t).collect();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Samples a candidate index from a [`Policy::distribution`]: one uniform
    /// roll, then the first index whose cumulative probability reaches it (the
    /// last index if round-off leaves the roll above the total, 0 if `dist` is
    /// empty).  A sampler that computes the distribution once may draw from it
    /// any number of times.
    pub(crate) fn sample_from(dist: &[f64], rng: &mut StdRng) -> usize {
        let roll: f64 = rng.gen();
        let mut cumulative = 0.0;
        for (i, p) in dist.iter().enumerate() {
            cumulative += p;
            if roll <= cumulative {
                return i;
            }
        }
        dist.len().saturating_sub(1)
    }

    /// One SFT step: cross-entropy gradient pushing probability mass onto the correct
    /// candidate.
    pub(crate) fn sft_step(&mut self, candidates: &[Vec<f64>], correct: usize, learning_rate: f64) {
        if candidates.is_empty() || correct >= candidates.len() {
            return;
        }
        let probabilities = self.distribution(candidates, 1.0);
        for (i, candidate) in candidates.iter().enumerate() {
            let indicator = f64::from(i == correct);
            let gradient = indicator - probabilities[i];
            for (w, f) in self.weights.iter_mut().zip(candidate.iter()) {
                *w += learning_rate * gradient * f;
            }
        }
    }

    /// One DPO step on a (chosen, rejected) feature pair.
    ///
    /// For a linear policy the DPO objective reduces to a logistic loss on
    /// `beta * (margin - reference_margin)`; `reference_margin` is the margin of the
    /// frozen SFT policy on the same pair.
    pub(crate) fn dpo_step(
        &mut self,
        chosen: &[f64],
        rejected: &[f64],
        reference_margin: f64,
        beta: f64,
        learning_rate: f64,
    ) {
        let margin = self.score(chosen) - self.score(rejected);
        let z = beta * (margin - reference_margin);
        let sigma = 1.0 / (1.0 + z.exp());
        for ((w, c), r) in self
            .weights
            .iter_mut()
            .zip(chosen.iter())
            .zip(rejected.iter())
        {
            *w += learning_rate * beta * sigma * (c - r);
        }
    }
}

/// Sampling before the distribution was computed once per plan, kept as the
/// oracle of `plan::tests`.
#[cfg(test)]
impl Policy {
    /// Samples a candidate index from the softmax distribution.
    pub fn sample(&self, candidates: &[Vec<f64>], temperature: f64, rng: &mut StdRng) -> usize {
        let dist = self.distribution(candidates, temperature);
        let roll: f64 = rng.gen();
        let mut cumulative = 0.0;
        for (i, p) in dist.iter().enumerate() {
            cumulative += p;
            if roll <= cumulative {
                return i;
            }
        }
        dist.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy_examples() -> Vec<(Vec<Vec<f64>>, usize)> {
        // Candidate feature = [bias, signal]; the correct candidate always has
        // signal = 1.
        let mut out = Vec::new();
        for i in 0..32 {
            let correct = i % 3;
            let candidates: Vec<Vec<f64>> =
                (0..3).map(|j| vec![1.0, f64::from(j == correct)]).collect();
            out.push((candidates, correct));
        }
        out
    }

    /// Share of the examples whose label scores strictly highest.
    fn greedy_accuracy(policy: &Policy, examples: &[(Vec<Vec<f64>>, usize)]) -> f64 {
        let correct = examples
            .iter()
            .filter(|(candidates, label)| {
                let best = policy.score(&candidates[*label]);
                let mut others = candidates.iter().enumerate().filter(|(i, _)| i != label);
                others.all(|(_, c)| policy.score(c) < best)
            })
            .count();
        correct as f64 / examples.len() as f64
    }

    #[test]
    fn sft_learns_a_separable_problem() {
        let mut policy = Policy::zeros(2);
        let examples = toy_examples();
        assert!(greedy_accuracy(&policy, &examples) < 0.7);
        for _ in 0..50 {
            for (candidates, correct) in &examples {
                policy.sft_step(candidates, *correct, 0.5);
            }
        }
        assert_eq!(greedy_accuracy(&policy, &examples), 1.0);
    }

    #[test]
    fn dpo_increases_margin_towards_chosen() {
        let mut policy = Policy::zeros(2);
        let chosen = vec![1.0, 1.0];
        let rejected = vec![1.0, 0.0];
        let before = policy.score(&chosen) - policy.score(&rejected);
        for _ in 0..20 {
            policy.dpo_step(&chosen, &rejected, 0.0, 0.1, 0.5);
        }
        let after = policy.score(&chosen) - policy.score(&rejected);
        assert!(after > before);
    }

    #[test]
    fn distribution_sums_to_one_and_respects_temperature() {
        let policy = Policy::noisy(3, 7);
        let candidates = vec![
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![1.0, 0.5, 0.5],
        ];
        let dist = policy.distribution(&candidates, 0.2);
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Lower temperature concentrates mass on the argmax.
        let sharp = policy.distribution(&candidates, 0.05);
        let smooth = policy.distribution(&candidates, 5.0);
        let max_sharp = sharp.iter().cloned().fold(0.0, f64::max);
        let max_smooth = smooth.iter().cloned().fold(0.0, f64::max);
        assert!(max_sharp >= max_smooth);
    }

    #[test]
    fn sampling_is_reproducible_per_seed() {
        let policy = Policy::noisy(2, 3);
        let candidates = vec![vec![1.0, 0.2], vec![1.0, 0.9], vec![1.0, 0.5]];
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..10)
                .map(|_| policy.sample(&candidates, 0.5, &mut rng))
                .collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..10)
                .map(|_| policy.sample(&candidates, 0.5, &mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    /// One distribution drawn from many times consumes the RNG and picks the
    /// indices that recomputing it per draw does.
    #[test]
    fn sampling_from_one_distribution_matches_sampling_per_draw() {
        let policy = Policy::noisy(3, 11);
        let candidates: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![1.0, f64::from(i) / 7.0, f64::from(i % 3)])
            .collect();
        for t in [0.001, 0.2, 1.0, 50.0] {
            for candidates in [&candidates[..], &candidates[..1], &[]] {
                let dist = policy.distribution(candidates, t);
                let (mut once, mut per_draw) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
                for _ in 0..200 {
                    assert_eq!(
                        Policy::sample_from(&dist, &mut once),
                        policy.sample(candidates, t, &mut per_draw)
                    );
                }
                assert_eq!(once.gen::<u64>(), per_draw.gen::<u64>());
            }
        }
    }

    #[test]
    fn noisy_policies_differ_by_seed_but_are_deterministic() {
        assert_eq!(Policy::noisy(4, 1), Policy::noisy(4, 1));
        assert_ne!(Policy::noisy(4, 1), Policy::noisy(4, 2));
    }

    #[test]
    fn empty_candidates_are_handled() {
        let policy = Policy::zeros(2);
        assert!(policy.distribution(&[], 1.0).is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(policy.sample(&[], 1.0, &mut rng), 0);
    }
}
