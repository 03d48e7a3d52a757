//! Baseline repair engines standing in for the commercial and open-source LLMs the
//! paper compares against.
//!
//! The paper's comparison set (Claude-3.5, GPT-4, o1-preview, Deepseek-Coder-6.7b,
//! CodeLlama-7b, Llama-3.1-8b) cannot be called from this environment, so each is
//! replaced by a rule-based engine of increasing sophistication.  The mapping is a
//! documented substitution (see DESIGN.md): what matters for the reproduction is the
//! *relative ordering* — untuned open models near zero, strong general models in the
//! middle, iterative reasoning on top, and the domain-tuned AssertSolver above all.

use crate::features::CaseInput;
use crate::lm::NgramLm;
use crate::plan::{SamplingPlan, Softmax};
use crate::policy::Policy;
use crate::solver::{RepairModel, Response};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The baseline tiers, ordered from weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Uniform random line and fix choice — surrogate for Deepseek-Coder-6.7b (base).
    RandomGuess,
    /// Random choice restricted to assignment lines — surrogate for CodeLlama-7b.
    AssignmentGuess,
    /// Picks lines mentioning a failing-assertion signal — surrogate for Llama-3.1-8b.
    KeywordMatch,
    /// Hand-tuned heuristic scoring (assertion signals + conditionals) — surrogate for
    /// GPT-4.
    GeneralHeuristic,
    /// Adds cone-of-influence tracing and fix-type priors — surrogate for Claude-3.5.
    ConeAnalyst,
    /// Cone tracing plus an internal multi-candidate self-check pass — surrogate for
    /// o1-preview.
    IterativeReasoner,
}

impl BaselineKind {
    /// All baselines from weakest to strongest.
    pub fn all() -> [BaselineKind; 6] {
        [
            BaselineKind::RandomGuess,
            BaselineKind::AssignmentGuess,
            BaselineKind::KeywordMatch,
            BaselineKind::GeneralHeuristic,
            BaselineKind::ConeAnalyst,
            BaselineKind::IterativeReasoner,
        ]
    }

    /// The paper model this baseline stands in for.
    pub(crate) fn surrogate_for(&self) -> &'static str {
        match self {
            BaselineKind::RandomGuess => "Deepseek-Coder-6.7b",
            BaselineKind::AssignmentGuess => "CodeLlama-7b",
            BaselineKind::KeywordMatch => "Llama-3.1-8b",
            BaselineKind::GeneralHeuristic => "GPT-4",
            BaselineKind::ConeAnalyst => "Claude-3.5",
            BaselineKind::IterativeReasoner => "o1-preview",
        }
    }

    /// Display name used in regenerated tables (marks the surrogate status).
    pub fn display_name(&self) -> String {
        format!("{} (surrogate)", self.surrogate_for())
    }
}

/// A baseline repair engine.
#[derive(Debug, Clone)]
pub struct BaselineModel {
    kind: BaselineKind,
    name: String,
    line_policy: Policy,
    fix_policy: Policy,
    lm: NgramLm,
}

impl BaselineModel {
    /// Creates the baseline of the given tier.
    pub fn new(kind: BaselineKind) -> Self {
        let (line_policy, fix_policy) = hand_tuned_policies(kind);
        Self {
            kind,
            name: kind.display_name(),
            line_policy,
            fix_policy,
            lm: NgramLm::new(),
        }
    }

    /// The tier of this baseline.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }
}

/// Hand-tuned policy weights per tier.  Indices follow
/// [`crate::features::line_candidates_in`] and [`crate::fixgen::fix_candidates`].
fn hand_tuned_policies(kind: BaselineKind) -> (Policy, Policy) {
    use BaselineKind::*;
    let line = match kind {
        RandomGuess => vec![0.0; crate::features::LINE_FEATURES],
        AssignmentGuess => {
            let mut w = vec![0.0; crate::features::LINE_FEATURES];
            w[4] = 0.8; // prefers non-blocking assignments
            w
        }
        KeywordMatch => {
            let mut w = vec![0.0; crate::features::LINE_FEATURES];
            w[1] = 2.0; // mentions a failing-assertion signal
            w
        }
        GeneralHeuristic => {
            let mut w = vec![0.0; crate::features::LINE_FEATURES];
            w[1] = 2.5;
            w[3] = 1.0; // conditional lines
            w[2] = 1.5; // cone proximity
            w
        }
        ConeAnalyst => {
            let mut w = vec![0.0; crate::features::LINE_FEATURES];
            w[1] = 3.0;
            w[2] = 3.0;
            w[3] = 1.2;
            w[12] = 1.5; // any cone signal mentioned
            w
        }
        IterativeReasoner => {
            let mut w = vec![0.0; crate::features::LINE_FEATURES];
            w[1] = 3.5;
            w[2] = 3.5;
            w[3] = 1.5;
            w[12] = 2.0;
            w[6] = 0.5; // negations are suspicious
            w
        }
    };
    let fix = match kind {
        RandomGuess | AssignmentGuess => vec![0.0; crate::fixgen::FIX_FEATURES],
        KeywordMatch => {
            let mut w = vec![0.0; crate::fixgen::FIX_FEATURES];
            w[1] = 0.8; // negation toggles
            w[2] = 0.4; // operator swaps
            w
        }
        GeneralHeuristic => {
            let mut w = vec![0.0; crate::fixgen::FIX_FEATURES];
            w[1] = 1.5;
            w[2] = 1.0;
            w[3] = 0.6;
            w[5] = 0.8; // introduces an assertion signal
            w
        }
        ConeAnalyst => {
            let mut w = vec![0.0; crate::fixgen::FIX_FEATURES];
            w[1] = 2.0;
            w[2] = 1.4;
            w[3] = 1.0;
            w[4] = 0.6;
            w[5] = 1.2;
            w[9] = 0.8; // conditional context
            w
        }
        IterativeReasoner => {
            let mut w = vec![0.0; crate::fixgen::FIX_FEATURES];
            w[1] = 2.4;
            w[2] = 1.8;
            w[3] = 1.2;
            w[4] = 0.8;
            w[5] = 1.6;
            w[9] = 1.0;
            w
        }
    };
    (Policy::from_weights(line), Policy::from_weights(fix))
}

impl RepairModel for BaselineModel {
    fn name(&self) -> &str {
        &self.name
    }

    /// Samples through one sampling plan per call, as `AssertSolverModel::solve`
    /// does: the iterative reasoner's three lines per sample share its fix memo.
    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        self.sample(
            &SamplingPlan::new(case, &self.lm),
            samples,
            temperature,
            seed,
        )
    }
}

impl BaselineModel {
    /// Draws `samples` responses through `plan` from one RNG seeded with `seed`,
    /// each response rendered on the first draw of its (line, fix) pair and
    /// cloned for every repeat.
    pub(crate) fn sample(
        &self,
        plan: &SamplingPlan,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        // Weak tiers sample at a much higher effective temperature (they are not
        // confident); the iterative reasoner runs an internal best-of-3 pass.
        let effective_temperature = match self.kind {
            BaselineKind::RandomGuess | BaselineKind::AssignmentGuess => temperature.max(3.0),
            BaselineKind::KeywordMatch => temperature.max(1.0),
            _ => temperature,
        };
        let softmax = Softmax::new(
            plan,
            &self.line_policy,
            &self.fix_policy,
            effective_temperature,
        );
        let respond = |line: usize, fix: Option<usize>| {
            let bug_line_number = plan.line_numbers[line];
            Response {
                bug_line_number,
                buggy_line: plan.lines.texts[line].clone(),
                fixed_line: plan.fixed_line(line, fix).to_string(),
                cot: Some(format!(
                    "Heuristic analysis of the failing assertion points at line {bug_line_number}."
                )),
            }
        };
        plan.sample(samples, seed, |rng| self.draw(plan, &softmax, rng), respond)
    }

    /// One draw: the candidate line and its fix candidate (`None` when the line
    /// has none).
    fn draw(
        &self,
        plan: &SamplingPlan,
        softmax: &Softmax,
        rng: &mut StdRng,
    ) -> (usize, Option<usize>) {
        let candidates_to_try = if self.kind == BaselineKind::IterativeReasoner {
            3
        } else {
            1
        };
        let mut best: Option<(f64, usize, Option<usize>)> = None;
        for _ in 0..candidates_to_try {
            let line = softmax.line(rng);
            let text = &plan.lines.texts[line];
            let fixes = plan.fixes(line);
            let (fix, fix_score) = if fixes.is_empty() {
                (None, 0.0)
            } else {
                let idx = if matches!(
                    self.kind,
                    BaselineKind::RandomGuess | BaselineKind::AssignmentGuess
                ) {
                    // Uniform over the fixes: the one roll `SliceRandom::choose` makes.
                    rng.gen_range(0..fixes.texts.len())
                } else {
                    softmax.fix(line, rng)
                };
                (Some(idx), self.fix_policy.score(&fixes.features[idx]))
            };
            let fixed_line = plan.fixed_line(line, fix);
            // Self-check score: line score plus fix score, with a bonus when a
            // conditional line's fix changes its negations.
            let mut score = self.line_policy.score(&plan.lines.features[line]) + fix_score;
            if (text.starts_with("if (") || text.starts_with("else if ("))
                && fixed_line.matches('!').count() != text.matches('!').count()
            {
                score += 0.5;
            }
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, line, fix));
            }
        }
        let (_, line, fix) = best.expect("at least one candidate generated");
        (line, fix)
    }
}

/// The per-sample path the sampling plan replaced, kept as the oracle of
/// `plan::tests`: the line features and every drawn line's fix candidates (two
/// parses) are rebuilt per sample.
#[cfg(test)]
impl BaselineModel {
    pub(crate) fn language_model(&self) -> &NgramLm {
        &self.lm
    }

    pub(crate) fn solve_oracle(
        &self,
        case: &CaseInput,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        use rand::SeedableRng;
        let lines = crate::solver::line_candidates(case, &self.lm);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..samples)
            .map(|_| self.propose_oracle(case, &lines, temperature, &mut rng))
            .collect()
    }

    fn propose_oracle(
        &self,
        case: &CaseInput,
        lines: &[crate::features::LineCandidate],
        temperature: f64,
        rng: &mut StdRng,
    ) -> Response {
        use crate::solver::fix_candidates_for_case;
        if lines.is_empty() {
            return Response {
                bug_line_number: 0,
                buggy_line: String::new(),
                fixed_line: String::new(),
                cot: None,
            };
        }
        // Weak tiers sample at a much higher effective temperature (they are not
        // confident); the iterative reasoner runs an internal best-of-3 pass.
        let effective_temperature = match self.kind {
            BaselineKind::RandomGuess | BaselineKind::AssignmentGuess => temperature.max(3.0),
            BaselineKind::KeywordMatch => temperature.max(1.0),
            _ => temperature,
        };
        let line_features: Vec<Vec<f64>> = lines.iter().map(|c| c.features.clone()).collect();
        let candidates_to_try = if self.kind == BaselineKind::IterativeReasoner {
            3
        } else {
            1
        };
        let mut best: Option<(f64, Response)> = None;
        for _ in 0..candidates_to_try {
            let line_idx = self
                .line_policy
                .sample(&line_features, effective_temperature, rng);
            let line = &lines[line_idx];
            let fixes = fix_candidates_for_case(case, &line.text, &self.lm);
            let (fixed_line, fix_score) = if fixes.is_empty() {
                (line.text.clone(), 0.0)
            } else {
                let fix_features: Vec<Vec<f64>> =
                    fixes.iter().map(|f| f.features.clone()).collect();
                let idx = if matches!(
                    self.kind,
                    BaselineKind::RandomGuess | BaselineKind::AssignmentGuess
                ) {
                    rng_choice(fixes.len(), rng)
                } else {
                    self.fix_policy
                        .sample(&fix_features, effective_temperature, rng)
                };
                (
                    fixes[idx].text.clone(),
                    self.fix_policy.score(&fixes[idx].features),
                )
            };
            // Self-check score: line score plus fix score, with a bonus when the edit
            // type matches what the line shape suggests (flipping conditions on
            // conditional lines, value tweaks on comparisons against constants).
            let mut score = self.line_policy.score(&line.features) + fix_score;
            if (line.text.starts_with("if (") || line.text.starts_with("else if ("))
                && fixed_line.matches('!').count() != line.text.matches('!').count()
            {
                score += 0.5;
            }
            let response = Response {
                bug_line_number: line.line_number,
                buggy_line: line.text.clone(),
                fixed_line,
                cot: Some(format!(
                    "Heuristic analysis of the failing assertion points at line {}.",
                    line.line_number
                )),
            };
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, response));
            }
        }
        best.expect("at least one candidate generated").1
    }
}

/// The oracle's uniform fix choice: one `choose` over an index vector.
#[cfg(test)]
fn rng_choice(len: usize, rng: &mut StdRng) -> usize {
    use rand::seq::SliceRandom;
    *(0..len).collect::<Vec<usize>>().choose(rng).unwrap_or(&0)
}

/// Convenience: instantiates every baseline tier.
pub fn all_baselines() -> Vec<BaselineModel> {
    BaselineKind::all()
        .into_iter()
        .map(BaselineModel::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svdata::{run_pipeline, PipelineConfig};

    /// Pass@5-style textual accuracy: a case counts when any of five samples names the
    /// right line and the right fix.  (The real evaluation harness in the `assertsolver`
    /// crate additionally accepts semantically correct fixes via the bounded checker.)
    fn eval_accuracy(model: &dyn RepairModel, entries: &[svdata::SvaBugEntry]) -> (f64, f64) {
        let mut full = 0usize;
        let mut line_only = 0usize;
        for (i, e) in entries.iter().enumerate() {
            let case = CaseInput::from_entry(e);
            let responses = model.solve(&case, 5, 0.2, 100 + i as u64);
            if responses.iter().any(|r| {
                r.bug_line_number == e.bug_line_number && r.fixed_line == e.fixed_line.trim()
            }) {
                full += 1;
            }
            if responses
                .iter()
                .any(|r| r.bug_line_number == e.bug_line_number)
            {
                line_only += 1;
            }
        }
        let n = entries.len().max(1) as f64;
        (full as f64 / n, line_only as f64 / n)
    }

    #[test]
    fn stronger_baselines_do_better() {
        let out = run_pipeline(&PipelineConfig::tiny(23));
        let entries = out.datasets.sva_bug;
        assert!(entries.len() >= 6);
        let (weak_full, _) =
            eval_accuracy(&BaselineModel::new(BaselineKind::RandomGuess), &entries);
        let (strong_full, strong_line) = eval_accuracy(
            &BaselineModel::new(BaselineKind::IterativeReasoner),
            &entries,
        );
        assert!(
            strong_full >= weak_full,
            "iterative reasoner ({strong_full}) should not be worse than random ({weak_full})"
        );
        assert!(
            strong_line > 0.3,
            "the strongest baseline should localise a fair share of bug lines, got {strong_line}"
        );
    }

    #[test]
    fn baselines_have_distinct_names_and_mapping() {
        let models = all_baselines();
        assert_eq!(models.len(), 6);
        let mut names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
        assert_eq!(
            BaselineKind::IterativeReasoner.surrogate_for(),
            "o1-preview"
        );
        assert!(BaselineKind::GeneralHeuristic
            .display_name()
            .contains("surrogate"));
    }

    #[test]
    fn baseline_output_is_deterministic_per_seed() {
        let out = run_pipeline(&PipelineConfig::tiny(29));
        let entry = &out.datasets.sva_bug[0];
        let case = CaseInput::from_entry(entry);
        let model = BaselineModel::new(BaselineKind::ConeAnalyst);
        assert_eq!(model.solve(&case, 5, 0.2, 3), model.solve(&case, 5, 0.2, 3));
    }
}
