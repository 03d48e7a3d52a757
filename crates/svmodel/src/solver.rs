//! The AssertSolver surrogate model and its training stages.
//!
//! [`AssertSolverModel`] packages the pretrained language model, the line-localisation
//! policy and the fix-ranking policy behind the same three-input interface the paper's
//! LLM exposes (Spec, buggy SV, logs → buggy line, fix, CoT), and implements the three
//! training stages: continual pretraining on *Verilog-PT*, supervised fine-tuning on
//! *SVA-Bug*/*Verilog-Bug*, and DPO on error responses to challenging cases.

use crate::features::CaseInput;
use crate::lm::NgramLm;
use crate::plan::{SamplingPlan, Softmax};
use crate::policy::Policy;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use svdata::{SvaBugEntry, VerilogBugEntry, VerilogPtEntry};

/// One model answer: the suspected buggy line, the proposed fix and an optional
/// explanation, mirroring the JSON schema the paper prompts for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// 1-based line number of the suspected buggy line.
    pub bug_line_number: u32,
    /// The text of the suspected buggy line.
    pub buggy_line: String,
    /// The proposed replacement line.
    pub fixed_line: String,
    /// Optional chain-of-thought explanation.
    pub cot: Option<String>,
}

impl Response {
    /// Serialises the response as the JSON object the inference interface returns.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("response serialises")
    }

    /// The answer to a case with no candidate line: line 0, empty texts, no CoT.
    pub(crate) fn unanswered() -> Self {
        Self {
            bug_line_number: 0,
            buggy_line: String::new(),
            fixed_line: String::new(),
            cot: None,
        }
    }
}

/// Anything that can answer an assertion-failure case.
pub trait RepairModel {
    /// Display name used in tables.
    fn name(&self) -> &str;

    /// Stable identity for persistent-cache headers (`svserve::persist`): two
    /// models that can produce different responses must return different
    /// identities, or a warm start could replay one model's cached responses as
    /// the other's.  Defaults to the display name, which suffices for stateless
    /// or hand-tuned models; models with trained or seeded internal state must
    /// fold a content fingerprint in (as [`AssertSolverModel`] does).
    ///
    /// That fingerprint costs O(model size) — [`AssertSolverModel`] serializes
    /// and hashes every weight, ≈0.5 ms for a trained checkpoint — so callers
    /// derive it only where something reads it: `assertsolver::Evaluation`
    /// computes it at most once per run, and only for a cache snapshot name or
    /// an artifact name.
    fn identity(&self) -> String {
        self.name().to_string()
    }

    /// Generates `samples` candidate solutions for a case at the given temperature.
    fn solve(&self, case: &CaseInput, samples: usize, temperature: f64, seed: u64)
        -> Vec<Response>;
}

/// Training progress of the surrogate model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrainingStage {
    /// Untrained base model (random behaviour, like Deepseek-Coder-6.7b on this task).
    Base,
    /// After continual pretraining on Verilog-PT.
    Pretrained,
    /// After supervised fine-tuning.
    Sft,
    /// After DPO on challenging cases (the full AssertSolver).
    Dpo,
}

/// A preference pair harvested from a challenging case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreferencePair {
    /// Features of the correct (chosen) candidate.
    pub chosen: Vec<f64>,
    /// Features of the incorrect (rejected) candidate the model actually produced.
    pub rejected: Vec<f64>,
    /// Margin of the frozen reference (SFT) policy on this pair.
    pub(crate) reference_margin: f64,
    /// `true` when the pair belongs to the line policy, `false` for the fix policy.
    pub(crate) is_line_pair: bool,
}

/// The trainable surrogate of the paper's AssertSolver model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssertSolverModel {
    lm: NgramLm,
    line_policy: Policy,
    fix_policy: Policy,
    stage: TrainingStage,
    display_name: String,
}

impl AssertSolverModel {
    /// Creates the untrained base model (noisy random policies, empty language model).
    pub fn base(seed: u64) -> Self {
        Self {
            lm: NgramLm::new(),
            line_policy: Policy::noisy(crate::features::LINE_FEATURES, seed),
            fix_policy: Policy::noisy(crate::fixgen::FIX_FEATURES, seed ^ 0xF1),
            stage: TrainingStage::Base,
            display_name: "Base model".to_string(),
        }
    }

    /// Current training stage.
    pub fn stage(&self) -> TrainingStage {
        self.stage
    }

    /// Stage 1: continual pretraining on the Verilog-PT dataset.
    pub fn pretrain(&mut self, entries: &[VerilogPtEntry]) {
        for entry in entries {
            self.lm.train_text(&entry.text());
        }
        if self.stage == TrainingStage::Base {
            self.stage = TrainingStage::Pretrained;
            self.display_name = "PT model".to_string();
        }
    }

    /// Stage 2: supervised fine-tuning on SVA-Bug plus the auxiliary Verilog-Bug task.
    ///
    /// An example's line and fix feature matrices depend only on the case and the
    /// (frozen) language model, so they are built once, before the first epoch;
    /// each epoch then shuffles the prepared examples and takes one SGD step per
    /// policy on each.
    pub fn sft(
        &mut self,
        sva_bug: &[SvaBugEntry],
        verilog_bug: &[VerilogBugEntry],
        epochs: usize,
        learning_rate: f64,
        seed: u64,
    ) {
        // Reset the noisy base weights: fine-tuning starts from the pretrained state.
        self.line_policy = Policy::zeros(crate::features::LINE_FEATURES);
        self.fix_policy = Policy::zeros(crate::fixgen::FIX_FEATURES);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut examples: Vec<SftExample> = sva_bug
            .iter()
            .map(|e| {
                let case = CaseInput::from_entry(e);
                SftExample::new(
                    &case,
                    e.bug_line_number,
                    &e.buggy_line,
                    &e.fixed_line,
                    &self.lm,
                )
            })
            .collect();
        examples.extend(verilog_bug.iter().map(|e| {
            let case = CaseInput {
                spec: e.spec.clone(),
                buggy_source: e.buggy_source.clone(),
                logs: String::new(),
            };
            SftExample::new(
                &case,
                e.bug_line_number,
                &e.buggy_line,
                &e.fixed_line,
                &self.lm,
            )
        }));

        for _ in 0..epochs {
            examples.shuffle(&mut rng);
            for example in &examples {
                if let Some((features, correct)) = &example.line {
                    self.line_policy.sft_step(features, *correct, learning_rate);
                }
                if let Some((features, correct)) = &example.fix {
                    self.fix_policy.sft_step(features, *correct, learning_rate);
                }
            }
        }
        self.stage = TrainingStage::Sft;
        self.display_name = "SFT model".to_string();
    }

    /// Samples the model on every training case and harvests preference pairs from the
    /// challenging ones (cases with at least one incorrect response among `samples`).
    ///
    /// Each entry gets one sampling plan: its responses are drawn through it, and the
    /// chosen/rejected features are read from the same line and fix matrices.
    pub fn collect_challenging(
        &self,
        entries: &[SvaBugEntry],
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<PreferencePair> {
        let mut pairs = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            let case = CaseInput::from_entry(entry);
            let plan = SamplingPlan::new(&case, &self.lm);
            let Some(correct_line) = plan.line_index(entry.bug_line_number) else {
                continue;
            };
            // The entry's buggy line is the candidate line's text whenever the
            // entry is consistent; build its fixes afresh only when it is not.
            let unlisted;
            let fixes = if plan.lines.texts[correct_line] == entry.buggy_line.trim() {
                plan.fixes(correct_line)
            } else {
                unlisted = plan.fixes_for(&entry.buggy_line);
                &unlisted
            };
            let correct_fix = fixes.position(entry.fixed_line.trim());
            let line_features = &plan.lines.features;
            let chosen_line = &line_features[correct_line];

            let responses = self.sample(&plan, samples, temperature, seed ^ (i as u64));
            for response in responses {
                let line_correct = response.bug_line_number == entry.bug_line_number;
                let fix_correct = response.fixed_line == entry.fixed_line.trim();
                if line_correct && fix_correct {
                    continue;
                }
                if !line_correct {
                    if let Some(rejected) = plan.line_index(response.bug_line_number) {
                        let rejected = &line_features[rejected];
                        pairs.push(PreferencePair {
                            chosen: chosen_line.clone(),
                            rejected: rejected.clone(),
                            reference_margin: self.line_policy.score(chosen_line)
                                - self.line_policy.score(rejected),
                            is_line_pair: true,
                        });
                    }
                } else if let (Some(correct_fix), Some(rejected)) =
                    (correct_fix, fixes.position(&response.fixed_line))
                {
                    let (chosen, rejected) =
                        (&fixes.features[correct_fix], &fixes.features[rejected]);
                    pairs.push(PreferencePair {
                        chosen: chosen.clone(),
                        rejected: rejected.clone(),
                        reference_margin: self.fix_policy.score(chosen)
                            - self.fix_policy.score(rejected),
                        is_line_pair: false,
                    });
                }
            }
        }
        pairs
    }

    /// Stage 3: DPO on the harvested preference pairs (β = 0.1 in the paper).
    pub fn dpo(&mut self, pairs: &[PreferencePair], beta: f64, learning_rate: f64) {
        for pair in pairs {
            if pair.is_line_pair {
                self.line_policy.dpo_step(
                    &pair.chosen,
                    &pair.rejected,
                    pair.reference_margin,
                    beta,
                    learning_rate,
                );
            } else {
                self.fix_policy.dpo_step(
                    &pair.chosen,
                    &pair.rejected,
                    pair.reference_margin,
                    beta,
                    learning_rate,
                );
            }
        }
        self.stage = TrainingStage::Dpo;
        self.display_name = "AssertSolver".to_string();
    }

    /// Draws `samples` responses through `plan` from one RNG seeded with `seed`.
    ///
    /// Each draw is a line from the line policy, then — when that line has fix
    /// candidates — a fix from the fix policy, one RNG roll each against the
    /// plan's [`Softmax`].  The response of a (line, fix) pair, CoT included, is
    /// rendered on its first draw and cloned for every repeat.
    pub(crate) fn sample(
        &self,
        plan: &SamplingPlan,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        let softmax = Softmax::new(plan, &self.line_policy, &self.fix_policy, temperature);
        let draw = |rng: &mut StdRng| {
            let line = softmax.line(rng);
            (
                line,
                (!plan.fixes(line).is_empty()).then(|| softmax.fix(line, rng)),
            )
        };
        plan.sample(samples, seed, draw, |line, fix| {
            self.respond(plan, line, fix)
        })
    }

    /// The response naming candidate line `line` and its fix candidate `fix`.
    fn respond(&self, plan: &SamplingPlan, line: usize, fix: Option<usize>) -> Response {
        let line_number = plan.line_numbers[line];
        let buggy_line = &plan.lines.texts[line];
        let fixed_line = plan.fixed_line(line, fix);
        let cot = (self.stage >= TrainingStage::Sft).then(|| {
            format!(
                "The log reports the failing assertion(s) [{}]. Tracing the signals they observe back through the design, line {line_number} (`{buggy_line}`) drives the observed behaviour and contradicts the specification; replacing it with `{fixed_line}` makes the assertion hold.",
                plan.failing
            )
        });
        Response {
            bug_line_number: line_number,
            buggy_line: buggy_line.clone(),
            fixed_line: fixed_line.to_string(),
            cot,
        }
    }
}

/// One SFT example with its feature matrices prepared: the line candidates with
/// the index of the labelled bug line, and the labelled buggy line's fix
/// candidates with the index of the labelled fix.  `None` when the label is not
/// among the candidates (that policy takes no step on the example).
struct SftExample {
    line: Option<(Vec<Vec<f64>>, usize)>,
    fix: Option<(Vec<Vec<f64>>, usize)>,
}

impl SftExample {
    fn new(
        case: &CaseInput,
        bug_line: u32,
        buggy_line: &str,
        fixed_line: &str,
        lm: &NgramLm,
    ) -> Self {
        let plan = SamplingPlan::new(case, lm);
        let fixes = plan.fixes_for(buggy_line);
        Self {
            fix: fixes
                .position(fixed_line.trim())
                .map(|correct| (fixes.features, correct)),
            line: plan
                .line_index(bug_line)
                .map(|correct| (plan.lines.features, correct)),
        }
    }
}

impl RepairModel for AssertSolverModel {
    fn name(&self) -> &str {
        &self.display_name
    }

    /// Display name plus a content hash of the full serialized model, so two
    /// same-stage models with different weights (e.g. `base(3)` vs `base(11)`,
    /// or SFT runs with different hyperparameters) never share a cache identity.
    fn identity(&self) -> String {
        let serialized = serde_json::to_string(self).expect("model serialises");
        // FNV-1a/64 over the serialized weights; stable across processes because
        // every field renders deterministically (BTreeMaps, shortest-float).
        // Local copy of the hash: svserve's shared helper lives downstream of
        // this crate in the dependency graph.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in serialized.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{} [{hash:016x}]", self.display_name)
    }

    /// Builds one sampling plan for the case — one parse, the line feature matrix,
    /// fix candidates memoised per line on its first draw — and draws every
    /// sample through it, in the same RNG order as rebuilding all of it per
    /// sample.
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

/// The per-sample path the sampling plan replaced, kept as the oracle of
/// `plan::tests`: `solve` rebuilds the line features and the drawn line's fix
/// candidates (two parses) per sample, `sft` rebuilds both per example per epoch,
/// and `collect_challenging` builds them beside a `solve`.
#[cfg(test)]
impl AssertSolverModel {
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
        let lines = line_candidates(case, &self.lm);
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
        if lines.is_empty() {
            return Response {
                bug_line_number: 0,
                buggy_line: String::new(),
                fixed_line: String::new(),
                cot: None,
            };
        }
        let line_features: Vec<Vec<f64>> = lines.iter().map(|c| c.features.clone()).collect();
        let line_idx = self.line_policy.sample(&line_features, temperature, rng);
        let line = &lines[line_idx];
        let fixes = fix_candidates_for_case(case, &line.text, &self.lm);
        let fixed_line = if fixes.is_empty() {
            line.text.clone()
        } else {
            let fix_features: Vec<Vec<f64>> = fixes.iter().map(|f| f.features.clone()).collect();
            let fix_idx = self.fix_policy.sample(&fix_features, temperature, rng);
            fixes[fix_idx].text.clone()
        };
        let cot = if self.stage >= TrainingStage::Sft {
            let failing = case.failing_assertions().join(", ");
            Some(format!(
                "The log reports the failing assertion(s) [{failing}]. Tracing the signals they observe back through the design, line {} (`{}`) drives the observed behaviour and contradicts the specification; replacing it with `{}` makes the assertion hold.",
                line.line_number, line.text, fixed_line
            ))
        } else {
            None
        };
        Response {
            bug_line_number: line.line_number,
            buggy_line: line.text.clone(),
            fixed_line,
            cot,
        }
    }

    pub(crate) fn sft_oracle(
        &mut self,
        sva_bug: &[SvaBugEntry],
        verilog_bug: &[VerilogBugEntry],
        epochs: usize,
        learning_rate: f64,
        seed: u64,
    ) {
        self.line_policy = Policy::zeros(crate::features::LINE_FEATURES);
        self.fix_policy = Policy::zeros(crate::fixgen::FIX_FEATURES);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut examples: Vec<(CaseInput, u32, String, String)> = sva_bug
            .iter()
            .map(|e| {
                (
                    CaseInput::from_entry(e),
                    e.bug_line_number,
                    e.buggy_line.clone(),
                    e.fixed_line.clone(),
                )
            })
            .collect();
        examples.extend(verilog_bug.iter().map(|e| {
            (
                CaseInput {
                    spec: e.spec.clone(),
                    buggy_source: e.buggy_source.clone(),
                    logs: String::new(),
                },
                e.bug_line_number,
                e.buggy_line.clone(),
                e.fixed_line.clone(),
            )
        }));

        for _ in 0..epochs {
            examples.shuffle(&mut rng);
            for (case, bug_line, buggy_line, fixed_line) in &examples {
                let lines = line_candidates(case, &self.lm);
                if let Some(correct) = lines.iter().position(|c| c.line_number == *bug_line) {
                    let features: Vec<Vec<f64>> =
                        lines.iter().map(|c| c.features.clone()).collect();
                    self.line_policy.sft_step(&features, correct, learning_rate);
                }
                let fixes = fix_candidates_for_case(case, buggy_line, &self.lm);
                if let Some(correct) = fixes.iter().position(|f| f.text == fixed_line.trim()) {
                    let features: Vec<Vec<f64>> =
                        fixes.iter().map(|f| f.features.clone()).collect();
                    self.fix_policy.sft_step(&features, correct, learning_rate);
                }
            }
        }
        self.stage = TrainingStage::Sft;
        self.display_name = "SFT model".to_string();
    }

    pub(crate) fn collect_challenging_oracle(
        &self,
        entries: &[SvaBugEntry],
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<PreferencePair> {
        let mut pairs = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            let case = CaseInput::from_entry(entry);
            let lines = line_candidates(&case, &self.lm);
            let Some(correct_line) = lines
                .iter()
                .find(|c| c.line_number == entry.bug_line_number)
            else {
                continue;
            };
            let fixes = fix_candidates_for_case(&case, &entry.buggy_line, &self.lm);
            let correct_fix = fixes.iter().find(|f| f.text == entry.fixed_line.trim());

            let responses = self.solve_oracle(&case, samples, temperature, seed ^ (i as u64));
            for response in responses {
                let line_correct = response.bug_line_number == entry.bug_line_number;
                let fix_correct = response.fixed_line == entry.fixed_line.trim();
                if line_correct && fix_correct {
                    continue;
                }
                if !line_correct {
                    if let Some(rejected) = lines
                        .iter()
                        .find(|c| c.line_number == response.bug_line_number)
                    {
                        pairs.push(PreferencePair {
                            chosen: correct_line.features.clone(),
                            rejected: rejected.features.clone(),
                            reference_margin: self.line_policy.score(&correct_line.features)
                                - self.line_policy.score(&rejected.features),
                            is_line_pair: true,
                        });
                    }
                } else if let (Some(correct_fix), Some(rejected)) = (
                    correct_fix,
                    fixes.iter().find(|f| f.text == response.fixed_line),
                ) {
                    pairs.push(PreferencePair {
                        chosen: correct_fix.features.clone(),
                        rejected: rejected.features.clone(),
                        reference_margin: self.fix_policy.score(&correct_fix.features)
                            - self.fix_policy.score(&rejected.features),
                        is_line_pair: false,
                    });
                }
            }
        }
        pairs
    }

    /// Both policies, for bit-exact weight comparisons.
    pub(crate) fn policies(&self) -> (&Policy, &Policy) {
        (&self.line_policy, &self.fix_policy)
    }
}

/// Every candidate line of a case with its features, parsed afresh — what the
/// oracles above (and `BaselineModel`'s) rebuild per sample.  The `lm`
/// supplies the surprisal feature; an untrained one makes it neutral.
#[cfg(test)]
pub(crate) fn line_candidates(
    case: &CaseInput,
    lm: &NgramLm,
) -> Vec<crate::features::LineCandidate> {
    let module = svparse::parse_module(&case.buggy_source).ok();
    let (_, signals) = crate::fixgen::fix_context(module.as_ref(), &case.failing_assertions());
    crate::features::line_candidates_in(&case.buggy_source, module.as_ref(), &signals, lm)
}

/// The fix candidates of one chosen line of a case, parsed afresh — the
/// oracles' per-sample fix step.
#[cfg(test)]
pub(crate) fn fix_candidates_for_case(
    case: &CaseInput,
    line_text: &str,
    lm: &NgramLm,
) -> Vec<crate::fixgen::FixCandidate> {
    let module = svparse::parse_module(&case.buggy_source).ok();
    let failing = case.failing_assertions();
    let (declared, assertion_signals) = crate::fixgen::fix_context(module.as_ref(), &failing);
    crate::fixgen::fix_candidates(line_text, &declared, &assertion_signals, lm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svdata::{run_pipeline, split_by_module, PipelineConfig};

    fn pipeline_entries() -> (
        Vec<SvaBugEntry>,
        Vec<SvaBugEntry>,
        Vec<VerilogPtEntry>,
        Vec<VerilogBugEntry>,
    ) {
        // A step up from `tiny`: the accuracy assertions below compare models on the
        // eval split, and `tiny`'s one-or-two-case eval set makes them coin flips.
        let out = run_pipeline(&PipelineConfig {
            corpus: svgen::CorpusConfig {
                golden_designs: 20,
                ..svgen::CorpusConfig::default()
            },
            bugs_per_design: 4,
            ..PipelineConfig::tiny(17)
        });
        let split = split_by_module(out.datasets.sva_bug.clone(), 0.75, 1);
        (
            split.train,
            split.eval,
            out.datasets.verilog_pt,
            out.datasets.verilog_bug,
        )
    }

    fn textual_accuracy(model: &dyn RepairModel, entries: &[SvaBugEntry]) -> f64 {
        if entries.is_empty() {
            return 0.0;
        }
        let correct = entries
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                let case = CaseInput::from_entry(e);
                let response = &model.solve(&case, 1, 0.05, 42 + *i as u64)[0];
                response.bug_line_number == e.bug_line_number
                    && response.fixed_line == e.fixed_line.trim()
            })
            .count();
        correct as f64 / entries.len() as f64
    }

    /// The identity names every response snapshot on disk: a change to it (the
    /// serialized model, the hash, the format) silently orphans every cache
    /// directory written before it.
    #[test]
    fn base_identity_bytes_are_pinned() {
        assert_eq!(
            AssertSolverModel::base(3).identity(),
            "Base model [2c7f2300c7845f08]"
        );
    }

    /// A trained checkpoint's identity hashes its serialized weights and LM
    /// counts.  The LM's lookup index is neither serialized nor compared, so
    /// building it, or losing it to a JSON round trip, leaves the identity —
    /// pinned here as the bytes it had before the index existed — unchanged.
    #[test]
    fn trained_identities_ignore_the_lm_index() {
        let (train, _, pt, vbug) = pipeline_entries();
        let mut model = AssertSolverModel::base(4);
        model.pretrain(&pt);
        let unindexed = model.identity();
        assert!(model.language_model().frozen().surprisal("q <= d;") > 0.0);
        assert_eq!(model.identity(), unindexed);
        assert_eq!(unindexed, "PT model [96b86c49f439cb47]");

        model.sft(&train, &vbug, 2, 0.4, 3);
        assert_eq!(model.identity(), "SFT model [3c969d3aed49760c]");
        let json = serde_json::to_string(&model).expect("model serialises");
        let read: AssertSolverModel = serde_json::from_str(&json).expect("model reads");
        assert_eq!(read, model);
        assert_eq!(read.identity(), model.identity());
        let case = CaseInput::from_entry(&train[0]);
        assert_eq!(read.solve(&case, 5, 0.2, 1), model.solve(&case, 5, 0.2, 1));
        assert_eq!(
            serde_json::to_string(&read).expect("model serialises"),
            json
        );
    }

    #[test]
    fn training_improves_over_base_model() {
        let (train, eval, pt, vbug) = pipeline_entries();
        assert!(!train.is_empty() && !eval.is_empty());

        let base = AssertSolverModel::base(1);
        let base_accuracy = textual_accuracy(&base, &eval);

        let mut trained = AssertSolverModel::base(1);
        trained.pretrain(&pt);
        trained.sft(&train, &vbug, 6, 0.4, 7);
        let sft_accuracy = textual_accuracy(&trained, &eval);

        assert!(
            sft_accuracy > base_accuracy,
            "SFT accuracy {sft_accuracy} not better than base {base_accuracy}"
        );
        assert!(sft_accuracy > 0.3, "SFT accuracy too low: {sft_accuracy}");
        assert_eq!(trained.stage(), TrainingStage::Sft);
    }

    #[test]
    fn dpo_stage_runs_and_keeps_or_improves_accuracy() {
        let (train, eval, pt, vbug) = pipeline_entries();
        let mut model = AssertSolverModel::base(2);
        model.pretrain(&pt);
        model.sft(&train, &vbug, 6, 0.4, 3);
        let sft_accuracy = textual_accuracy(&model, &eval);
        let pairs = model.collect_challenging(&train, 8, 0.5, 11);
        model.dpo(&pairs, 0.1, 0.05);
        assert_eq!(model.stage(), TrainingStage::Dpo);
        assert_eq!(model.name(), "AssertSolver");
        let dpo_accuracy = textual_accuracy(&model, &eval);
        assert!(
            dpo_accuracy + 0.34 >= sft_accuracy,
            "DPO collapsed accuracy: sft={sft_accuracy} dpo={dpo_accuracy}"
        );
    }

    #[test]
    fn responses_are_json_and_deterministic_per_seed() {
        let (train, _, _, _) = pipeline_entries();
        let entry = &train[0];
        let case = CaseInput::from_entry(entry);
        let model = AssertSolverModel::base(5);
        let a = model.solve(&case, 3, 0.2, 9);
        let b = model.solve(&case, 3, 0.2, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let json = a[0].to_json();
        assert!(json.contains("bug_line_number"));
        assert!(json.contains("fixed_line"));
    }

    #[test]
    fn sft_model_emits_cot_base_does_not() {
        let (train, _, pt, vbug) = pipeline_entries();
        let entry = &train[0];
        let case = CaseInput::from_entry(entry);
        let base = AssertSolverModel::base(3);
        assert!(base.solve(&case, 1, 0.2, 1)[0].cot.is_none());
        let mut trained = AssertSolverModel::base(3);
        trained.pretrain(&pt);
        trained.sft(&train, &vbug, 2, 0.4, 3);
        let cot = trained.solve(&case, 1, 0.2, 1)[0].cot.clone();
        assert!(cot.is_some());
        assert!(cot.unwrap().contains("failing assertion"));
    }

    #[test]
    fn challenging_cases_yield_preference_pairs_for_imperfect_models() {
        let (train, _, _, _) = pipeline_entries();
        // The base model is very inaccurate, so nearly every case is challenging.
        let base = AssertSolverModel::base(9);
        let pairs = base.collect_challenging(&train, 4, 0.8, 5);
        assert!(!pairs.is_empty());
        assert!(pairs.iter().any(|p| p.is_line_pair));
    }
}
