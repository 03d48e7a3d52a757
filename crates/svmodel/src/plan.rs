//! The sampling plan: everything a `solve` reads that depends only on the case and
//! the frozen language model, built once per call.
//!
//! A `solve` draws `n` responses.  Each draw picks a candidate line from the line
//! policy's softmax, then a fix for that line from the fix policy's.  Between draws
//! only the RNG moves: the line candidates, their features and the failing
//! assertions stay put, and so do the fix candidates of any one line.  The plan
//! therefore parses the buggy source once, builds the line feature matrix (one
//! search of the assertions' fan-in cone, one LM lookup per token through the
//! frozen index) and the CoT's failing-assertion list once, and builds a line's
//! fix candidates (one LM surprisal per candidate) the first time that line is
//! drawn.  A [`Softmax`] does the same for the policies' side: the line
//! distribution once per `solve`, a line's fix distribution on that line's first
//! draw.  Draws consume the RNG exactly as a per-sample rebuild would — one roll
//! for the line, one for the fix when the line has fixes, each scanned against the
//! distribution the rebuild would have computed — so responses are byte-identical
//! to it; the `#[cfg(test)]` oracles in `solver.rs` and `baselines.rs` keep that
//! per-sample path, and the tests below hold the two equal.

use crate::features::{line_candidates_in, CaseInput};
use crate::fixgen::{fix_candidates, fix_context};
use crate::lm::NgramLm;
use crate::policy::Policy;
use crate::solver::Response;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One policy's choice set: candidate texts and their feature matrix, row `i`
/// describing `texts[i]`.
pub(crate) struct Choices {
    pub(crate) texts: Vec<String>,
    pub(crate) features: Vec<Vec<f64>>,
}

impl Choices {
    pub(crate) fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Index of the first candidate whose text is `text`.
    pub(crate) fn position(&self, text: &str) -> Option<usize> {
        self.texts.iter().position(|t| t == text)
    }
}

/// The case-dependent half of sampling, shared by every draw of one `solve`.
pub(crate) struct SamplingPlan<'a> {
    lm: &'a NgramLm,
    /// 1-based source line number of each candidate line.
    pub(crate) line_numbers: Vec<u32>,
    /// The candidate lines (trimmed) and their line features.
    pub(crate) lines: Choices,
    /// The log's failing assertions, `", "`-joined as the CoT quotes them.
    pub(crate) failing: String,
    declared: Vec<String>,
    fix_signals: Vec<String>,
    /// Fix candidates per candidate line, filled on that line's first draw.
    fixes: Vec<OnceCell<Choices>>,
}

impl<'a> SamplingPlan<'a> {
    /// Parses the case once and builds its line candidates; no fix candidates yet.
    pub(crate) fn new(case: &CaseInput, lm: &'a NgramLm) -> Self {
        let module = svparse::parse_module(&case.buggy_source).ok();
        let failing = case.failing_assertions();
        let (declared, fix_signals) = fix_context(module.as_ref(), &failing);
        let candidates = line_candidates_in(&case.buggy_source, module.as_ref(), &fix_signals, lm);
        let mut line_numbers = Vec::with_capacity(candidates.len());
        let mut lines = Choices {
            texts: Vec::with_capacity(candidates.len()),
            features: Vec::with_capacity(candidates.len()),
        };
        for candidate in candidates {
            line_numbers.push(candidate.line_number);
            lines.texts.push(candidate.text);
            lines.features.push(candidate.features);
        }
        Self {
            lm,
            fixes: std::iter::repeat_with(OnceCell::new)
                .take(line_numbers.len())
                .collect(),
            line_numbers,
            lines,
            failing: failing.join(", "),
            declared,
            fix_signals,
        }
    }

    /// Index of the candidate line with source line number `line_number`.
    pub(crate) fn line_index(&self, line_number: u32) -> Option<usize> {
        self.line_numbers.iter().position(|&n| n == line_number)
    }

    /// The fix candidates of candidate line `line`, built on first use.
    pub(crate) fn fixes(&self, line: usize) -> &Choices {
        self.fixes[line].get_or_init(|| self.fixes_for(&self.lines.texts[line]))
    }

    /// The fix candidates of any line text of this case — what
    /// `fix_candidates_for_case` returns for it — built afresh.
    pub(crate) fn fixes_for(&self, line: &str) -> Choices {
        let (texts, features) = fix_candidates(line, &self.declared, &self.fix_signals, self.lm)
            .into_iter()
            .map(|fix| (fix.text, fix.features))
            .unzip();
        Choices { texts, features }
    }

    /// The text a response to candidate line `line` proposes: its fix
    /// candidate `fix`, or the line itself when it has none.
    pub(crate) fn fixed_line(&self, line: usize, fix: Option<usize>) -> &str {
        fix.map_or(&self.lines.texts[line], |fix| &self.fixes(line).texts[fix])
    }

    /// Draws `samples` responses from one RNG seeded with `seed`: `draw` picks a
    /// candidate line and its fix candidate (`None` when the line has none),
    /// and `respond` renders a pair's response on its first draw, which every
    /// repeat of the pair clones.  With no candidate line every sample is
    /// [`Response::unanswered`] and nothing is drawn.
    pub(crate) fn sample(
        &self,
        samples: usize,
        seed: u64,
        mut draw: impl FnMut(&mut StdRng) -> (usize, Option<usize>),
        respond: impl Fn(usize, Option<usize>) -> Response,
    ) -> Vec<Response> {
        if self.lines.is_empty() {
            return vec![Response::unanswered(); samples];
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drawn = BTreeMap::new();
        (0..samples)
            .map(|_| {
                let (line, fix) = draw(&mut rng);
                let response = drawn
                    .entry((line, fix))
                    .or_insert_with(|| respond(line, fix));
                Response::clone(response)
            })
            .collect()
    }

    /// How many candidate lines have their fix candidates built.
    #[cfg(test)]
    pub(crate) fn memoised(&self) -> usize {
        self.fixes
            .iter()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

/// A policy pair's softmax over one plan at one temperature: the line
/// distribution, computed once, and each line's fix distribution, computed on
/// that line's first draw.  Each draw is one roll scanned against a
/// distribution, as [`Policy::sample_from`] does.
pub(crate) struct Softmax<'p> {
    plan: &'p SamplingPlan<'p>,
    fix_policy: &'p Policy,
    temperature: f64,
    lines: Vec<f64>,
    fixes: Vec<OnceCell<Vec<f64>>>,
}

impl<'p> Softmax<'p> {
    pub(crate) fn new(
        plan: &'p SamplingPlan<'p>,
        line_policy: &Policy,
        fix_policy: &'p Policy,
        temperature: f64,
    ) -> Self {
        Self {
            plan,
            fix_policy,
            temperature,
            lines: line_policy.distribution(&plan.lines.features, temperature),
            fixes: std::iter::repeat_with(OnceCell::new)
                .take(plan.lines.texts.len())
                .collect(),
        }
    }

    /// Draws a candidate line.
    pub(crate) fn line(&self, rng: &mut StdRng) -> usize {
        Policy::sample_from(&self.lines, rng)
    }

    /// Draws a fix of candidate line `line`.
    pub(crate) fn fix(&self, line: usize, rng: &mut StdRng) -> usize {
        let dist = self.fixes[line].get_or_init(|| {
            (self.fix_policy).distribution(&self.plan.fixes(line).features, self.temperature)
        });
        Policy::sample_from(dist, rng)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::features::{self, LineCandidate};
    use crate::fixgen::{oracle, FixCandidate, FixEdit};
    use crate::{AssertSolverModel, BaselineKind, BaselineModel, PreferencePair, RepairModel};
    use std::collections::BTreeSet;
    use std::sync::OnceLock;
    use svdata::{run_pipeline, split_by_module, SvaBugEntry, VerilogBugEntry};

    const SEEDS: [u64; 4] = [0, 1, 7, 2025];
    const TEMPERATURES: [f64; 4] = [0.05, 0.2, 0.8, 3.0];
    const SAMPLES: [usize; 3] = [1, 5, 20];

    /// No `)` closing the port list and no `endmodule`: `parse_module` fails, yet
    /// the assignment and conditional lines are still candidates.
    const BROKEN: &str = "module broken(input clk, input a, output reg y;
always @(posedge clk) begin
if (!a) y <= 1'b0;
else y <= a & a;
end
";
    /// Nothing on any line could carry a bug: the `bug_line_number: 0` path.
    const IDLE: &str = "module idle(input a, output y);\nendmodule\n";

    /// The quick training recipe of `assertsolver::train`, run step by step on
    /// this crate's types, either path.
    struct Recipe {
        config: assertsolver::TrainConfig,
        train: Vec<SvaBugEntry>,
        verilog_bug: Vec<VerilogBugEntry>,
    }

    impl Recipe {
        fn sft(&self, pretrained: &AssertSolverModel, oracle: bool) -> AssertSolverModel {
            let c = &self.config;
            let (epochs, rate, seed) = (c.sft_epochs, c.sft_learning_rate, c.seed ^ 0x5F7);
            let mut model = pretrained.clone();
            if oracle {
                model.sft_oracle(&self.train, &self.verilog_bug, epochs, rate, seed);
            } else {
                model.sft(&self.train, &self.verilog_bug, epochs, rate, seed);
            }
            model
        }

        fn harvest(&self, sft: &AssertSolverModel, oracle: bool) -> Vec<PreferencePair> {
            let c = &self.config;
            let (samples, t, seed) = (c.challenge_samples, c.challenge_temperature, c.seed ^ 0xD90);
            if oracle {
                sft.collect_challenging_oracle(&self.train, samples, t, seed)
            } else {
                sft.collect_challenging(&self.train, samples, t, seed)
            }
        }
    }

    pub(crate) struct Fixture {
        recipe: Recipe,
        pub(crate) pretrained: AssertSolverModel,
        base: AssertSolverModel,
        sft: AssertSolverModel,
        dpo: AssertSolverModel,
        /// Every eval case of the pipeline run, the human cases, a case whose
        /// source does not parse and a case with no candidate line.
        pub(crate) cases: Vec<CaseInput>,
    }

    pub(crate) fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let config = assertsolver::TrainConfig::quick(5);
            let output = run_pipeline(&config.pipeline);
            let split = split_by_module(
                output.datasets.sva_bug.clone(),
                config.pipeline.train_fraction,
                config.seed,
            );
            let base = AssertSolverModel::base(config.seed);
            let mut pretrained = base.clone();
            pretrained.pretrain(&output.datasets.verilog_pt);
            let (beta, rate) = (config.dpo_beta, config.dpo_learning_rate);
            let recipe = Recipe {
                config,
                train: split.train,
                verilog_bug: output.datasets.verilog_bug,
            };
            let sft = recipe.sft(&pretrained, false);
            let mut dpo = sft.clone();
            dpo.dpo(&recipe.harvest(&sft, false), beta, rate);

            let eval: Vec<SvaBugEntry> = split
                .eval
                .into_iter()
                .chain(assertsolver::human_crafted_cases())
                .collect();
            assert!(eval.iter().any(|e| e.human_crafted) && eval.iter().any(|e| !e.human_crafted));
            let mut cases: Vec<CaseInput> = eval.iter().map(CaseInput::from_entry).collect();
            let logs = cases[0].logs.clone();
            for source in [BROKEN, IDLE] {
                cases.push(CaseInput {
                    spec: String::new(),
                    buggy_source: source.into(),
                    logs: logs.clone(),
                });
            }
            Fixture {
                recipe,
                pretrained,
                base,
                sft,
                dpo,
                cases,
            }
        })
    }

    #[test]
    fn sft_and_the_dpo_harvest_match_their_oracles() {
        let f = fixture();
        let oracle = f.recipe.sft(&f.pretrained, true);
        assert_eq!(weight_bits(&f.sft), weight_bits(&oracle), "SFT weights");
        assert_eq!(f.sft.identity(), oracle.identity());

        let pairs = f.recipe.harvest(&f.sft, false);
        assert!(pairs.iter().any(|p| p.is_line_pair) && pairs.iter().any(|p| !p.is_line_pair));
        assert_eq!(pairs, f.recipe.harvest(&f.sft, true));
    }

    fn weight_bits(model: &AssertSolverModel) -> Vec<u64> {
        let (line, fix) = model.policies();
        line.weights()
            .iter()
            .chain(fix.weights())
            .map(|w| w.to_bits())
            .collect()
    }

    /// A model's per-sample oracle path.
    trait Oracle: RepairModel {
        fn oracle(&self, case: &CaseInput, samples: usize, t: f64, seed: u64) -> Vec<Response>;
    }

    impl Oracle for AssertSolverModel {
        fn oracle(&self, case: &CaseInput, samples: usize, t: f64, seed: u64) -> Vec<Response> {
            self.solve_oracle(case, samples, t, seed)
        }
    }

    impl Oracle for BaselineModel {
        fn oracle(&self, case: &CaseInput, samples: usize, t: f64, seed: u64) -> Vec<Response> {
            self.solve_oracle(case, samples, t, seed)
        }
    }

    /// Runs `check` on every (case, seed, temperature, sample count).
    fn sweep(mut check: impl FnMut(&CaseInput, u64, f64, usize)) {
        for case in &fixture().cases {
            for seed in SEEDS {
                for t in TEMPERATURES {
                    for samples in SAMPLES {
                        check(case, seed, t, samples);
                    }
                }
            }
        }
    }

    fn assert_matches_oracle(model: &dyn Oracle) {
        sweep(|case, seed, t, samples| {
            assert_eq!(
                model.solve(case, samples, t, seed),
                model.oracle(case, samples, t, seed),
                "{} on {:?} seed {seed} T {t} n {samples}",
                model.name(),
                case.buggy_source.lines().next()
            );
        });
    }

    #[test]
    fn checkpoints_solve_like_the_per_sample_oracle() {
        let f = fixture();
        for model in [&f.base, &f.sft, &f.dpo] {
            assert_matches_oracle(model);
        }
    }

    #[test]
    fn baselines_solve_like_the_per_sample_oracle() {
        for kind in BaselineKind::all() {
            assert_matches_oracle(&BaselineModel::new(kind));
        }
    }

    #[test]
    fn edge_cases_take_the_paths_they_name() {
        let cases = &fixture().cases;
        let [.., broken, idle] = cases.as_slice() else {
            unreachable!("fixture has the two edge cases last")
        };
        assert!(svparse::parse_module(&broken.buggy_source).is_err());
        let lm = NgramLm::new();
        assert!(!SamplingPlan::new(broken, &lm).lines.is_empty());
        assert!(SamplingPlan::new(idle, &lm).lines.is_empty());
        let responses = fixture().dpo.solve(idle, 5, 0.2, 1);
        assert!(responses.iter().all(|r| *r == Response::unanswered()));
    }

    /// Memoised lines after a sample: exactly the distinct drawn lines for a
    /// checkpoint; for the best-of-3 reasoner, every returned line and at most
    /// three lines per sample.
    #[test]
    fn the_memo_holds_exactly_the_drawn_lines() {
        let f = fixture();
        let reasoner = BaselineModel::new(BaselineKind::IterativeReasoner);
        sweep(|case, seed, t, samples| {
            for model in [&f.base, &f.sft, &f.dpo] {
                let plan = SamplingPlan::new(case, model.language_model());
                let drawn = distinct_lines(&model.sample(&plan, samples, t, seed));
                assert_eq!(plan.memoised(), drawn);
            }
            let plan = SamplingPlan::new(case, reasoner.language_model());
            let returned = distinct_lines(&reasoner.sample(&plan, samples, t, seed));
            assert!(returned <= plan.memoised() && plan.memoised() <= 3 * samples);
        });
    }

    /// The language models of the three checkpoints and of the reasoner.
    fn language_models() -> impl Iterator<Item = &'static NgramLm> {
        let f = fixture();
        static REASONER: OnceLock<BaselineModel> = OnceLock::new();
        let reasoner = REASONER.get_or_init(|| BaselineModel::new(BaselineKind::IterativeReasoner));
        [&f.base, &f.sft, &f.dpo]
            .map(|model| model.language_model())
            .into_iter()
            .chain([reasoner.language_model()])
    }

    /// Every case of the sweep, every training case and every Verilog-Bug case
    /// (no log, so the cone starts from every assertion's signals) under every
    /// language model: the line candidates equal the oracle's in line number,
    /// text and feature bits, in order.
    #[test]
    fn line_candidates_match_their_oracle_on_every_case() {
        let f = fixture();
        let training = (f.recipe.train.iter()).map(CaseInput::from_entry);
        let verilog_bug = f.recipe.verilog_bug.iter().map(|e| CaseInput {
            spec: e.spec.clone(),
            buggy_source: e.buggy_source.clone(),
            logs: String::new(),
        });
        let cases: Vec<CaseInput> = (f.cases.iter().cloned())
            .chain(training)
            .chain(verilog_bug)
            .collect();
        let mut compared = 0;
        for lm in language_models() {
            for case in &cases {
                let module = svparse::parse_module(&case.buggy_source).ok();
                let (_, signals) = fix_context(module.as_ref(), &case.failing_assertions());
                let args = (&case.buggy_source, module.as_ref(), &signals, lm);
                let lines = line_candidates_in(args.0, args.1, args.2, args.3);
                let expected = features::oracle::line_candidates_in(args.0, args.1, args.2, args.3);
                let view = |lines: &[LineCandidate]| -> Vec<(u32, String, Vec<u64>)> {
                    let bits = |c: &LineCandidate| c.features.iter().map(|x| x.to_bits()).collect();
                    (lines.iter())
                        .map(|c| (c.line_number, c.text.clone(), bits(c)))
                        .collect()
                };
                assert_eq!(view(&lines), view(&expected), "{:?}", case.buggy_source);
                compared += lines.len();
            }
        }
        assert!(compared > 2500, "{compared} candidates compared");
    }

    /// Every line any draw of the sweep can pick, under every checkpoint's and the
    /// reasoner's language model: the fix candidates equal the oracle's in text,
    /// edit kind and feature bits, in order.
    #[test]
    fn fix_candidates_match_their_oracle_on_every_candidate_line() {
        let f = fixture();
        let mut compared = 0;
        for lm in language_models() {
            for case in &f.cases {
                let plan = SamplingPlan::new(case, lm);
                for line in &plan.lines.texts {
                    let args = (line.as_str(), &plan.declared, &plan.fix_signals, lm);
                    let fixes = fix_candidates(args.0, args.1, args.2, args.3);
                    let expected = oracle::fix_candidates(args.0, args.1, args.2, args.3);
                    let view = |fixes: &[FixCandidate]| -> Vec<(String, FixEdit, Vec<u64>)> {
                        let bits =
                            |f: &FixCandidate| f.features.iter().map(|x| x.to_bits()).collect();
                        fixes
                            .iter()
                            .map(|f| (f.text.clone(), f.edit, bits(f)))
                            .collect()
                    };
                    assert_eq!(view(&fixes), view(&expected), "{line}");
                    compared += fixes.len();
                }
            }
        }
        assert!(compared > 1000, "{compared} candidates compared");
    }

    fn distinct_lines(responses: &[Response]) -> usize {
        responses
            .iter()
            .map(|r| r.bug_line_number)
            .filter(|&n| n != 0)
            .collect::<BTreeSet<u32>>()
            .len()
    }
}
