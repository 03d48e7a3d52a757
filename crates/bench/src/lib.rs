//! Experiment harness regenerating every table and figure of the AssertSolver paper.
//!
//! The `experiments` binary (`experiments table3`, `experiments all`, …) is a thin wrapper
//! around [`ExperimentSuite`]: the suite trains the three model checkpoints (base,
//! SFT, AssertSolver), instantiates the six baseline surrogates, evaluates everything
//! on SVA-Eval and formats the results in the paper's table layouts.  The crate's
//! other binary, `svobs`, is the operator CLI over the same evaluation entry points.
//!
//! Scale is controlled with the `ASSERTSOLVER_SCALE` environment variable: `quick`
//! (default, minutes on a laptop) or `full` (larger corpus and n = 20 samples per
//! case, closer to the paper's protocol).

use assertsolver::{
    evaluate_model, render_breakdown, render_distribution, render_histogram, render_passk_table,
    render_split_table, train, EvalConfig, ModelEvaluation, PassK, TrainConfig, TrainedArtifacts,
};
use svdata::distribution;
use svmodel::{all_baselines, RepairModel};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small corpus, 8 samples per case; finishes in a couple of minutes.
    Quick,
    /// Larger corpus, 20 samples per case (the paper's n).
    Full,
}

impl Scale {
    /// Reads the scale from `ASSERTSOLVER_SCALE` (`full` or `quick`, default quick).
    pub fn from_env() -> Self {
        Self::from_raw(std::env::var("ASSERTSOLVER_SCALE").ok().as_deref())
    }

    /// Parses a raw scale value (case-insensitive, whitespace-trimmed).
    ///
    /// Unknown values used to be silently swallowed as `Quick` — a typo like
    /// `ASSERTSOLVER_SCALE=ful` ran the wrong experiment with no trace.  They
    /// still fall back to `Quick` (the safe scale), but with a one-line
    /// warning naming the rejected value.
    pub fn from_raw(raw: Option<&str>) -> Self {
        match raw.map(str::trim) {
            None | Some("") => Scale::Quick,
            Some(value) if value.eq_ignore_ascii_case("full") => Scale::Full,
            Some(value) if value.eq_ignore_ascii_case("quick") => Scale::Quick,
            Some(value) => {
                eprintln!(
                    "warning: ASSERTSOLVER_SCALE={value:?} is not \"full\" or \"quick\"; using quick"
                );
                Scale::Quick
            }
        }
    }

    /// The training configuration for this scale.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        match self {
            Scale::Quick => TrainConfig::quick(seed),
            Scale::Full => TrainConfig {
                pipeline: svdata::PipelineConfig {
                    corpus: svgen::CorpusConfig {
                        golden_designs: 96,
                        ..svgen::CorpusConfig::default()
                    },
                    bugs_per_design: 8,
                    ..svdata::PipelineConfig::default()
                },
                ..TrainConfig::default()
            },
        }
    }

    /// The evaluation configuration for this scale.
    pub fn eval_config(&self, seed: u64) -> EvalConfig {
        match self {
            Scale::Quick => EvalConfig::quick(seed),
            Scale::Full => EvalConfig {
                seed,
                ..EvalConfig::default()
            },
        }
    }
}

/// One evaluated model: display name plus its evaluation on the full benchmark.
#[derive(Debug, Clone)]
pub struct EvaluatedModel {
    /// Display name used in tables.
    pub name: String,
    /// Evaluation over machine + human cases.
    pub evaluation: ModelEvaluation,
}

impl EvaluatedModel {
    /// pass@k over all cases.
    pub fn overall(&self) -> PassK {
        self.evaluation.passk()
    }

    /// pass@k over machine (`false`) or human (`true`) cases only.
    pub fn subset(&self, human: bool) -> PassK {
        self.evaluation.passk_subset(human)
    }
}

/// The shared experiment state: one training run plus evaluations of every model.
pub struct ExperimentSuite {
    /// Training artifacts (datasets, split, checkpoints, benchmark).
    pub artifacts: TrainedArtifacts,
    /// Evaluation protocol used.
    pub eval_config: EvalConfig,
    /// Base / SFT / AssertSolver evaluations (paper Table III).
    pub checkpoints: Vec<EvaluatedModel>,
    /// Baseline surrogate evaluations (paper Table IV).
    pub baselines: Vec<EvaluatedModel>,
    /// Number of samples per case used in the evaluation.
    pub samples: usize,
}

impl ExperimentSuite {
    /// Trains and evaluates everything at the given scale.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let artifacts = train(&scale.train_config(seed));
        let eval_config = scale.eval_config(seed ^ 0xE7);
        let benchmark = artifacts.sva_eval.all();

        let mut checkpoints = Vec::new();
        for model in [&artifacts.base, &artifacts.sft, &artifacts.assert_solver] {
            checkpoints.push(EvaluatedModel {
                name: model.name().to_string(),
                evaluation: evaluate_model(model, &benchmark, &eval_config),
            });
        }
        let mut baselines = Vec::new();
        for baseline in all_baselines() {
            baselines.push(EvaluatedModel {
                name: baseline.name().to_string(),
                evaluation: evaluate_model(&baseline, &benchmark, &eval_config),
            });
        }
        let samples = eval_config.samples;
        Self {
            artifacts,
            eval_config,
            checkpoints,
            baselines,
            samples,
        }
    }

    fn checkpoint(&self, name_contains: &str) -> &EvaluatedModel {
        self.checkpoints
            .iter()
            .find(|m| m.name.contains(name_contains))
            .expect("checkpoint evaluated")
    }

    /// Table I: the bug taxonomy (static content from the paper).
    pub fn table1(&self) -> String {
        let mut out =
            String::from("Table I: Bug types leading to assertion failures and examples\n");
        out.push_str(&format!(
            "{:<10} {:<62} {:<28} {:<28} {:<20}\n",
            "Type", "Description", "Expected form", "Unexpected form", "Assertion"
        ));
        for row in svmutate::table1_rows() {
            out.push_str(&format!(
                "{:<10} {:<62} {:<28} {:<28} {:<20}\n",
                row.label,
                row.description,
                row.expected,
                row.unexpected,
                row.assertion.unwrap_or("-")
            ));
        }
        out
    }

    /// Table II: distribution of SVA-Bug (train) and SVA-Eval across length bins and
    /// bug types.
    pub fn table2(&self) -> String {
        let train_dist = distribution(&self.artifacts.split.train);
        let eval_dist = distribution(&self.artifacts.sva_eval.all());
        render_distribution(
            "Table II: Distribution of SVA-Bug and SVA-Eval across code length intervals and bug types",
            &[("SVA-Bug", train_dist), ("SVA-Eval", eval_dist)],
        )
    }

    /// Table III: base vs SFT vs AssertSolver pass@k.
    pub fn table3(&self) -> String {
        let rows: Vec<(String, PassK)> = self
            .checkpoints
            .iter()
            .map(|m| (m.name.clone(), m.overall()))
            .collect();
        render_passk_table("Table III: Model performance as pass@k", &rows)
    }

    /// Table IV: AssertSolver vs the baseline surrogates, split by benchmark part.
    pub fn table4(&self) -> String {
        let mut rows: Vec<(String, PassK, PassK, PassK)> = Vec::new();
        for model in self.baselines.iter().chain(self.checkpoints.last()) {
            rows.push((
                model.name.clone(),
                model.subset(false),
                model.subset(true),
                model.overall(),
            ));
        }
        render_split_table(
            "Table IV: Performance comparison between AssertSolver and other models (baseline surrogates)",
            &rows,
        )
    }

    /// Figure 3: histogram of correct answers across the sampled responses.
    pub fn fig3(&self) -> String {
        let sft = self.checkpoint("SFT");
        let solver = self.checkpoint("AssertSolver");
        render_histogram(
            "Fig. 3: Histogram of correct answers across sampled responses (x-axis: c)",
            &[
                (&sft.name, &sft.evaluation),
                (&solver.name, &solver.evaluation),
            ],
            self.samples,
        )
    }

    /// Figure 4: AssertSolver vs the strongest closed-source surrogates per bug type
    /// and code length.
    pub fn fig4(&self) -> String {
        let solver = self.checkpoint("AssertSolver");
        let strong: Vec<(&str, &ModelEvaluation)> = self
            .baselines
            .iter()
            .filter(|b| {
                b.name.contains("GPT-4") || b.name.contains("Claude") || b.name.contains("o1")
            })
            .map(|b| (b.name.as_str(), &b.evaluation))
            .chain(std::iter::once((solver.name.as_str(), &solver.evaluation)))
            .collect();
        let mut out = render_breakdown(
            "Fig. 4a/4b: Comparison with closed-source surrogate models",
            &strong,
            "pass@1",
            |p| p.pass1,
        );
        out.push('\n');
        out.push_str(&render_breakdown(
            "Fig. 4a/4b (continued)",
            &strong,
            "pass@5",
            |p| p.pass5,
        ));
        out
    }

    /// Figure 5: SFT model vs AssertSolver per bug type and code length.
    pub fn fig5(&self) -> String {
        let sft = self.checkpoint("SFT");
        let solver = self.checkpoint("AssertSolver");
        let models: Vec<(&str, &ModelEvaluation)> = vec![
            (sft.name.as_str(), &sft.evaluation),
            (solver.name.as_str(), &solver.evaluation),
        ];
        let mut out = render_breakdown(
            "Fig. 5a: SFT model vs AssertSolver under different scenarios",
            &models,
            "pass@1",
            |p| p.pass1,
        );
        out.push('\n');
        out.push_str(&render_breakdown(
            "Fig. 5b: SFT model vs AssertSolver under different scenarios",
            &models,
            "pass@5",
            |p| p.pass5,
        ));
        out
    }

    /// All experiments concatenated (`experiments all`).
    pub fn all(&self) -> String {
        let mut out = String::new();
        for section in [
            self.table1(),
            self.table2(),
            self.table3(),
            self.table4(),
            self.fig3(),
            self.fig4(),
            self.fig5(),
        ] {
            out.push_str(&section);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_regenerates_every_artifact() {
        let suite = ExperimentSuite::new(Scale::Quick, 41);
        let table1 = suite.table1();
        assert!(table1.contains("Non_cond"));
        let table2 = suite.table2();
        assert!(table2.contains("SVA-Eval"));
        let table3 = suite.table3();
        assert!(table3.contains("AssertSolver"));
        let table4 = suite.table4();
        assert!(table4.contains("o1-preview (surrogate)"));
        assert!(suite.fig3().contains("Histogram"));
        assert!(suite.fig4().contains("Bug type"));
        assert!(suite.fig5().contains("SFT"));

        // Headline shape of Table III: trained checkpoints beat the base model.
        let base = suite.checkpoints[0].overall();
        let solver = suite.checkpoints[2].overall();
        assert!(solver.pass1 > base.pass1);
    }

    #[test]
    fn scale_from_env_defaults_to_quick() {
        std::env::remove_var("ASSERTSOLVER_SCALE");
        assert_eq!(Scale::from_env(), Scale::Quick);
    }

    #[test]
    fn scale_parsing_is_case_insensitive_and_trims() {
        // Regression: only the exact strings "full"/"FULL" selected the full
        // scale; "Full" or " full " silently ran the quick experiments.
        assert_eq!(Scale::from_raw(Some("Full")), Scale::Full);
        assert_eq!(Scale::from_raw(Some(" full ")), Scale::Full);
        assert_eq!(Scale::from_raw(Some("QUICK")), Scale::Quick);
        assert_eq!(Scale::from_raw(Some("ful")), Scale::Quick);
        assert_eq!(Scale::from_raw(Some("")), Scale::Quick);
        assert_eq!(Scale::from_raw(None), Scale::Quick);
    }
}
