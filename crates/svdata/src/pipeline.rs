//! The three-stage data-augmentation pipeline (Fig. 2-(I) of the paper).
//!
//! * **Stage 1 — filtering and syntax checking**: duplicates and logic-free modules
//!   are dropped; sources that fail the compile check become *Verilog-PT* entries
//!   together with a failure analysis; healthy sources proceed.
//! * **Stage 2 — key-component generation and validation**: bugs are injected
//!   (`svmutate`), the golden design's SVAs are validated with the bounded checker
//!   (`svverify`), and every bug is checked: bugs that trigger assertion failures
//!   become *SVA-Bug* cases (with logs from `svsim`), bugs that do not become
//!   *Verilog-Bug* entries.  [`ValidatedGolden::derive`] is this step for one bug;
//!   the human-crafted SVA-Eval cases and the fuzz corpus derive through it too.
//! * **Stage 3 — CoT generation and validation**: a static-analysis "teacher"
//!   produces a chain of thought for each case; CoTs whose predicted buggy line
//!   matches the golden solution are kept (the paper reports ≈74.55 % validity).

use crate::entries::{Datasets, SvaBugEntry, VerilogBugEntry, VerilogPtEntry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use svgen::{render_spec, CorpusConfig, CorpusGenerator, Family, RawSample};
use svmutate::{classify_visibility, single_line_diff, BugInjector, BugProfile, InjectedBug};
use svparse::{emit_module, parse_module, Module};
use svsim::failing_assertions_in_log;
use svverify::{CheckConfig, SvaValidity, Verdict, VerifyOracle};

/// Configuration of a full pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// How many bug candidates to inject per golden design.
    pub bugs_per_design: usize,
    /// Bounded-check configuration used for all validation.
    pub check: CheckConfig,
    /// Fraction of module names routed to the training split (the paper uses 0.9).
    pub train_fraction: f64,
    /// Seed for injection, CoT noise and the split shuffle.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            corpus: CorpusConfig::default(),
            bugs_per_design: 6,
            check: CheckConfig {
                depth: 12,
                random_cases: 24,
                ..CheckConfig::default()
            },
            train_fraction: 0.9,
            seed: 0xDA7A,
        }
    }
}

impl PipelineConfig {
    /// A small configuration suitable for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            corpus: CorpusConfig {
                golden_designs: 8,
                ..CorpusConfig::default()
            },
            bugs_per_design: 2,
            check: CheckConfig {
                depth: 10,
                random_cases: 8,
                ..CheckConfig::default()
            },
            train_fraction: 0.75,
            seed,
        }
    }
}

/// A design accepted by Stage 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceptedDesign {
    /// Module name.
    pub module_name: String,
    /// Canonical golden source.
    pub source: String,
    /// Synthesised specification.
    pub spec: String,
    /// Originating design family.
    pub family: Family,
}

/// Output of Stage 1.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Stage1Output {
    /// Designs that passed filtering and the compile check.
    pub accepted: Vec<AcceptedDesign>,
    /// Pretraining entries (failed-compile sources with analyses plus healthy text).
    pub verilog_pt: Vec<VerilogPtEntry>,
    /// Number of duplicate sources removed.
    pub duplicates_removed: usize,
    /// Number of sources rejected for having no functional logic.
    pub trivial_rejected: usize,
    /// Number of sources rejected by the compile check (they remain in Verilog-PT).
    pub compile_rejected: usize,
}

/// One validated assertion-failure case produced by Stage 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SvaCase {
    /// Module name.
    pub module_name: String,
    /// Specification text.
    pub spec: String,
    /// Canonical golden source.
    pub golden_source: String,
    /// Canonical buggy source.
    pub buggy_source: String,
    /// Simulation log showing the assertion failures.
    pub logs: String,
    /// Failing assertion names.
    pub failing_assertions: Vec<String>,
    /// 1-based buggy line number.
    pub bug_line_number: u32,
    /// Buggy line text.
    pub buggy_line: String,
    /// Corrected line text.
    pub fixed_line: String,
    /// Table-I profile.
    pub profile: BugProfile,
    /// Lines of buggy code.
    pub code_lines: usize,
}

impl SvaCase {
    /// The SVA-Bug entry of this case, with Stage 3's validated CoT (if any).
    pub fn into_entry(self, cot: Option<String>, human_crafted: bool) -> SvaBugEntry {
        SvaBugEntry {
            module_name: self.module_name,
            spec: self.spec,
            buggy_source: self.buggy_source,
            golden_source: self.golden_source,
            logs: self.logs,
            failing_assertions: self.failing_assertions,
            bug_line_number: self.bug_line_number,
            buggy_line: self.buggy_line,
            fixed_line: self.fixed_line,
            profile: self.profile,
            cot,
            code_lines: self.code_lines,
            human_crafted,
        }
    }
}

/// Output of Stage 2.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Stage2Output {
    /// Bug–SVA pairs that trigger assertion failures.
    pub cases: Vec<SvaCase>,
    /// Bugs that did not trigger any assertion (Verilog-Bug entries).
    pub verilog_bug: Vec<VerilogBugEntry>,
    /// Designs whose SVAs were invalid on the golden code (discarded).
    pub invalid_sva_designs: usize,
    /// Mutants discarded because they could not be simulated or diffed.
    pub discarded_mutants: usize,
}

/// Output of Stage 3 and the full pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineOutput {
    /// The three datasets of Fig. 2.
    pub datasets: Datasets,
    /// Stage-1 bookkeeping.
    pub stage1: Stage1Output,
    /// Stage-2 bookkeeping (without the cases, which are in `datasets.sva_bug`).
    pub invalid_sva_designs: usize,
    /// Number of mutants discarded during validation.
    pub discarded_mutants: usize,
    /// Fraction of generated CoTs that passed validation.
    pub cot_valid_fraction: f64,
}

/// Stage 1: filtering and syntax checking.
pub fn stage1_filter(corpus: &[RawSample]) -> Stage1Output {
    let mut out = Stage1Output::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for sample in corpus {
        if !seen.insert(sample.source.clone()) {
            out.duplicates_removed += 1;
            continue;
        }
        match parse_module(&sample.source) {
            Ok(module) => {
                if !module.has_functional_logic() {
                    out.trivial_rejected += 1;
                    continue;
                }
                let canonical = emit_module(&module);
                let spec = render_spec(&module, &sample.function);
                match svparse::compile_check(&canonical) {
                    Ok(_) => {
                        out.verilog_pt.push(VerilogPtEntry {
                            source: canonical.clone(),
                            spec: spec.clone(),
                            failure_analysis: None,
                        });
                        out.accepted.push(AcceptedDesign {
                            module_name: module.name.clone(),
                            source: canonical,
                            spec,
                            family: sample.family,
                        });
                    }
                    Err(err) => {
                        out.compile_rejected += 1;
                        out.verilog_pt.push(VerilogPtEntry {
                            source: sample.source.clone(),
                            spec,
                            failure_analysis: Some(err.to_string()),
                        });
                    }
                }
            }
            Err(err) => {
                // Could not even parse: synthesise a minimal spec from the raw text.
                out.compile_rejected += 1;
                out.verilog_pt.push(VerilogPtEntry {
                    source: sample.source.clone(),
                    spec: format!("Function: {}", sample.function),
                    failure_analysis: Some(err.to_string()),
                });
            }
        }
    }
    out
}

/// A golden design whose SVAs hold within the bound, ready for Stage 2's step
/// ([`ValidatedGolden::derive`]).
#[derive(Debug, Clone)]
pub struct ValidatedGolden<'a> {
    oracle: &'a VerifyOracle,
    module: &'a Module,
    text: String,
    module_name: &'a str,
    spec: &'a str,
}

/// What Stage 2 makes of one injected bug.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage2Outcome {
    /// The bug triggers an assertion failure: an SVA-Bug case with its log.
    Case(SvaCase),
    /// The bug violates no assertion within the bound: a Verilog-Bug entry.
    VerilogBug(VerilogBugEntry),
    /// The bug is not a single-line edit, or cannot be checked or simulated.
    Discard,
}

impl<'a> ValidatedGolden<'a> {
    /// Validates the golden design's SVAs, exactly like running SymbiYosys on the
    /// un-mutated code; `None` unless they are [`SvaValidity::Valid`].  The
    /// module name and spec are recorded on every derived entry.
    pub fn validate(
        oracle: &'a VerifyOracle,
        module: &'a Module,
        module_name: &'a str,
        spec: &'a str,
    ) -> Option<Self> {
        if oracle.sva_valid_on_golden(module) != SvaValidity::Valid {
            return None;
        }
        Some(Self {
            oracle,
            module,
            text: emit_module(module),
            module_name,
            spec,
        })
    }

    /// Stage 2 on one bug: diff the canonical texts to one line, require an
    /// assertion-failure witness within the bound, simulate it for the log and
    /// classify the bug's visibility.
    pub fn derive(&self, bug: &InjectedBug) -> Stage2Outcome {
        let buggy_text = emit_module(&bug.buggy);
        let Some(diff) = single_line_diff(&self.text, &buggy_text) else {
            return Stage2Outcome::Discard;
        };
        let witness = match self.oracle.bug_triggers_failure(&bug.buggy) {
            Err(_) => return Stage2Outcome::Discard,
            Ok(Some(Verdict::Fail { witness, .. })) => witness,
            Ok(_) => {
                // Bug compiles and simulates but never violates an assertion:
                // keep it as a Verilog-Bug (functional bug) entry.
                return Stage2Outcome::VerilogBug(VerilogBugEntry {
                    module_name: self.module_name.to_string(),
                    spec: self.spec.to_string(),
                    buggy_source: buggy_text,
                    golden_source: self.text.clone(),
                    bug_line_number: diff.line,
                    buggy_line: diff.buggy_line,
                    fixed_line: diff.golden_line,
                });
            }
        };
        let Ok(outcome) = svsim::simulate(&bug.buggy, &witness) else {
            return Stage2Outcome::Discard;
        };
        let failing = failing_assertions_in_log(&outcome.log);
        let visibility = classify_visibility(self.module, &bug.affected_signals, &failing);
        Stage2Outcome::Case(SvaCase {
            module_name: self.module_name.to_string(),
            spec: self.spec.to_string(),
            golden_source: self.text.clone(),
            code_lines: buggy_text.lines().count(),
            buggy_source: buggy_text,
            logs: outcome.log,
            failing_assertions: failing,
            bug_line_number: diff.line,
            buggy_line: diff.buggy_line,
            fixed_line: diff.golden_line,
            profile: BugProfile::new(bug.kind, bug.structural, visibility),
        })
    }
}

/// Stage 2: bug/SVA generation and tool-based validation.
pub fn stage2_generate(accepted: &[AcceptedDesign], config: &PipelineConfig) -> Stage2Output {
    let oracle = VerifyOracle::new(config.check.clone());
    let mut out = Stage2Output::default();
    for (design_index, design) in accepted.iter().enumerate() {
        let Ok(module) = parse_module(&design.source) else {
            out.discarded_mutants += 1;
            continue;
        };
        let Some(golden) =
            ValidatedGolden::validate(&oracle, &module, &design.module_name, &design.spec)
        else {
            out.invalid_sva_designs += 1;
            continue;
        };
        let mut injector =
            BugInjector::new(config.seed ^ (design_index as u64).wrapping_mul(0x9E37));
        for bug in injector.inject_batch(&module, config.bugs_per_design) {
            match golden.derive(&bug) {
                Stage2Outcome::Case(case) => out.cases.push(case),
                Stage2Outcome::VerilogBug(entry) => out.verilog_bug.push(entry),
                Stage2Outcome::Discard => out.discarded_mutants += 1,
            }
        }
    }
    out
}

/// Stage 3: chain-of-thought generation and validation.
///
/// Returns the SVA-Bug entries and the fraction of CoTs that passed validation.
pub fn stage3_cot(cases: Vec<SvaCase>, seed: u64) -> (Vec<SvaBugEntry>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut valid = 0usize;
    let total = cases.len().max(1);
    let entries = cases
        .into_iter()
        .map(|case| {
            let (predicted_line, cot_text) = teacher_cot(&case, &mut rng);
            let cot = if predicted_line == case.bug_line_number {
                valid += 1;
                Some(cot_text)
            } else {
                None
            };
            case.into_entry(cot, false)
        })
        .collect();
    (entries, valid as f64 / total as f64)
}

/// The "teacher" CoT generator: a static analysis that walks back from the failing
/// assertion's signals and nominates the most suspicious line, then explains the
/// chain.  Like GPT-4 in the paper, it is imperfect — deep or indirect bugs make it
/// nominate the wrong line, and those CoTs are discarded by validation.
fn teacher_cot(case: &SvaCase, rng: &mut StdRng) -> (u32, String) {
    use rand::Rng;
    let Ok(buggy) = parse_module(&case.buggy_source) else {
        return (0, String::new());
    };
    let mut assertion_signals: Vec<String> = Vec::new();
    for name in &case.failing_assertions {
        assertion_signals.extend(svmutate::signals_of_assertion(&buggy, name));
    }
    assertion_signals.sort();
    assertion_signals.dedup();
    let graph = svparse::DependencyGraph::build(&buggy);
    let mut cone_signals: BTreeSet<&str> = assertion_signals.iter().map(String::as_str).collect();
    for signal in &assertion_signals {
        cone_signals.extend(graph.cone_of_influence(signal));
    }

    // Candidate lines: design statements touching any signal the assertion can observe
    // (directly or through its fan-in cone).
    let mut candidates: Vec<(u32, String)> = Vec::new();
    for (idx, line) in case.buggy_source.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let trimmed = line.trim();
        if trimmed.starts_with("property")
            || trimmed.starts_with("assert")
            || trimmed.starts_with("endproperty")
            || trimmed.starts_with("module")
            || trimmed.starts_with("input")
            || trimmed.starts_with("output")
        {
            continue;
        }
        if cone_signals.iter().any(|s| trimmed.contains(s)) {
            candidates.push((line_no, trimmed.to_string()));
        }
    }
    if candidates.is_empty() {
        return (0, String::new());
    }

    // The teacher is given the bug location (as in the paper), but its reasoning only
    // survives validation when it can actually connect the line to the failing
    // assertion: bugs on signals the assertion reads directly are always explained
    // correctly, deeper bugs are explained correctly most of the time, and bugs
    // outside the observable cone send it to the wrong line.
    let bug_line_text = case.buggy_line.as_str();
    let touches_assertion_signal = assertion_signals
        .iter()
        .any(|s| bug_line_text.contains(s.as_str()));
    let touches_cone_signal = cone_signals.iter().any(|s| bug_line_text.contains(s));
    let pick = if touches_assertion_signal || (touches_cone_signal && rng.gen_bool(0.72)) {
        (case.bug_line_number, bug_line_text.to_string())
    } else {
        candidates
            .iter()
            .find(|(line, _)| *line != case.bug_line_number)
            .cloned()
            .or_else(|| candidates.choose(rng).cloned())
            .expect("candidates checked non-empty")
    };
    let explanation = format!(
        "The failing assertion {} observes the signals [{}]. Tracing their drivers, the statement `{}` (line {}) controls the observed behaviour, and its logic contradicts the specification, so it is the buggy line; replacing it with `{}` restores the intended behaviour.",
        case.failing_assertions.join(", "),
        assertion_signals.join(", "),
        pick.1,
        pick.0,
        case.fixed_line
    );
    (pick.0, explanation)
}

/// Runs the complete pipeline: corpus → Stage 1 → Stage 2 → Stage 3.
pub fn run_pipeline(config: &PipelineConfig) -> PipelineOutput {
    let corpus = CorpusGenerator::new(config.corpus).generate();
    let stage1 = stage1_filter(&corpus);
    let stage2 = stage2_generate(&stage1.accepted, config);
    let invalid_sva_designs = stage2.invalid_sva_designs;
    let discarded_mutants = stage2.discarded_mutants;
    let verilog_bug = stage2.verilog_bug.clone();
    let (sva_bug, cot_valid_fraction) = stage3_cot(stage2.cases, config.seed ^ 0xC07);
    PipelineOutput {
        datasets: Datasets {
            verilog_pt: stage1.verilog_pt.clone(),
            verilog_bug,
            sva_bug,
        },
        stage1,
        invalid_sva_designs,
        discarded_mutants,
        cot_valid_fraction,
    }
}

/// A train/evaluation split of SVA-Bug entries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainTestSplit {
    /// Training entries (~90 % of module names).
    pub train: Vec<SvaBugEntry>,
    /// Held-out evaluation entries (SVA-Eval-Machine).
    pub eval: Vec<SvaBugEntry>,
}

/// Splits entries by module name within code-length bins, mirroring the paper's
/// three-step procedure (bin by length, enumerate unique module names, uniformly pick
/// `train_fraction` of names per bin for training).
pub fn split_by_module(
    entries: Vec<SvaBugEntry>,
    train_fraction: f64,
    seed: u64,
) -> TrainTestSplit {
    let mut rng = StdRng::seed_from_u64(seed);
    // Bin index → unique module names.
    let mut names_per_bin: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for entry in &entries {
        names_per_bin
            .entry(svgen::length_bin_index(entry.code_lines))
            .or_default()
            .insert(entry.module_name.clone());
    }
    let mut train_names: BTreeSet<String> = BTreeSet::new();
    for names in names_per_bin.values() {
        let mut shuffled: Vec<String> = names.iter().cloned().collect();
        shuffled.shuffle(&mut rng);
        let take = ((shuffled.len() as f64) * train_fraction).round() as usize;
        // Keep at least one name on each side whenever the bin has two or more names.
        let take = if shuffled.len() > 1 {
            take.clamp(1, shuffled.len() - 1)
        } else {
            shuffled.len()
        };
        for name in shuffled.into_iter().take(take) {
            train_names.insert(name);
        }
    }
    let mut split = TrainTestSplit::default();
    for entry in entries {
        if train_names.contains(&entry.module_name) {
            split.train.push(entry);
        } else {
            split.eval.push(entry);
        }
    }
    split
}

/// Distribution of a set of SVA-Bug entries across length bins and bug-type labels —
/// the raw material of Table II.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Distribution {
    /// Counts per Table-II length bin, indexed like [`svgen::LENGTH_BINS`].
    pub per_length_bin: [usize; 5],
    /// Counts per bug-type label (`Direct`, `Indirect`, `Var`, `Value`, `Op`, `Cond`,
    /// `Non_cond`), in Table-I order.
    pub per_bug_type: BTreeMap<String, usize>,
    /// Total entries.
    pub total: usize,
}

/// Computes the Table-II distribution of a set of entries.
pub fn distribution(entries: &[SvaBugEntry]) -> Distribution {
    let mut dist = Distribution {
        total: entries.len(),
        ..Distribution::default()
    };
    for label in svmutate::TABLE1_LABELS {
        dist.per_bug_type.insert(label.to_string(), 0);
    }
    for entry in entries {
        dist.per_length_bin[svgen::length_bin_index(entry.code_lines)] += 1;
        for label in entry.profile.labels() {
            *dist.per_bug_type.entry(label.to_string()).or_insert(0) += 1;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_output() -> PipelineOutput {
        run_pipeline(&PipelineConfig::tiny(11))
    }

    #[test]
    fn stage1_filters_duplicates_trivial_and_broken() {
        let corpus = CorpusGenerator::new(CorpusConfig {
            golden_designs: 16,
            corrupted_fraction: 0.5,
            duplicate_fraction: 0.2,
            seed: 3,
        })
        .generate();
        let out = stage1_filter(&corpus);
        assert!(!out.accepted.is_empty());
        assert!(out.duplicates_removed >= 1);
        assert!(out.compile_rejected + out.trivial_rejected >= 1);
        // Every rejected-for-compilation sample must appear in Verilog-PT with an
        // analysis.
        let analysed = out
            .verilog_pt
            .iter()
            .filter(|e| e.failure_analysis.is_some())
            .count();
        assert_eq!(analysed, out.compile_rejected);
    }

    #[test]
    fn full_pipeline_produces_all_three_datasets() {
        let out = tiny_output();
        assert!(!out.datasets.verilog_pt.is_empty(), "Verilog-PT is empty");
        assert!(!out.datasets.sva_bug.is_empty(), "SVA-Bug is empty");
        // Every SVA-Bug entry carries logs naming a failing assertion and a
        // golden fix that differs from the buggy line.
        for entry in &out.datasets.sva_bug {
            assert!(entry.logs.contains("failed assertion"));
            assert!(!entry.failing_assertions.is_empty());
            assert_ne!(entry.buggy_line, entry.fixed_line);
            assert!(entry.bug_line_number >= 1);
        }
        assert!(out.cot_valid_fraction > 0.2 && out.cot_valid_fraction <= 1.0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = run_pipeline(&PipelineConfig::tiny(5));
        let b = run_pipeline(&PipelineConfig::tiny(5));
        assert_eq!(a.datasets.sva_bug.len(), b.datasets.sva_bug.len());
        assert_eq!(
            a.datasets.sva_bug.first().map(|e| e.buggy_line.clone()),
            b.datasets.sva_bug.first().map(|e| e.buggy_line.clone())
        );
    }

    #[test]
    fn some_cots_are_validated_and_attached() {
        let out = tiny_output();
        let with_cot = out
            .datasets
            .sva_bug
            .iter()
            .filter(|e| e.cot.is_some())
            .count();
        assert!(with_cot >= 1, "no CoT passed validation");
        for entry in out.datasets.sva_bug.iter().filter(|e| e.cot.is_some()) {
            let cot = entry.cot.as_ref().unwrap();
            assert!(cot.contains("failing assertion") || cot.contains("observes"));
        }
    }

    #[test]
    fn split_keeps_modules_disjoint() {
        let out = tiny_output();
        let split = split_by_module(out.datasets.sva_bug, 0.75, 9);
        let train_names: BTreeSet<&String> = split.train.iter().map(|e| &e.module_name).collect();
        let eval_names: BTreeSet<&String> = split.eval.iter().map(|e| &e.module_name).collect();
        assert!(train_names.is_disjoint(&eval_names));
        assert!(!split.train.is_empty());
        assert!(!split.eval.is_empty());
    }

    #[test]
    fn distribution_counts_add_up() {
        let out = tiny_output();
        let dist = distribution(&out.datasets.sva_bug);
        assert_eq!(dist.total, out.datasets.sva_bug.len());
        let bin_total: usize = dist.per_length_bin.iter().sum();
        assert_eq!(bin_total, dist.total);
        // Each of the three axes partitions the set.
        let direct = dist.per_bug_type["Direct"] + dist.per_bug_type["Indirect"];
        let structural = dist.per_bug_type["Cond"] + dist.per_bug_type["Non_cond"];
        let kinds = dist.per_bug_type["Var"] + dist.per_bug_type["Value"] + dist.per_bug_type["Op"];
        assert_eq!(direct, dist.total);
        assert_eq!(structural, dist.total);
        assert_eq!(kinds, dist.total);
    }
}
