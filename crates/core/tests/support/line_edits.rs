//! The line edits the judge is asked about, for the suites that hold the
//! one-item delta (`svparse::FrontEnd`) equal to the whole-text path: every
//! distinct candidate of an `svbench` `eval_cold` round and of `experiments
//! all` at both scales, the fuzz corpus, and a seeded sweep over every line.

#![allow(dead_code)] // each including suite uses its own share

use assertsolver::{train, EvalConfig, TrainConfig};
use std::collections::BTreeSet;
use std::path::Path;
use svdata::{PipelineConfig, SvaBugEntry};
use svmodel::{all_baselines, CaseInput, RepairModel, Response};
use svserve::{serve_scoped, RepairRequest};

/// One (model, case) pair's distinct candidates that miss the textual fast
/// path: `(line, fixed_line)`, in sampling order.
pub struct CaseEdits {
    pub entry: SvaBugEntry,
    pub edits: Vec<(u32, String)>,
}

/// Whether `response_is_correct` decides the response by its text alone.
pub fn decided_by_text(entry: &SvaBugEntry, response: &Response) -> bool {
    let fix = response.fixed_line.trim();
    (response.bug_line_number == entry.bug_line_number && fix == entry.fixed_line.trim())
        || response.bug_line_number == 0
        || fix.is_empty()
}

/// Samples every case with every model under `config`'s service, and keeps
/// each (model, case) pair's distinct judged edits.
pub fn sampled_edits(
    models: &[&dyn RepairModel],
    cases: &[SvaBugEntry],
    config: &EvalConfig,
) -> Vec<CaseEdits> {
    let mut out = Vec::new();
    for model in models {
        let requests = cases
            .iter()
            .map(|entry| {
                let case = CaseInput::from_entry(entry);
                RepairRequest::new(case, config.samples, config.temperature)
            })
            .collect();
        let outcomes = serve_scoped(*model, config.service_config(), |service| {
            service.solve_all(requests)
        });
        for (entry, outcome) in cases.iter().zip(outcomes) {
            let mut seen = BTreeSet::new();
            let edits = (outcome.responses.iter())
                .filter(|response| !decided_by_text(entry, response))
                .map(|response| (response.bug_line_number, response.fixed_line.clone()))
                .filter(|edit| seen.insert(edit.clone()))
                .collect();
            let entry = entry.clone();
            out.push(CaseEdits { entry, edits });
        }
    }
    out
}

/// The training run and cases of an `svbench` `eval_cold` round: a
/// 16-design corpus, the first 16 SVA-Bug cases and the five human ones.
pub fn eval_cold_cases() -> (assertsolver::TrainedArtifacts, Vec<SvaBugEntry>) {
    let pipeline = PipelineConfig::default();
    let config = TrainConfig {
        pipeline: PipelineConfig {
            corpus: svgen::CorpusConfig {
                golden_designs: 16,
                ..pipeline.corpus
            },
            bugs_per_design: 4,
            ..pipeline
        },
        ..TrainConfig::default()
    };
    let artifacts = train(&config);
    let machine = artifacts.datasets.sva_bug.iter().take(16);
    let cases = machine.chain(&artifacts.sva_eval.human).cloned().collect();
    (artifacts, cases)
}

/// Every distinct judged candidate of an `eval_cold` round: the three
/// checkpoints, n = 20 at T = 0.2.
pub fn eval_cold_edits() -> Vec<CaseEdits> {
    let (artifacts, cases) = eval_cold_cases();
    let models: [&dyn RepairModel; 3] = [&artifacts.base, &artifacts.sft, &artifacts.assert_solver];
    sampled_edits(&models, &cases, &EvalConfig::default())
}

/// The training and evaluation protocol of `experiments all` (seed 2025) at
/// quick or full scale.
pub fn experiments_config(full: bool) -> (TrainConfig, EvalConfig) {
    let seed = 2025;
    if full {
        let pipeline = PipelineConfig::default();
        let train_config = TrainConfig {
            pipeline: PipelineConfig {
                corpus: svgen::CorpusConfig {
                    golden_designs: 96,
                    ..pipeline.corpus
                },
                bugs_per_design: 8,
                ..pipeline
            },
            ..TrainConfig::default()
        };
        let eval_config = EvalConfig {
            seed: seed ^ 0xE7,
            ..EvalConfig::default()
        };
        (train_config, eval_config)
    } else {
        (TrainConfig::quick(seed), EvalConfig::quick(seed ^ 0xE7))
    }
}

/// Every distinct judged candidate of `experiments all` at quick or full
/// scale: the three checkpoints and the six baselines over SVA-Eval.
pub fn experiments_edits(full: bool) -> Vec<CaseEdits> {
    let (train_config, eval_config) = experiments_config(full);
    let artifacts = train(&train_config);
    let baselines = all_baselines();
    let checkpoints: [&dyn RepairModel; 3] =
        [&artifacts.base, &artifacts.sft, &artifacts.assert_solver];
    let models: Vec<&dyn RepairModel> = (checkpoints.into_iter())
        .chain(baselines.iter().map(|b| b as &dyn RepairModel))
        .collect();
    sampled_edits(&models, &artifacts.sva_eval.all(), &eval_config)
}

/// Every source of the fuzz corpus that parses as one module.
pub fn fuzz_sources() -> Vec<String> {
    let root = (Path::new(env!("CARGO_MANIFEST_DIR")).ancestors())
        .map(|dir| dir.join("fuzz/corpus"))
        .find(|corpus| corpus.is_dir())
        .expect("the fuzz corpus is in the repository");
    let cases = svfuzz::load_corpus(&root).expect("the fuzz corpus loads");
    let sources = cases
        .into_iter()
        .flat_map(|(_, case)| [case.source, case.base_source]);
    let parses = |source: &String| svparse::parse_module(source).is_ok();
    sources.filter(parses).collect()
}

/// The sweep over every line of `source`: each of `svfuzz`'s hostile texts
/// (block keywords, `module m;`, comment and string delimiters, line breaks,
/// whitespace), the old
/// line with a trailing comment, and a line copied from elsewhere in the
/// source, drawn by a splitmix64 stream from `seed`.
pub fn sweep(source: &str, seed: u64) -> Vec<(u32, String)> {
    let lines: Vec<&str> = source.lines().collect();
    let mut state = seed;
    let mut draw = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let mut edits = Vec::new();
    for (at, old) in lines.iter().enumerate() {
        let line = at as u32 + 1;
        let hostile = svfuzz::oracle::HOSTILE_LINES.iter();
        edits.extend(hostile.map(|text| (line, text.to_string())));
        edits.push((line, format!("{} // comment", old.trim())));
        let other = lines[draw() % lines.len()];
        edits.push((line, other.to_string()));
    }
    edits
}
