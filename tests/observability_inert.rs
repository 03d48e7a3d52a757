//! An observability facility never changes the evaluation: with the session
//! journal, the stage profile or the trace plane on — one at a time and all
//! together — [`Evaluation::run`] returns the `ModelEvaluation` the
//! unobserved run returns, and each facility that is on has recorded
//! something: eight journal records per case, the three `evaluate;…` stage
//! frames and one five-span tree per case.  (What the facilities cost is
//! measured by `svbench`: `svserve.{journal,trace,telemetry}.eval_s` in
//! `BENCHMARK.json`.)

use assertsolver::{evaluate_model, EvalConfig, EvalVerifier, Evaluation, JournalManifest};
use std::sync::Arc;
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, RepairModel};
use svserve::{parse_journal, MetricsRegistry, TelemetryHandle, TraceForest, TraceHandle};

/// The mixed corpus the determinism suites sweep: machine-generated pipeline
/// cases, then the human-crafted set.
fn corpus() -> Vec<SvaBugEntry> {
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(31));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(8);
    entries
}

#[test]
fn journal_telemetry_and_trace_leave_the_evaluation_unchanged() {
    let entries = corpus();
    let model = AssertSolverModel::base(9);
    let config = EvalConfig {
        workers: 2,
        verify_workers: 2,
        ..EvalConfig::quick(37)
    };
    let baseline = evaluate_model(&model, &entries, &config);
    let manifest = JournalManifest::for_protocol("", "", &model.identity(), &entries, &config);

    // (journal, telemetry, trace)
    for facilities in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, true),
    ] {
        let (journal_on, telemetry_on, trace_on) = facilities;
        let telemetry = TelemetryHandle::new(Arc::new(MetricsRegistry::new()));
        let trace = TraceHandle::new(0);
        let verifier = EvalVerifier::start(&config);
        let mut evaluation = Evaluation::new(&model, &entries, &config).verifier(&verifier);
        if journal_on {
            evaluation = evaluation.journal(&manifest);
        }
        if telemetry_on {
            evaluation = evaluation.telemetry(&telemetry);
        }
        if trace_on {
            evaluation = evaluation.trace(&trace);
        }
        let run = evaluation.run();
        verifier.shutdown();
        assert_eq!(
            baseline, run.evaluation,
            "(journal, telemetry, trace) = {facilities:?} changed the evaluation"
        );

        let records = run.journal.map(|journal| {
            let parsed = parse_journal(&journal).expect("the journal parses");
            parsed.records.len()
        });
        assert_eq!(
            records,
            journal_on.then_some(8 * entries.len()),
            "eight journal records per case exactly when the journal is on ({facilities:?})"
        );
        let frames = run.profile.map(|profile| {
            assert!(profile.total() > 0, "the stages took time ({facilities:?})");
            let frames = profile.frames().map(|(stack, _)| stack.to_string());
            frames.collect::<Vec<_>>()
        });
        let stages = ["evaluate;report", "evaluate;sessions", "evaluate;setup"];
        assert_eq!(
            frames,
            telemetry_on.then(|| stages.map(String::from).to_vec()),
            "the three stage frames exactly when telemetry is on ({facilities:?})"
        );
        let forest = TraceForest::from_spans(trace.drain());
        let traced = if trace_on { entries.len() } else { 0 };
        assert_eq!(
            (forest.sessions().len(), forest.len()),
            (traced, 5 * traced),
            "one session root with submit/sample/verify/evaluate per case ({facilities:?})"
        );
        if trace_on {
            let stacks: Vec<String> = forest
                .collapsed()
                .frames()
                .map(|(stack, _)| stack.to_string())
                .collect();
            assert_eq!(
                stacks,
                [
                    "session",
                    "session;evaluate",
                    "session;sample",
                    "session;submit",
                    "session;verify"
                ]
            );
        }
    }
}

/// The trace plane and the session journal compose on one run: the
/// evaluation is the plain one, the journal bytes are those of a trace-off
/// journaled run, and the forest holds one five-span tree per case.
#[test]
fn trace_and_journal_compose_on_one_run() {
    let entries = corpus();
    let model = AssertSolverModel::base(9);
    let config = EvalConfig {
        workers: 2,
        verify_workers: 2,
        ..EvalConfig::quick(41)
    };
    let manifest = JournalManifest::for_protocol("", "", &model.identity(), &entries, &config);
    let plain = Evaluation::new(&model, &entries, &config).run();
    let journaled = Evaluation::new(&model, &entries, &config)
        .journal(&manifest)
        .run();
    let trace = TraceHandle::new(0);
    let both = Evaluation::new(&model, &entries, &config)
        .journal(&manifest)
        .trace(&trace)
        .run();

    assert_eq!(both.evaluation, plain.evaluation);
    assert_eq!(journaled.evaluation, plain.evaluation);
    let journal = both.journal.expect("the journal is on");
    assert_eq!(
        Some(journal),
        journaled.journal,
        "tracing moved journal bytes"
    );
    let forest = TraceForest::from_spans(trace.drain());
    assert!(!forest.is_empty(), "the traced run collected spans");
    assert_eq!(
        (forest.sessions().len(), forest.len()),
        (entries.len(), 5 * entries.len())
    );
}

/// Which artifacts a run leaves, per facility: `journal-<slug>-<hash>.jsonl`
/// in the journal directory with the journal on; `trace-<slug>-<hash>.jsonl`
/// (tracing on) and `profile-<slug>-<hash>.folded` (telemetry on) in the
/// profile directory; nothing otherwise.  The directories are config fields,
/// never process env, so parallel tests cannot see each other's.
#[test]
fn artifacts_are_named_by_facility() {
    let entries: Vec<SvaBugEntry> = assertsolver::human_crafted_cases()
        .into_iter()
        .take(2)
        .collect();
    let model = AssertSolverModel::base(9);
    let slug: String = model
        .identity()
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let root = std::env::temp_dir().join(format!("artifact-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    for (journal_on, trace_on, telemetry_on) in [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (true, false, true),
        (false, true, true),
        (true, true, true),
    ] {
        let facilities = (journal_on, trace_on, telemetry_on);
        let case = root.join(format!(
            "{}{}{}",
            journal_on as u8, trace_on as u8, telemetry_on as u8
        ));
        let (journal_dir, profile_dir) = (case.join("journal"), case.join("profile"));
        let config = EvalConfig {
            journal_dir: Some(journal_dir.display().to_string()),
            profile_dir: Some(profile_dir.display().to_string()),
            ..EvalConfig::quick(43)
        };
        let manifest = JournalManifest::for_protocol("", "", &model.identity(), &entries, &config);
        let (trace, telemetry) = (
            TraceHandle::new(0),
            TelemetryHandle::new(Arc::new(MetricsRegistry::new())),
        );
        let mut evaluation = Evaluation::new(&model, &entries, &config);
        if journal_on {
            evaluation = evaluation.journal(&manifest);
        }
        if trace_on {
            evaluation = evaluation.trace(&trace);
        }
        if telemetry_on {
            evaluation = evaluation.telemetry(&telemetry);
        }
        let run = evaluation.run();

        let listing = |dir: &std::path::Path| -> Vec<(String, String)> {
            let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .map(|entry| entry.expect("dir entry").path())
                        .map(|path| {
                            let name = path.file_name().unwrap().to_string_lossy().to_string();
                            (
                                name,
                                std::fs::read_to_string(&path).expect("artifact reads"),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            files.sort();
            files
        };
        let (journals, profiles) = (listing(&journal_dir), listing(&profile_dir));
        let kinds = |files: &[(String, String)]| -> Vec<String> {
            files
                .iter()
                .map(|(name, _)| {
                    let (kind, rest) = name.split_once('-').expect("kind prefix");
                    let (stem, ext) = rest.rsplit_once('.').expect("extension");
                    let hash = stem
                        .strip_prefix(&format!("{slug}-"))
                        .unwrap_or_else(|| panic!("{name} carries the model slug"));
                    assert!(
                        hash.len() == 8 && hash.chars().all(|c| c.is_ascii_hexdigit()),
                        "{name} ends in an 8-digit hash"
                    );
                    format!("{kind}.{ext}")
                })
                .collect()
        };
        let expected_journals: Vec<&str> = if journal_on {
            vec!["journal.jsonl"]
        } else {
            vec![]
        };
        let mut expected_profiles = Vec::new();
        if telemetry_on {
            expected_profiles.push("profile.folded");
        }
        if trace_on {
            expected_profiles.push("trace.jsonl");
        }
        assert_eq!(kinds(&journals), expected_journals, "{facilities:?}");
        assert_eq!(kinds(&profiles), expected_profiles, "{facilities:?}");

        // Each artifact holds what the run returned or collected.
        for (name, text) in journals.iter().chain(&profiles) {
            let expected = match name.split_once('-').expect("kind prefix").0 {
                "journal" => run.journal.clone().expect("journal on"),
                "profile" => run.profile.as_ref().expect("telemetry on").render(),
                _ => TraceForest::from_spans(trace.drain()).render_jsonl(),
            };
            assert_eq!(text, &expected, "{name} content ({facilities:?})");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
