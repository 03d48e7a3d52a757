//! An observability facility never changes the evaluation: with the session
//! journal, the stage profile or the trace plane on — one at a time and all
//! together — [`Evaluation::run`] returns the `ModelEvaluation` the
//! unobserved run returns, and each facility that is on has recorded
//! something: one journal record per case, the three `evaluate;…` stage
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
    let config = EvalConfig::quick(37);
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
            journal_on.then_some(entries.len()),
            "one journal record per case exactly when the journal is on ({facilities:?})"
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
    let config = EvalConfig::quick(41);
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

/// The one artifact a run leaves: `journal-<slug>-<hash>.jsonl` in the
/// resolved journal directory, holding the journal the run returned — with
/// the caller's manifest when [`Evaluation::journal`] is on, else a
/// record-only one with empty rebuild tags.  Tracing and the stage profile
/// write nothing.  The directory is a config field, never process env, so
/// parallel tests cannot see each other's.
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

    for observed in [false, true] {
        let journal_dir = root.join(format!("{}", observed as u8));
        let config = EvalConfig {
            journal_dir: Some(journal_dir.display().to_string()),
            ..EvalConfig::quick(43)
        };
        let manifest =
            JournalManifest::for_protocol("m", "c", &model.identity(), &entries, &config);
        let (trace, telemetry) = (
            TraceHandle::new(0),
            TelemetryHandle::new(Arc::new(MetricsRegistry::new())),
        );
        let mut evaluation = Evaluation::new(&model, &entries, &config);
        if observed {
            evaluation = evaluation
                .journal(&manifest)
                .trace(&trace)
                .telemetry(&telemetry);
        }
        let run = evaluation.run();

        let files: Vec<_> = std::fs::read_dir(&journal_dir)
            .expect("the run wrote its journal directory")
            .map(|entry| entry.expect("dir entry").path())
            .collect();
        assert_eq!(files.len(), 1, "one artifact ({observed})");
        let name = files[0].file_name().unwrap().to_string_lossy().to_string();
        let hash = (name.strip_prefix(&format!("journal-{slug}-")))
            .and_then(|rest| rest.strip_suffix(".jsonl"))
            .unwrap_or_else(|| panic!("{name} is journal-<slug>-<hash>.jsonl"));
        assert!(
            hash.len() == 8 && hash.chars().all(|c| c.is_ascii_hexdigit()),
            "{name} ends in an 8-digit hash"
        );
        let text = std::fs::read_to_string(&files[0]).expect("artifact reads");
        assert_eq!(Some(&text), run.journal.as_ref(), "{name} content");
        let header = parse_journal(&text).expect("the journal parses").header;
        let tags = JournalManifest::parse(&header.manifest).expect("the manifest parses");
        let tags = (tags.model_tag, tags.corpus_tag);
        let expected = if observed { ("m", "c") } else { ("", "") };
        assert_eq!(
            tags,
            (expected.0.into(), expected.1.into()),
            "{name} manifest"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
