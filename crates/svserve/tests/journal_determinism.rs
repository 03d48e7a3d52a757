//! Byte-determinism of the session journal: the rendered JSONL is a pure
//! function of `(model, corpus, protocol)`.
//!
//! Extends the `async_determinism` contract from evaluation *results* to the
//! observability artifact itself: the journal records logical ticks (no wall
//! clock), session-keyed sequence numbers (no arrival order) and only
//! deterministic events by default (no cache-temperature leakage), so its
//! bytes must be identical at any driver count and with warm or cold caches.

use assertsolver::{evaluate_model_journaled, EvalConfig, JournalManifest};
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, RepairModel};
use svserve::{parse_journal, JournalEvent, TERMINAL_SEQ};

fn corpus(limit: usize) -> Vec<SvaBugEntry> {
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(31));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(limit);
    assert!(!entries.is_empty());
    entries
}

fn config(drivers: usize) -> EvalConfig {
    EvalConfig {
        workers: 2,
        verify_workers: 2,
        drivers,
        ..EvalConfig::quick(37)
    }
}

#[test]
fn journal_bytes_identical_at_1_2_4_8_drivers() {
    let entries = corpus(6);
    let model = AssertSolverModel::base(9);
    let manifest = JournalManifest::for_protocol("", "", &model.identity(), &entries, &config(1));
    let (baseline_eval, baseline) =
        evaluate_model_journaled(&model, &entries, &config(1), &manifest);
    let parsed = parse_journal(&baseline).expect("baseline journal parses");
    assert!(
        parsed.footer.events > 0,
        "journal must record session events"
    );

    for drivers in [2usize, 4, 8] {
        let (eval, rendered) =
            evaluate_model_journaled(&model, &entries, &config(drivers), &manifest);
        assert_eq!(
            baseline_eval, eval,
            "evaluation must be identical at {drivers} drivers"
        );
        assert_eq!(
            baseline, rendered,
            "journal bytes must be identical at {drivers} drivers"
        );
    }
}

#[test]
fn journal_bytes_identical_with_warm_and_cold_disk_caches() {
    let dir = std::env::temp_dir().join(format!(
        "assertsolver-journal-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = corpus(5);
    let model = AssertSolverModel::base(11);
    let with_cache = |drivers: usize| EvalConfig {
        cache_dir: Some(dir.display().to_string()),
        ..config(drivers)
    };
    let manifest =
        JournalManifest::for_protocol("", "", &model.identity(), &entries, &with_cache(1));

    // Cold pass populates the snapshots; warm passes replay them at other
    // driver counts.  Cache temperature is volatile state — it must never
    // reach the default journal.
    let (cold_eval, cold) = evaluate_model_journaled(&model, &entries, &with_cache(1), &manifest);
    for drivers in [2usize, 8] {
        let (warm_eval, warm) =
            evaluate_model_journaled(&model, &entries, &with_cache(drivers), &manifest);
        assert_eq!(cold_eval, warm_eval, "warm evaluation must match cold");
        assert_eq!(
            cold, warm,
            "journal bytes must be identical warm vs cold at {drivers} drivers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_certifies_the_evaluation_and_one_terminal_per_session() {
    let entries = corpus(4);
    let model = AssertSolverModel::base(9);
    let manifest = JournalManifest::for_protocol("", "", &model.identity(), &entries, &config(2));
    let (evaluation, rendered) = evaluate_model_journaled(&model, &entries, &config(2), &manifest);
    let parsed = parse_journal(&rendered).expect("journal parses");

    // The footer payload is the run's serialized evaluation — the byte-equality
    // `svobs replay` asserts covers the outcome, not only the event stream.
    let payload = serde_json::to_string(&evaluation).expect("evaluation serializes");
    assert_eq!(parsed.footer.payload, payload);
    assert_eq!(parsed.header.manifest, manifest.render());

    // Exactly one terminal per journaled session, and sessions cover the corpus.
    let mut sessions: Vec<u64> = parsed.records.iter().map(|r| r.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions.len(), entries.len());
    for session in sessions {
        let terminals = parsed
            .records
            .iter()
            .filter(|r| {
                r.session == session
                    && r.seq == TERMINAL_SEQ
                    && matches!(r.event, JournalEvent::Terminal { .. })
            })
            .count();
        assert_eq!(terminals, 1, "session {session:x} must have one terminal");
    }
}
