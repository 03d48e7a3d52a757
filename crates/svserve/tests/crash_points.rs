//! Crash-point sweep: a writer that dies mid-file leaves a prefix of what it
//! meant to write.  Every prefix of a snapshot must load as a cold start
//! (`Rejected` or `Missing`) or as exactly the full file's contents, and every
//! prefix of a journal must parse as an error or exactly — never as a
//! different answer.

use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;
use svmodel::Response;
use svserve::cache::ContentKey;
use svserve::journal::parse_journal;
use svserve::persist::{
    load_response_snapshot, load_verdict_snapshot, save_response_snapshot, save_verdict_snapshot,
    SnapshotLoad,
};
use svserve::{CaseKey, PersistSpec, VerdictKey};

const GOLDEN_JOURNAL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/journal-quick-seed9-limit6.jsonl"
);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svserve-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Writes every prefix of the snapshot `spec` names to a second path and loads
/// it; returns how many prefixes loaded (the whole file among them).
fn sweep<T: PartialEq + Debug>(
    spec: &PersistSpec,
    load: impl Fn(&PersistSpec) -> SnapshotLoad<T>,
) -> usize {
    let full = std::fs::read(&spec.path).expect("snapshot was saved");
    let SnapshotLoad::Loaded(original) = load(spec) else {
        panic!("the whole snapshot loads");
    };
    let cut = PersistSpec {
        path: spec.path.with_extension("cut"),
        ..spec.clone()
    };
    let mut loaded = 0;
    for len in 0..=full.len() {
        std::fs::write(&cut.path, &full[..len]).expect("temp dir is writable");
        match load(&cut) {
            SnapshotLoad::Missing | SnapshotLoad::Rejected(_) => {}
            SnapshotLoad::Loaded(contents) => {
                assert_eq!(
                    contents, original,
                    "the {len}-byte prefix loads differently"
                );
                loaded += 1;
            }
        }
    }
    loaded
}

#[test]
fn every_prefix_of_a_verdict_snapshot_is_a_cold_start_or_exact() {
    let dir = temp_dir("verdicts");
    let spec = PersistSpec::new(dir.join("verdicts.json"), b"check", "-");
    let entries = (0..4u128)
        .map(|i| (VerdictKey::from_raw(i * 0x9e37_79b9_7f4a_7c15), i % 3 == 0))
        .collect();
    save_verdict_snapshot(&spec, entries).expect("save");
    assert_eq!(sweep(&spec, load_verdict_snapshot), 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_prefix_of_a_response_snapshot_is_a_cold_start_or_exact() {
    let dir = temp_dir("responses");
    let spec = PersistSpec::new(dir.join("responses.json"), b"seed", "model [0123]");
    let response = |line: u32, cot: Option<&str>| Response {
        bug_line_number: line,
        buggy_line: "  assign q = a & b; // \"é\"".to_string(),
        fixed_line: "  assign q = a | b;\t€ 😀".to_string(),
        cot: cot.map(str::to_string),
    };
    let entries = vec![
        (
            CaseKey::from_raw(7),
            Arc::new(vec![response(3, Some("line 3\nflips")), response(0, None)]),
        ),
        (CaseKey::from_raw(u128::MAX), Arc::new(Vec::new())),
    ];
    save_response_snapshot(&spec, entries).expect("save");
    assert_eq!(sweep(&spec, load_response_snapshot), 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_prefix_of_the_golden_journal_is_an_error_or_exact() {
    let text = std::fs::read_to_string(GOLDEN_JOURNAL).expect("read golden journal");
    let original = parse_journal(&text).expect("the golden journal parses");
    let mut parsed = 0;
    for len in 0..text.len() {
        // A cut inside a character is not text; reading the file rejects it.
        let Ok(prefix) = std::str::from_utf8(&text.as_bytes()[..len]) else {
            continue;
        };
        if let Ok(journal) = parse_journal(prefix) {
            assert_eq!(
                journal, original,
                "the {len}-byte prefix parses differently"
            );
            parsed += 1;
        }
    }
    // Not even the file without its final newline parses: the footer's
    // checksum is taken over the text up to the newline that precedes it.
    assert_eq!(parsed, 0);
}
