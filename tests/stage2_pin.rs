//! Byte pin over every SVA-Bug derivation: the augmentation pipeline, the
//! human-crafted SVA-Eval cases and the fuzz corpus's bug entries.
//!
//! Each output is rendered with `serde_json::to_string`, hashed with FNV-1a
//! (64 bit) and compared with `tests/golden/stage2-digests.txt`, one
//! `<name> <hex digest>` line per output.  The experiment goldens only see
//! aggregates and a journal manifest hashes only a case's name, source, line
//! and fix, so this is the test that holds logs, specs, failing assertions,
//! profiles, CoTs and the Stage-1/Stage-2 counters byte for byte.
//!
//! The larger pipeline shapes run only in an optimised build.  Every test
//! prints the lines it computed, each after a `stage2-digest: ` tag; to
//! re-record (only in a change that means to move a Stage-2 byte):
//!
//! ```text
//! cargo test --release -q --test stage2_pin -- --nocapture \
//!   | sed -n 's/^.*stage2-digest: //p' | sort > tests/golden/stage2-digests.txt
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use svdata::{run_pipeline, PipelineConfig};

const GOLDEN: &str = include_str!("golden/stage2-digests.txt");

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV digest of an output's JSON text.
fn digest(json: Result<String, serde_json::Error>) -> String {
    let json = json.expect("Stage-2 outputs serialise");
    format!("{:016x}", fnv64(json.as_bytes()))
}

/// The pipeline's datasets and its Stage-1 and Stage-2 counters.
fn pipeline_digest(config: &PipelineConfig) -> String {
    let out = run_pipeline(config);
    let stage1 = (
        out.stage1.accepted.len(),
        out.stage1.duplicates_removed,
        out.stage1.trivial_rejected,
        out.stage1.compile_rejected,
    );
    let stage2 = (out.invalid_sva_designs, out.discarded_mutants);
    digest(serde_json::to_string(&(
        &out.datasets,
        stage1,
        stage2,
        out.cot_valid_fraction,
    )))
}

/// Prints every computed line and fails on any that the golden file does not
/// hold.
fn check(computed: &[(String, String)]) {
    let golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    let mut wrong = Vec::new();
    for (name, hash) in computed {
        println!("stage2-digest: {name} {hash}");
        match golden.get(name.as_str()) {
            Some(expected) if expected == hash => {}
            Some(expected) => wrong.push(format!("{name}: {hash}, golden {expected}")),
            None => wrong.push(format!("{name}: {hash}, not in the golden file")),
        }
    }
    assert!(
        wrong.is_empty(),
        "Stage-2 bytes moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn tiny_pipelines_human_cases_and_fuzz_entries_are_pinned() {
    let mut computed: Vec<(String, String)> = [1u64, 5, 11]
        .iter()
        .map(|&seed| {
            let config = PipelineConfig::tiny(seed);
            (format!("pipeline/tiny/{seed}"), pipeline_digest(&config))
        })
        .collect();
    computed.push((
        "human".to_string(),
        digest(serde_json::to_string(&assertsolver::human_crafted_cases())),
    ));
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz/corpus"));
    let cases = svfuzz::load_corpus(root).expect("corpus loads");
    assert!(!cases.is_empty(), "fuzz/corpus holds cases");
    for (path, case) in cases {
        let name = path.file_stem().unwrap().to_string_lossy();
        let entry = svfuzz::derive_entry(&case.base_source, case.derive_seed);
        assert!(entry.is_some(), "{name} derives an entry");
        computed.push((
            format!("fuzz/{}/{name}", case.family),
            digest(serde_json::to_string(&entry)),
        ));
    }
    check(&computed);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn quick_and_default_pipelines_are_pinned() {
    check(&[
        (
            "pipeline/quick/2025".to_string(),
            pipeline_digest(&assertsolver::TrainConfig::quick(2025).pipeline),
        ),
        (
            "pipeline/default".to_string(),
            pipeline_digest(&PipelineConfig::default()),
        ),
    ]);
}
