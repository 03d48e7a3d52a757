//! Byte pin over every parse the flow makes: the `svgen` family goldens and
//! the default corpus, its degraded samples, each golden's `BugInjector`
//! mutants, the human-crafted cases and the judge's hostile line edits (the
//! fuzz inputs are pinned beside their private generator, by `svfuzz`'s
//! `generate::tests::parse_pin_of_generated_inputs`).
//!
//! Each source's `svparse::parse_module` result is rendered with `{:?}` (the
//! module with every span, or the `ParseError` with its message and line),
//! hashed with FNV-1a (64 bit) and compared with
//! `tests/golden/parse-digests.txt`, one `<name> <hex digest>` line per
//! source.  A swept source has two lines: one over every edit's
//! `FrontEnd::edit_line` answer in turn, one over every edited text's
//! whole parse.  The `#` lines at the top count, per group, the sources that
//! parsed and those that did not.  Stage 1 writes a sample's parse error into
//! Verilog-PT, so an error's message and line are held as tightly as a tree.
//!
//! Every test prints the lines it computed, each after a `parse-digest: `
//! tag; to re-record (only in a change that means to move a parse):
//!
//! ```text
//! cargo test -q --no-fail-fast -p assertsolver-repro -p svfuzz parse_pin -- --nocapture \
//!   | sed -n 's/^.*parse-digest: //p' | sort > tests/golden/parse-digests.txt
//! ```

#[path = "../crates/core/tests/support/line_edits.rs"]
mod line_edits;

#[path = "support/parse_digests.rs"]
mod parse_digests;

use assertsolver::{apply_line_edit, human_crafted_cases};
use parse_digests::{fnv64, Group, FNV_BASIS};
use svgen::{corrupt_random, instantiate, CorpusConfig, CorpusGenerator, Family, FamilyParams};
use svmutate::BugInjector;
use svparse::{emit_module, parse_module, FrontEnd};

/// Every family at every variant, at the default parameters.
fn family_goldens() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (index, &family) in Family::all().iter().enumerate() {
        for variant in 0..4 {
            let params = FamilyParams {
                variant,
                ..FamilyParams::default()
            };
            let source = instantiate(family, params, index).source;
            out.push((format!("{family}/v{variant}"), source));
        }
    }
    out
}

#[test]
fn parse_pin_of_the_corpus_its_corruptions_and_mutants() {
    let mut group = Group::default();
    for (name, source) in family_goldens() {
        group.parse(format!("corpus/family/{name}"), &source);
    }
    let corpus = CorpusGenerator::new(CorpusConfig::default());
    for (index, sample) in corpus.generate().iter().enumerate() {
        group.parse(format!("corpus/corpus/{index:03}"), &sample.source);
    }
    for (index, golden) in corpus.golden_designs().iter().enumerate() {
        for seed in 0..4 {
            let degraded = corrupt_random(&golden.source, (index * 4 + seed) as u64).source;
            group.parse(format!("corpus/corrupt/{index:02}/{seed}"), &degraded);
        }
        let module = parse_module(&golden.source).expect("a corpus golden parses");
        let mutants = BugInjector::new(index as u64).inject_batch(&module, 8);
        assert!(!mutants.is_empty(), "no mutant of {}", module.name);
        for (at, mutant) in mutants.iter().enumerate() {
            let text = emit_module(&mutant.buggy);
            group.parse(format!("corpus/mutant/{index:02}/{at}"), &text);
        }
    }
    assert!(group.errored > 0, "no degraded sample fails to parse");
    group.check("corpus");
}

#[test]
fn parse_pin_of_human_cases_and_hostile_line_edits() {
    let mut group = Group::default();
    let human = human_crafted_cases();
    assert!(!human.is_empty(), "the human cases exist");
    let mut swept = Vec::new();
    for (index, case) in human.iter().enumerate() {
        group.parse(format!("edits/human/{index}/buggy"), &case.buggy_source);
        group.parse(format!("edits/human/{index}/golden"), &case.golden_source);
        swept.push((format!("human/{index}"), case.buggy_source.clone()));
    }
    swept.extend(family_goldens());
    for (index, (name, source)) in swept.iter().enumerate() {
        let edits = line_edits::sweep(source, index as u64);
        let front_end = FrontEnd::new(source).expect("a swept source parses");
        let (mut delta, mut whole) = (FNV_BASIS, FNV_BASIS);
        for (line, text) in &edits {
            let answer = front_end.edit_line(*line, text);
            delta = fnv64(delta, format!("{answer:?}").as_bytes());
            let edited = apply_line_edit(source, *line, text).expect("the line exists");
            whole = group.fold(whole, &parse_module(&edited));
        }
        group
            .lines
            .push((format!("edits/sweep/{name}/delta"), format!("{delta:016x}")));
        group
            .lines
            .push((format!("edits/sweep/{name}/whole"), format!("{whole:016x}")));
    }
    assert!(group.errored > 0, "no hostile edit fails to parse");
    group.check("edits");
}
