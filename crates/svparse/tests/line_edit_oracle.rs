//! The one-item delta against the whole-text parse it replaces.
//!
//! `svparse::FrontEnd::edit_line` lexes one line and re-parses one item; the
//! judge used to parse `apply_line_edit`'s whole edited text.  Wherever the
//! delta answers, the module it implies (the front end's module with the edited
//! item in place) must equal, spans included, `parse_module` of the edited
//! text, and `is_no_op` must equal `emits_as(edited module, source)`; where the
//! whole text does not parse, the delta must decline.  The inputs are every
//! distinct judged candidate of an `eval_cold` round and of `experiments all`
//! at both scales, and a seeded sweep of hostile texts over every line of the
//! round's cases (also with block comments and strings that span lines) and
//! of every fuzz-corpus module.

#[path = "../../core/tests/support/line_edits.rs"]
mod line_edits;

use assertsolver::apply_line_edit;
use line_edits::CaseEdits;
use line_edits::{eval_cold_cases, eval_cold_edits, experiments_edits, fuzz_sources, sweep};
use svparse::{emits_as, parse_module, FrontEnd};

/// How many edits a set drove, how many the delta answered, how many parse
/// as whole texts, and how many answered edits were no-ops.
#[derive(Debug, Default)]
struct Tally {
    edits: usize,
    answered: usize,
    parsed: usize,
    no_ops: usize,
}

/// Drives `edits` against `source` through both paths and holds them equal.
fn check(source: &str, edits: &[(u32, String)], tally: &mut Tally) {
    let front_end = FrontEnd::new(source).expect("the source parses");
    for (line, text) in edits {
        let whole = apply_line_edit(source, *line, text).map(|edited| parse_module(&edited));
        let parsed = matches!(whole, Some(Ok(_)));
        tally.edits += 1;
        tally.parsed += usize::from(parsed);
        let Some(edit) = front_end.edit_line(*line, text) else {
            continue;
        };
        tally.answered += 1;
        let Some(Ok(expected)) = whole else {
            panic!(
                "the delta answered line {line} `{text:?}`, whose text does not parse:\n{source}"
            );
        };
        let mut module = front_end.module().clone();
        module.items[edit.index()] = edit.item().clone();
        assert_eq!(module, expected, "line {line} `{text:?}` of\n{source}");
        let no_op = front_end.is_no_op(source, &edit);
        assert_eq!(
            no_op,
            emits_as(&expected, source),
            "the no-op answer of line {line} `{text:?}` of\n{source}"
        );
        tally.no_ops += usize::from(no_op);
    }
}

fn check_cases(set: &str, cases: &[CaseEdits]) -> Tally {
    let mut tally = Tally::default();
    for case in cases {
        check(&case.entry.buggy_source, &case.edits, &mut tally);
    }
    println!("{set}: {tally:?}");
    assert!(tally.answered > 0, "{set}: the delta answered nothing");
    tally
}

#[test]
fn the_delta_is_the_whole_parse_on_every_eval_cold_candidate() {
    let tally = check_cases("eval_cold", &eval_cold_edits());
    // Every candidate that parses is a one-item edit the delta answers.
    assert_eq!(tally.answered, tally.parsed, "{tally:?}");
    assert!(tally.answered * 100 >= tally.edits * 97, "{tally:?}");
}

#[test]
fn the_delta_is_the_whole_parse_on_every_quick_scale_experiments_candidate() {
    check_cases("experiments quick", &experiments_edits(false));
}

#[test]
fn the_delta_is_the_whole_parse_on_every_full_scale_experiments_candidate() {
    check_cases("experiments full", &experiments_edits(true));
}

/// `source` with lexemes that span lines: a three-line block comment after
/// every line that opens a block, and every assertion message split over
/// three lines.  The middle lines hold no delimiter; only the lexer's state
/// at their start says they are inside a comment or a string.
fn spanning_lexemes(source: &str) -> String {
    let mut out = String::new();
    for line in source.lines() {
        match line.split_once("$error(\"") {
            Some((head, message)) => {
                out.push_str(&format!("{head}$error(\"split\n    q <= 1;\n  {message}\n"));
            }
            None => out.push_str(&format!("{line}\n")),
        }
        if line.trim_end().ends_with("begin") {
            out.push_str("    /* a note\n    q <= 1;\n    */\n");
        }
    }
    out
}

#[test]
fn the_delta_is_the_whole_parse_over_a_sweep_of_every_line_of_every_case() {
    let (_, cases) = eval_cold_cases();
    let mut tally = Tally::default();
    for (index, case) in cases.iter().enumerate() {
        let spanning = spanning_lexemes(&case.buggy_source);
        assert!(parse_module(&spanning).is_ok(), "{spanning}");
        for source in [&case.buggy_source, &case.golden_source, &spanning] {
            check(source, &sweep(source, index as u64), &mut tally);
        }
    }
    println!("sweep: {tally:?}");
    assert!(tally.answered < tally.edits, "{tally:?}");
    assert!(
        tally.no_ops > 0,
        "no edit rewrote a line as it was: {tally:?}"
    );
}

#[test]
fn the_delta_is_the_whole_parse_over_a_sweep_of_every_fuzz_corpus_module() {
    let sources = fuzz_sources();
    assert!(!sources.is_empty(), "no fuzz-corpus module parses");
    let mut tally = Tally::default();
    for (index, source) in sources.iter().enumerate() {
        check(source, &sweep(source, index as u64 ^ 0xF0), &mut tally);
    }
    println!("fuzz corpus: {tally:?}");
    assert!(tally.answered > 0, "{tally:?}");
}
