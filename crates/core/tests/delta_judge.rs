//! The evaluation's judge against the whole-text judge it replaced.
//!
//! `JudgedCase::verdict` derives each candidate's module as a one-item delta
//! of the case's `svparse::FrontEnd` and lends it to the bounded check;
//! `response_is_correct` applies the edit to the text and parses it whole.  On
//! every distinct judged candidate of an `eval_cold` round and of
//! `experiments all` at both scales, and on a seeded sweep of hostile texts
//! over every line of the round's cases, the two verdicts must be equal.  One
//! `JudgedCase` judges all of a (model, case) pair's candidates in turn, as in
//! an evaluation, so each verdict also holds the front end restored after the
//! last.

#[path = "support/line_edits.rs"]
mod line_edits;

use assertsolver::{response_is_correct, EvalConfig, JudgedCase};
use line_edits::{
    eval_cold_cases, eval_cold_edits, experiments_config, experiments_edits, sweep, CaseEdits,
};
use svmodel::Response;
use svverify::VerifyOracle;

/// How many candidates a set judged, and how many of them passed.
#[derive(Debug, Default)]
struct Tally {
    judged: usize,
    passed: usize,
}

fn response(line: u32, text: &str) -> Response {
    Response {
        bug_line_number: line,
        buggy_line: String::new(),
        fixed_line: text.to_string(),
        cot: None,
    }
}

/// Judges each case's edits both ways on one `JudgedCase` per case.
fn check(set: &str, cases: &[CaseEdits], oracle: &VerifyOracle) -> Tally {
    let mut tally = Tally::default();
    for case in cases {
        let mut judged = JudgedCase::new(&case.entry);
        for (line, text) in &case.edits {
            let response = response(*line, text);
            let whole = response_is_correct(&case.entry, &response, oracle);
            assert_eq!(
                judged.verdict(&response, oracle),
                whole,
                "{set}: line {line} `{text:?}` of\n{}",
                case.entry.buggy_source
            );
            tally.judged += 1;
            tally.passed += usize::from(whole);
        }
    }
    println!("{set}: {tally:?}");
    assert!(tally.passed > 0, "{set}: no candidate passed");
    assert!(tally.passed < tally.judged, "{set}: every candidate passed");
    tally
}

#[test]
fn the_delta_judge_agrees_on_every_eval_cold_candidate() {
    let oracle = VerifyOracle::new(EvalConfig::default().check);
    check("eval_cold", &eval_cold_edits(), &oracle);
}

#[test]
fn the_delta_judge_agrees_on_every_experiments_candidate_at_both_scales() {
    for full in [false, true] {
        let oracle = VerifyOracle::new(experiments_config(full).1.check);
        check(
            &format!("experiments full={full}"),
            &experiments_edits(full),
            &oracle,
        );
    }
}

#[test]
fn the_delta_judge_agrees_over_a_sweep_of_every_line_of_every_case() {
    let (_, entries) = eval_cold_cases();
    let cases: Vec<CaseEdits> = (entries.into_iter().enumerate())
        .map(|(index, entry)| CaseEdits {
            edits: sweep(&entry.buggy_source, index as u64),
            entry,
        })
        .collect();
    check(
        "sweep",
        &cases,
        &VerifyOracle::new(EvalConfig::quick(7).check),
    );
}

#[test]
fn a_candidate_that_does_not_elaborate_leaves_the_front_end_whole() {
    let entry = assertsolver::human_crafted_cases()
        .into_iter()
        .find(|case| case.module_name == "accu_human")
        .expect("the Fig. 1 case");
    let lines = entry.buggy_source.lines();
    let assign = lines
        .take_while(|l| !l.trim_start().starts_with("assign "))
        .count() as u32
        + 1;
    let undeclared = response(assign, "assign end_cnt = no_such_signal;");
    let edited = assertsolver::apply_line_edit(&entry.buggy_source, assign, &undeclared.fixed_line);
    let module = svparse::parse_module(&edited.expect("the line exists")).expect("it parses");
    assert!(
        svsim::Design::from_module(module).is_err(),
        "it does not elaborate"
    );
    let front_end = svparse::FrontEnd::new(&entry.buggy_source).expect("the buggy source parses");
    assert!(
        front_end
            .edit_line(assign, &undeclared.fixed_line)
            .is_some(),
        "a delta edit"
    );
    let oracle = VerifyOracle::default();
    let mut judged = JudgedCase::new(&entry);
    assert!(!judged.verdict(&undeclared, &oracle));
    // The front end the failed elaboration took is derived again, and the
    // next candidate is judged against the buggy module, not a broken one.
    let equivalent = response(
        entry.bug_line_number,
        "else if (end_cnt && 1) valid_out <= 1;",
    );
    assert!(response_is_correct(&entry, &equivalent, &oracle));
    assert!(judged.verdict(&equivalent, &oracle));
    assert!(!judged.verdict(&undeclared, &oracle));
}
