//! The failure path: a panicking judge is counted in the memo metrics, a
//! judged case still journals **exactly one** record, and the sink stays
//! fully drainable.
//!
//! The contract under test: a **panicking judge** is absorbed into a failed
//! verdict and counted in `verdict_panics`: the case still journals its one
//! record of counts, and nothing stays buffered after a drain.

use svserve::{
    verdict_case_state, verdict_key_of_fields, JournalRecord, JournalSink, Memo, VerifyConfig,
};

#[test]
fn judge_panic_is_counted_and_journals_a_single_completed_terminal() {
    let sink = JournalSink::shared();
    let tracer = sink.handle();
    let verifier = Memo::verdicts(VerifyConfig::default());

    let judge = |tag: &str, line: &str| {
        let case = format!("case {tag}");
        let case_state = verdict_case_state(&[case.as_bytes()]);
        let buggy_line = "assign y = 0;";
        let key = verdict_key_of_fields(case_state, 1, buggy_line, line, None, b"journal-failures");
        let work = || {
            if line.contains("boom") {
                panic!("judge blew up");
            }
            let verdict = line.contains(case.as_str());
            verifier.tally(verdict);
            verdict
        };
        verifier.serve(key, work).expect("memo open").value
    };

    assert!(
        judge("good", "fix case good"),
        "healthy judge path still verdicts"
    );
    assert!(
        !judge("bad", "boom"),
        "absorbed panic serves a failed verdict"
    );
    // The case is journaled once judged: two samples, two distinct, one correct.
    tracer.case(400, 2, 2, 1);

    assert_eq!(verifier.metrics().verdict_panics, 1);
    let record = JournalRecord {
        session: 400,
        samples: 2,
        candidates: 2,
        correct: 1,
    };
    assert_eq!(
        sink.drain_sorted(),
        [record],
        "the session survives the judge panic with its one record and nothing else"
    );
    assert!(
        sink.drain_sorted().is_empty(),
        "a second drain must find no stranded records"
    );
    verifier.close();
}
