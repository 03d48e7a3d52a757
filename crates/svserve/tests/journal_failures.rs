//! Journal behaviour on the failure paths: every way a session can end must
//! journal **exactly one** terminal event and leave the sink fully drainable.
//!
//! The contracts under test:
//!
//! * a **shed** session journals one `Terminal { Shed }` when admission
//!   refuses its submission, and the owner's later `finish` does not
//!   double-journal (first terminal wins);
//! * a **panicking judge** is absorbed into a failed verdict: the session
//!   still journals one `Terminal { Completed }`, the panic surfaces as a
//!   volatile `Panic` diagnostic, and nothing stays buffered after a drain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use svmodel::{CaseInput, RepairModel, Response};
use svserve::{
    verdict_key, JournalEvent, JournalMode, JournalRecord, JournalSink, JournalSpec, RepairRequest,
    RepairService, ServiceConfig, SessionEnd, SessionSpan, SubmitError, VerifyConfig, VerifyPool,
    VerifyRequest, TERMINAL_SEQ,
};

struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

struct GatedModel {
    gate: Arc<Gate>,
    calls: AtomicUsize,
}

impl RepairModel for GatedModel {
    fn name(&self) -> &str {
        "gated"
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        _temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        self.gate.wait_open();
        self.calls.fetch_add(1, Ordering::SeqCst);
        (0..samples)
            .map(|i| Response {
                bug_line_number: 1 + i as u32,
                buggy_line: case.buggy_source.clone(),
                fixed_line: format!("fix seed {seed} sample {i}"),
                cot: None,
            })
            .collect()
    }
}

fn request(tag: usize) -> RepairRequest {
    RepairRequest::new(
        CaseInput {
            spec: format!("spec {tag}"),
            buggy_source: format!("module m{tag}(); endmodule"),
            logs: format!("assertion a{tag} failed"),
        },
        2,
        0.2,
    )
}

fn gated_service(gate: &Arc<Gate>, config: ServiceConfig) -> RepairService<GatedModel> {
    RepairService::start(
        Arc::new(GatedModel {
            gate: Arc::clone(gate),
            calls: AtomicUsize::new(0),
        }),
        config,
    )
}

/// The terminal records of `session`, in drain order.
fn terminals(records: &[JournalRecord], session: u64) -> Vec<SessionEnd> {
    records
        .iter()
        .filter(|r| r.session == session && r.seq == TERMINAL_SEQ)
        .map(|r| match &r.event {
            JournalEvent::Terminal { outcome } => *outcome,
            other => panic!("terminal seq carries non-terminal event {other:?}"),
        })
        .collect()
}

/// Asserts the sink is empty after a drain: no stranded buffer slots.
fn assert_fully_drained(sink: &Arc<JournalSink>) {
    let counters = sink.counters();
    assert_eq!(counters.buffered, 0, "drain must leave nothing buffered");
    assert!(
        sink.drain_sorted().is_empty(),
        "a second drain must find no stranded records"
    );
}

#[test]
fn shed_sessions_journal_one_shed_terminal_that_wins_over_finish() {
    let sink = JournalSink::shared(JournalSpec::default());
    let tracer = sink.handle();
    let gate = Gate::new();
    let service = gated_service(
        &gate,
        ServiceConfig::default()
            .with_workers(2)
            .with_max_in_flight(4),
    );

    // Gate shut: nothing completes, so exactly 4 of 10 submissions are
    // admitted and the other 6 shed.
    let spans: Vec<SessionSpan> = (0..10)
        .map(|tag| SessionSpan::new(&tracer, 300 + tag as u64))
        .collect();
    let mut tickets = Vec::new();
    for (tag, span) in spans.iter().enumerate() {
        match service.submit(request(tag)) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Busy) => span.handle().shed(),
            Err(SubmitError::Closed) => panic!("pool must be open"),
        }
    }
    let metrics = service.metrics();
    assert_eq!((metrics.in_flight_sessions, metrics.shed_busy), (4, 6));
    gate.open();
    for ticket in tickets {
        ticket.wait();
    }
    // The owner finish must not overwrite a Shed terminal.
    for span in &spans {
        span.finish();
    }
    drop(spans);

    let records = sink.drain_sorted();
    let mut served = 0usize;
    let mut shed = 0usize;
    for tag in 0..10u64 {
        let ends = terminals(&records, 300 + tag);
        assert_eq!(
            ends.len(),
            1,
            "session {tag} must journal exactly one terminal"
        );
        match ends[0] {
            SessionEnd::Shed => shed += 1,
            SessionEnd::Completed => served += 1,
            other => panic!("unexpected terminal {other:?} for session {tag}"),
        }
    }
    assert_eq!(shed, 6, "every shed session journals Shed");
    assert_eq!(served, 4, "every admitted session journals Completed");
    assert_fully_drained(&sink);
    service.shutdown();
}

#[test]
fn judge_panic_journals_a_diagnostic_and_a_single_completed_terminal() {
    // Full mode so the volatile Panic diagnostic is serialized, not only
    // counted.
    let sink = JournalSink::shared(JournalSpec::default().with_mode(JournalMode::Full));
    let tracer = sink.handle();
    let verifier: VerifyPool<String> = VerifyPool::start(
        Arc::new(|case: &String, response: &Response| {
            if response.fixed_line.contains("boom") {
                panic!("judge blew up");
            }
            response.fixed_line.contains(case.as_str())
        }),
        VerifyConfig {
            workers: 1,
            ..VerifyConfig::default()
        }
        .with_tracer(tracer.clone()),
    );

    let make = |tag: &str, line: &str| {
        let case = format!("case {tag}");
        let response = Response {
            bug_line_number: 1,
            buggy_line: "assign y = 0;".to_string(),
            fixed_line: line.to_string(),
            cot: None,
        };
        let key = verdict_key(&[case.as_bytes()], &response, b"journal-failures");
        VerifyRequest::new(Arc::new(case), response, key)
    };

    let span = SessionSpan::new(&tracer, 400);
    let good = verifier
        .submit(make("good", "fix case good"))
        .expect("pool open");
    let bad = verifier.submit(make("bad", "boom")).expect("pool open");
    assert!(good.wait().verdict, "healthy judge path still verdicts");
    assert!(
        !bad.wait().verdict,
        "absorbed panic serves a failed verdict"
    );
    span.finish();
    drop(span);

    assert_eq!(verifier.metrics().verdict_panics, 1);
    let records = sink.drain_sorted();
    assert_eq!(
        terminals(&records, 400),
        vec![SessionEnd::Completed],
        "the session survives the judge panic with one Completed terminal"
    );
    let panics = records
        .iter()
        .filter(|r| matches!(&r.event, JournalEvent::Panic { pool } if pool == "verify"))
        .count();
    assert_eq!(panics, 1, "the absorbed panic surfaces as one diagnostic");
    assert_fully_drained(&sink);
    verifier.shutdown();
}
