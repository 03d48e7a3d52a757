//! The failure paths: a refused submission and a panicking judge are counted
//! in the pool metrics, a judged case still journals **exactly one**
//! terminal event, and the sink stays fully drainable.
//!
//! The contracts under test:
//!
//! * a **shed** submission is refused with `Busy` and counted in
//!   `shed_busy`, while the admitted ones are served;
//! * a **panicking judge** is absorbed into a failed verdict and counted in
//!   `verdict_panics`: the case still journals one `Terminal { Completed }`,
//!   and nothing stays buffered after a drain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use svmodel::{CaseInput, RepairModel, Response};
use svserve::{
    verdict_key, JournalEvent, JournalRecord, JournalSink, RepairRequest, RepairService,
    ServiceConfig, SessionEnd, SubmitError, VerifyConfig, VerifyPool, VerifyRequest, TERMINAL_SEQ,
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
fn shed_submissions_are_refused_and_counted() {
    let gate = Gate::new();
    let service = gated_service(
        &gate,
        ServiceConfig::default()
            .with_workers(2)
            .with_max_in_flight(4),
    );

    // Gate shut: four submitters park inside `solve`, holding every slot,
    // so exactly the 6 submissions after them are shed.
    let (admitted, shed) = std::thread::scope(|scope| {
        let parked: Vec<_> = (0..4)
            .map(|tag| {
                let service = &service;
                scope.spawn(move || service.submit(request(tag)).map(|t| t.wait()))
            })
            .collect();
        while service.metrics().in_flight_sessions < 4 {
            std::thread::yield_now();
        }
        let mut shed = 0usize;
        for tag in 4..10 {
            match service.submit(request(tag)) {
                Ok(_) => panic!("admitted past the in-flight limit"),
                Err(SubmitError::Busy) => shed += 1,
                Err(SubmitError::Closed) => panic!("pool must be open"),
            }
        }
        let metrics = service.metrics();
        assert_eq!((metrics.in_flight_sessions, metrics.shed_busy), (4, 6));
        gate.open();
        let served = parked.into_iter().map(|p| p.join().unwrap());
        (served.filter(Result::is_ok).count(), shed)
    });
    assert_eq!((admitted, shed), (4, 6));
    let metrics = service.shutdown();
    assert_eq!((metrics.submitted, metrics.completed), (4, 4));
    assert_eq!(
        metrics.shed_busy, 6,
        "a shed is counted once, in the metrics"
    );
}

#[test]
fn judge_panic_is_counted_and_journals_a_single_completed_terminal() {
    let sink = JournalSink::shared();
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
        },
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

    let good = verifier
        .submit(make("good", "fix case good"))
        .expect("pool open");
    let bad = verifier.submit(make("bad", "boom")).expect("pool open");
    assert!(good.wait().verdict, "healthy judge path still verdicts");
    assert!(
        !bad.wait().verdict,
        "absorbed panic serves a failed verdict"
    );
    // The case is journaled once judged: two samples, two distinct, one correct.
    tracer.case(400, 2, 2, 1);

    assert_eq!(verifier.metrics().verdict_panics, 1);
    let records = sink.drain_sorted();
    assert_eq!(
        terminals(&records, 400),
        vec![SessionEnd::Completed],
        "the session survives the judge panic with one Completed terminal"
    );
    assert_eq!(records.len(), 8, "the case's records and nothing else");
    assert_fully_drained(&sink);
    verifier.shutdown();
}
