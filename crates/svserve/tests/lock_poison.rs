//! Regression: a panic inside user code (the model or a judge) must never
//! poison the service's internal locks.  Before `svserve::sync::lock_recover`,
//! a panic that unwound while a memo cache or metrics mutex was held left the
//! mutex poisoned, and every *later* submission — healthy requests included —
//! died in `lock().unwrap()` cascades.  These tests drive the full service
//! through a panic and prove the pool keeps serving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use svmodel::{CaseInput, RepairModel, Response};
use svserve::{RepairRequest, RepairService, ServiceConfig};

const PANIC_BAIT: &str = "panic-bait";

/// Panics the first time it sees a bait case, answers normally otherwise — so
/// one request can crash a solve and a retry of the *same* key can succeed.
struct TouchyModel {
    calls: AtomicUsize,
    panics: AtomicUsize,
}

impl RepairModel for TouchyModel {
    fn name(&self) -> &str {
        "touchy"
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        _temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if case.spec.contains(PANIC_BAIT) && self.panics.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("model choked on a malformed case");
        }
        (0..samples)
            .map(|i| Response {
                bug_line_number: 1 + i as u32,
                buggy_line: case.buggy_source.clone(),
                fixed_line: format!("seed-{seed}-sample-{i}"),
                cot: None,
            })
            .collect()
    }
}

fn request(spec: &str, tag: usize) -> RepairRequest {
    RepairRequest::new(
        CaseInput {
            spec: format!("{spec} {tag}"),
            buggy_source: format!("module m{tag}(); endmodule"),
            logs: format!("assertion a{tag} failed"),
        },
        2,
        0.2,
    )
}

#[test]
fn a_model_panic_does_not_poison_later_submissions() {
    let model = Arc::new(TouchyModel {
        calls: AtomicUsize::new(0),
        panics: AtomicUsize::new(0),
    });
    let service = RepairService::start(Arc::clone(&model), ServiceConfig::default().with_seed(7));

    // The poisoned request: the memo's catch_unwind absorbs the panic and
    // the waiter gets an empty (failed) response set instead of hanging.
    let crashed = service
        .submit(request(PANIC_BAIT, 0))
        .expect("pool open")
        .wait();
    assert!(
        crashed.responses.is_empty(),
        "a crashed solve yields no responses"
    );
    assert_eq!(service.metrics().solve_panics, 1, "the panic is counted");

    // Healthy requests afterwards are served normally — the memo cache and
    // metrics the panicking thread touched must not be poisoned.
    for tag in 1..6 {
        let outcome = service
            .submit(request("spec", tag))
            .expect("pool open")
            .wait();
        assert_eq!(
            outcome.responses.len(),
            2,
            "case {tag} served after the panic"
        );
    }

    // Panic outcomes are not cached, so retrying the bait key reaches the
    // model again — and this time (the model only panics once) it succeeds
    // and the answer caches like any other.
    let retried = service
        .submit(request(PANIC_BAIT, 0))
        .expect("pool open")
        .wait();
    assert_eq!(retried.responses.len(), 2, "a retry recovers the case");
    assert!(!retried.from_cache);
    let cached = service
        .submit(request(PANIC_BAIT, 0))
        .expect("pool open")
        .wait();
    assert!(cached.from_cache, "the recovered answer is cached");

    let metrics = service.shutdown();
    assert_eq!(metrics.solve_panics, 1);
    assert_eq!(
        model.calls.load(Ordering::SeqCst),
        7,
        "panic + 5 healthy + 1 retry; the cache hit never reaches the model"
    );
}
