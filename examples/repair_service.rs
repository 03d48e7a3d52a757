//! Serving a 100-case mixed workload through the `svserve` repair service.
//!
//! Demonstrates the serving-layer guarantees:
//!
//! 1. **Serving with metrics** — a mixed workload (machine-generated pipeline
//!    cases, human-crafted cases, and duplicate resubmissions) runs through the
//!    service, solved on the submitting thread, and the run ends with a
//!    [`svserve::ServiceMetrics`] snapshot;
//! 2. **Determinism** — the same workload and seed produce byte-identical responses
//!    in submission order and in reverse;
//! 3. **Caching** — resubmitting an already-served case is answered from the
//!    content-addressed cache without invoking the model again;
//! 4. **Verdict cache** — candidate verdicts go through a second cache
//!    (`assertsolver::EvalVerifier`'s `svserve::Memo`), judged right after each
//!    case is sampled inside `evaluate_model`, and the cache survives across
//!    evaluation runs at any driver count;
//! 5. **Cache persistence** — both caches spill to versioned on-disk snapshots and
//!    preload at pool start, so a rebuilt service warm-starts from a previous one's
//!    work (see also `examples/warm_start.rs` for the cross-process variant).
//!
//! Run with `cargo run --release --example repair_service`.

use assertsolver::{evaluate_model_with, EvalConfig, EvalVerifier};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use svmodel::{AssertSolverModel, CaseInput, RepairModel, Response};
use svserve::{RepairRequest, RepairService, ServiceConfig};

/// Wraps a model and counts invocations so cache hits are observable.
struct Counting<M> {
    inner: M,
    calls: AtomicUsize,
}

impl<M: RepairModel> RepairModel for Counting<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.solve(case, samples, temperature, seed)
    }
}

/// A mixed workload of at least 100 requests: machine-generated bugs, human-crafted
/// cases, and enough duplicates to exercise the cache.
fn build_workload() -> Vec<RepairRequest> {
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig {
        corpus: svgen::CorpusConfig {
            golden_designs: 16,
            ..svgen::CorpusConfig::default()
        },
        bugs_per_design: 3,
        ..svdata::PipelineConfig::tiny(31)
    });
    let mut cases: Vec<CaseInput> = pipeline
        .datasets
        .sva_bug
        .iter()
        .map(CaseInput::from_entry)
        .collect();
    cases.extend(
        assertsolver::human_crafted_cases()
            .iter()
            .map(CaseInput::from_entry),
    );
    assert!(!cases.is_empty());
    (0..120)
        .map(|i| RepairRequest::new(cases[i % cases.len()].clone(), 4, 0.25))
        .collect()
}

fn serve(workload: Vec<RepairRequest>, order: &str, seed: u64) -> Vec<Arc<Vec<Response>>> {
    let model = Arc::new(Counting {
        inner: AssertSolverModel::base(11),
        calls: AtomicUsize::new(0),
    });
    let service =
        RepairService::start(Arc::clone(&model), ServiceConfig::default().with_seed(seed));
    let outcomes = service.solve_all(workload);
    let metrics = service.metrics();
    println!(
        "\n=== {order}: {} requests, {} model invocations ===",
        outcomes.len(),
        model.calls.load(Ordering::SeqCst),
    );
    println!("{}", metrics.render());
    service.shutdown();
    outcomes.into_iter().map(|o| o.responses).collect()
}

fn main() {
    let workload = build_workload();
    let distinct = workload
        .iter()
        .map(RepairRequest::key)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    println!(
        "workload: {} requests over {distinct} distinct cases (machine + human mixed)",
        workload.len(),
    );

    // 1 + 2: serve in submission order and in reverse, compare byte-for-byte.
    let seed = 0x00A5_5E27;
    let forward = serve(workload.clone(), "in order", seed);
    let mut reversed = workload.clone();
    reversed.reverse();
    let mut backward = serve(reversed, "reversed", seed);
    backward.reverse();
    let bytes = |sets: &[Arc<Vec<Response>>]| -> Vec<String> {
        sets.iter()
            .flat_map(|r| r.iter())
            .map(Response::to_json)
            .collect()
    };
    let forward_bytes = bytes(&forward);
    assert_eq!(
        forward_bytes,
        bytes(&backward),
        "determinism violated: in-order and reversed responses differ"
    );
    println!(
        "\nin-order and reversed responses are byte-identical ({} responses)",
        forward_bytes.len()
    );

    // 3: a repeated submission must be a cache hit that never reaches the model.
    let model = Arc::new(Counting {
        inner: AssertSolverModel::base(11),
        calls: AtomicUsize::new(0),
    });
    let service = RepairService::start(Arc::clone(&model), ServiceConfig::default());
    let request = workload[0].clone();
    let first = service.submit(request.clone()).unwrap().wait();
    let calls_after_first = model.calls.load(Ordering::SeqCst);
    let second = service.submit(request).unwrap().wait();
    assert!(!first.from_cache && second.from_cache);
    assert_eq!(first.responses, second.responses);
    assert_eq!(
        model.calls.load(Ordering::SeqCst),
        calls_after_first,
        "cache hit re-invoked the model"
    );
    println!(
        "repeat submission served from cache (model invoked {calls_after_first} time(s) total)"
    );
    let final_metrics = service.shutdown();
    assert_eq!(final_metrics.cache_hits, 1);

    // 4: the verdict cache — verdicts go through their own memo,
    // deterministic at any driver count, and cached across runs.
    let cases: Vec<_> = assertsolver::human_crafted_cases()
        .into_iter()
        .take(4)
        .collect();
    let single = EvalConfig {
        drivers: 1,
        ..EvalConfig::quick(2)
    };
    let parallel = EvalConfig {
        drivers: 4,
        ..single.clone()
    };
    let model = AssertSolverModel::base(11);
    let verifier = EvalVerifier::start(&parallel);
    let cold = evaluate_model_with(&model, &cases, &parallel, &verifier);
    let warm = evaluate_model_with(&model, &cases, &parallel, &verifier);
    assert_eq!(
        cold, warm,
        "a pre-warmed verdict cache changed evaluation results"
    );
    let verify_metrics = verifier.shutdown();
    assert!(verify_metrics.cache_hits > 0, "warm run must hit the cache");
    let one_driver = assertsolver::evaluate_model(&model, &cases, &single);
    assert_eq!(one_driver, cold, "driver count changed evaluation results");
    println!(
        "\nverdict cache: {} verdict jobs over {} cases, warm rerun identical \
         ({} cache hits); 1-driver and 4-driver evaluations identical\n",
        verify_metrics.completed,
        cases.len(),
        verify_metrics.cache_hits,
    );
    // The verification stage's own snapshot.
    println!("{}", verify_metrics.render());

    // 5: cache persistence — a rebuilt service preloads its predecessor's snapshot
    // and serves the whole workload without touching the model.
    let snapshot_dir =
        std::env::temp_dir().join(format!("repair-service-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let persist = svserve::PersistSpec::new(
        snapshot_dir.join("responses.json"),
        &seed.to_le_bytes(),
        "AssertSolver (base)",
    );
    let persistent_config = ServiceConfig::default()
        .with_seed(seed)
        .with_persist(persist);
    let first_model = Arc::new(Counting {
        inner: AssertSolverModel::base(11),
        calls: AtomicUsize::new(0),
    });
    let first = RepairService::start(Arc::clone(&first_model), persistent_config.clone());
    let first_responses: Vec<_> = first
        .solve_all(workload.clone())
        .into_iter()
        .map(|o| o.responses)
        .collect();
    first.shutdown(); // flushes the snapshot
    let second_model = Arc::new(Counting {
        inner: AssertSolverModel::base(11),
        calls: AtomicUsize::new(0),
    });
    let second = RepairService::start(Arc::clone(&second_model), persistent_config);
    let second_responses: Vec<_> = second
        .solve_all(workload)
        .into_iter()
        .map(|o| o.responses)
        .collect();
    let warm_metrics = second.shutdown();
    assert_eq!(first_responses, second_responses);
    assert_eq!(
        second_model.calls.load(Ordering::SeqCst),
        0,
        "snapshot warm start must not re-invoke the model"
    );
    println!(
        "\ncache persistence: rebuilt service preloaded {} entries and served {} requests \
         with zero model calls ({:.1}% warm hit rate)",
        warm_metrics.snapshot_loaded_entries,
        warm_metrics.completed,
        warm_metrics.warm_hit_rate * 100.0,
    );
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    println!("\nall service guarantees verified");
}
