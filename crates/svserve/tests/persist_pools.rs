//! Cache-level persistence: warm starts through `RepairService` and a verdict `Memo`,
//! and every corruption/mismatch mode degrading to a cold start.
//!
//! The unit tests in `svserve::persist` cover the codec; these tests cover the
//! wiring — load-at-start, flush-on-shutdown, warm-hit attribution in the metrics,
//! and byte-identical results across a process-like cold/warm boundary (two caches
//! sharing nothing but the snapshot file).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use svmodel::{CaseInput, RepairModel, Response};
use svserve::persist::{save_verdict_snapshot, SNAPSHOT_FORMAT_VERSION};
use svserve::{
    verdict_key, Memo, PersistSpec, RepairRequest, RepairService, ServiceConfig, VerdictKey,
    VerifyConfig,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("svserve-persist-pool-{}-{tag}", std::process::id()))
}

/// Deterministic model that counts invocations, so tests can prove warm starts
/// never reach it.
struct CountingModel {
    calls: AtomicUsize,
}

impl CountingModel {
    fn new() -> Self {
        Self {
            calls: AtomicUsize::new(0),
        }
    }
}

impl RepairModel for CountingModel {
    fn name(&self) -> &str {
        "counting"
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        _temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        (0..samples)
            .map(|i| Response {
                bug_line_number: (case.spec.len() as u32) + i as u32,
                buggy_line: case.buggy_source.clone(),
                fixed_line: format!("seed-{seed}-sample-{i}"),
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
        4,
        0.2,
    )
}

#[test]
fn repair_service_warm_starts_from_its_own_snapshot() {
    let dir = temp_dir("repair-warm");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("responses.json"), b"seed-bytes", "counting");
    let config = ServiceConfig::default()
        .with_workers(2)
        .with_persist(spec.clone());

    // Cold service: every request reaches the model; shutdown flushes.
    let cold_model = Arc::new(CountingModel::new());
    let cold_service = RepairService::start(Arc::clone(&cold_model), config.clone());
    let cold_outcomes = cold_service.solve_all((0..12).map(request).collect());
    let cold_metrics = cold_service.shutdown();
    assert_eq!(cold_model.calls.load(Ordering::SeqCst), 12);
    assert_eq!(cold_metrics.snapshot_loaded_entries, 0);
    assert_eq!(cold_metrics.snapshot_saves, 1);
    assert_eq!(cold_metrics.snapshot_saved_entries, 12);
    assert!(spec.path.exists(), "shutdown must write the snapshot");

    // Warm service sharing only the file: zero model calls, warm hits attributed.
    let warm_model = Arc::new(CountingModel::new());
    let warm_service = RepairService::start(Arc::clone(&warm_model), config);
    let warm_outcomes = warm_service.solve_all((0..12).map(request).collect());
    let warm_metrics = warm_service.metrics();
    assert_eq!(
        warm_model.calls.load(Ordering::SeqCst),
        0,
        "a fully warm cache must never invoke the model"
    );
    assert_eq!(warm_metrics.snapshot_loaded_entries, 12);
    assert_eq!(warm_metrics.warm_hits, 12);
    assert!(warm_metrics.warm_hit_rate > 0.99);
    let cold_responses: Vec<_> = cold_outcomes.iter().map(|o| &o.responses).collect();
    let warm_responses: Vec<_> = warm_outcomes.iter().map(|o| &o.responses).collect();
    assert_eq!(
        cold_responses, warm_responses,
        "warm responses must be byte-identical to cold ones"
    );
    assert!(warm_outcomes.iter().all(|o| o.from_cache));
    drop(warm_service);

    // Explicit flush is available mid-flight too.
    let service = RepairService::start(Arc::new(CountingModel::new()), ServiceConfig::default());
    assert_eq!(
        service.flush().unwrap(),
        0,
        "no persist configured => Ok(0)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_response_snapshots_cold_start_without_error() {
    let dir = temp_dir("repair-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("responses.json"), b"fp-a", "counting");
    let config = ServiceConfig::default()
        .with_workers(2)
        .with_persist(spec.clone());
    RepairService::start(Arc::new(CountingModel::new()), config.clone())
        .solve_all((0..4).map(request).collect());

    let expect_cold = |persist: PersistSpec, expected_rejects: u64| {
        let model = Arc::new(CountingModel::new());
        let service = RepairService::start(
            Arc::clone(&model),
            ServiceConfig::default().with_persist(persist),
        );
        let outcomes = service.solve_all((0..4).map(request).collect());
        assert_eq!(outcomes.len(), 4);
        let metrics = service.metrics();
        assert_eq!(metrics.snapshot_loaded_entries, 0);
        assert_eq!(metrics.snapshot_rejects, expected_rejects);
        assert_eq!(
            model.calls.load(Ordering::SeqCst),
            4,
            "cold start must re-invoke the model"
        );
    };

    // Fingerprint mismatch (e.g. a different evaluation seed).
    expect_cold(PersistSpec::new(spec.path.clone(), b"fp-b", "counting"), 1);
    // Model mismatch.
    expect_cold(PersistSpec::new(spec.path.clone(), b"fp-a", "other"), 1);
    // Corruption.
    std::fs::write(&spec.path, "]]] definitely not a snapshot").unwrap();
    expect_cold(spec.clone(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_different_service_seed_rejects_the_response_snapshot() {
    // Responses depend on the sampler seed, which the service folds into the
    // snapshot fingerprint itself — the caller cannot accidentally warm-load
    // responses sampled under another seed by reusing one PersistSpec.
    let dir = temp_dir("seed-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("responses.json"), b"", "counting");
    let write = ServiceConfig::default()
        .with_seed(1)
        .with_persist(spec.clone());
    RepairService::start(Arc::new(CountingModel::new()), write)
        .solve_all((0..4).map(request).collect());

    let model = Arc::new(CountingModel::new());
    let reread = ServiceConfig::default().with_seed(2).with_persist(spec);
    let service = RepairService::start(Arc::clone(&model), reread);
    service.solve_all((0..4).map(request).collect());
    let metrics = service.metrics();
    assert_eq!(metrics.snapshot_loaded_entries, 0);
    assert_eq!(metrics.snapshot_rejects, 1);
    assert_eq!(
        model.calls.load(Ordering::SeqCst),
        4,
        "a changed seed must cold-start, not replay stale responses"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_pool_never_overwrites_a_valuable_snapshot() {
    // A reconfigured run whose preload is rejected, and which then computes
    // nothing, must leave the previous snapshot on disk — not replace it with an
    // empty file under the new header.
    let dir = temp_dir("no-empty-overwrite");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("verdicts.json"), b"cfg-v1", "-");
    let memo = Memo::verdicts(VerifyConfig::default().with_persist(spec.clone()));
    LenJudge::default().judge_all(&memo);
    memo.close();
    let valuable = std::fs::read(&spec.path).unwrap();

    // Reconfigured memo: rejected preload, zero work, close.
    let reconfigured = PersistSpec::new(spec.path.clone(), b"cfg-v2", "-");
    let idle = Memo::verdicts(VerifyConfig::default().with_persist(reconfigured));
    assert_eq!(idle.metrics().snapshot_rejects, 1);
    assert_eq!(
        idle.flush().unwrap(),
        0,
        "an empty cache must not be written"
    );
    idle.close();
    assert_eq!(
        std::fs::read(&spec.path).unwrap(),
        valuable,
        "the cfg-v1 snapshot must survive an idle cfg-v2 memo"
    );

    // And the original configuration still warm-starts from it.
    let memo = Memo::verdicts(VerifyConfig::default().with_persist(spec));
    assert_eq!(memo.metrics().snapshot_loaded_entries, 16);
    memo.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Judge that counts invocations; verdict is a pure content function.
#[derive(Default)]
struct LenJudge {
    calls: AtomicUsize,
}

impl LenJudge {
    /// Serves every job of [`verify_workload`] through `memo`, judging and
    /// tallying on a miss.
    fn judge_all(&self, memo: &Memo<svserve::persist::VerdictSnapshot>) -> Vec<bool> {
        let judge = |(key, case, fixed_line): (VerdictKey, String, String)| {
            let work = || {
                self.calls.fetch_add(1, Ordering::SeqCst);
                let verdict = fixed_line.len() > case.len();
                memo.tally(verdict);
                verdict
            };
            memo.serve(key, work).expect("memo open").value
        };
        verify_workload().into_iter().map(judge).collect()
    }
}

/// Sixteen `(key, case, fixed line)` verdict jobs over five cases.
fn verify_workload() -> Vec<(VerdictKey, String, String)> {
    let job = |i: usize| {
        let (case, fixed_line) = (format!("case {}", i % 5), format!("fix number {i}"));
        let response = Response {
            bug_line_number: 1,
            buggy_line: "buggy".into(),
            fixed_line: fixed_line.clone(),
            cot: None,
        };
        let key = verdict_key(&[case.as_bytes()], &response, b"cfg");
        (key, case, fixed_line)
    };
    (0..16).map(job).collect()
}

#[test]
fn verify_pool_warm_starts_from_its_own_snapshot() {
    let dir = temp_dir("verify-warm");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("verdicts.json"), b"cfg", "-");
    let config = VerifyConfig::default()
        .with_workers(2)
        .with_persist(spec.clone());

    let cold_judge = LenJudge::default();
    let memo = Memo::verdicts(config.clone());
    let cold = cold_judge.judge_all(&memo);
    memo.close();
    let cold_metrics = memo.metrics();
    assert_eq!(cold_judge.calls.load(Ordering::SeqCst), 16);
    assert_eq!(cold_metrics.snapshot_saves, 1);
    assert_eq!(cold_metrics.snapshot_saved_entries, 16);

    // Fresh memo, same file, different shard count: zero judge calls,
    // identical verdicts, warm hits attributed.
    let warm_judge = LenJudge::default();
    let memo = Memo::verdicts(config.with_workers(4));
    let warm = warm_judge.judge_all(&memo);
    let warm_metrics = memo.metrics();
    memo.close();
    assert_eq!(warm_judge.calls.load(Ordering::SeqCst), 0);
    assert_eq!(cold, warm, "verdicts must survive the snapshot round trip");
    assert_eq!(warm_metrics.snapshot_loaded_entries, 16);
    assert_eq!(warm_metrics.warm_hits, 16);
    assert!(warm_metrics.warm_hit_rate > 0.99);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_pool_rejects_stale_snapshots_and_truncated_files() {
    let dir = temp_dir("verify-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("verdicts.json"), b"cfg", "-");

    // A snapshot written under a *future* format version must be rejected.
    let entries = verify_workload()
        .into_iter()
        .map(|(key, ..)| (key, true))
        .collect::<Vec<_>>();
    save_verdict_snapshot(&spec, entries).unwrap();
    let text = std::fs::read_to_string(&spec.path).unwrap();
    let bumped = text.replace(
        &format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}"),
        &format!("\"format_version\":{}", SNAPSHOT_FORMAT_VERSION + 1),
    );
    assert_ne!(bumped, text);
    std::fs::write(&spec.path, bumped).unwrap();

    let judge = LenJudge::default();
    let config = VerifyConfig::default().with_workers(1);
    let memo = Memo::verdicts(config.clone().with_persist(spec.clone()));
    let verdicts = judge.judge_all(&memo);
    let metrics = memo.metrics();
    assert_eq!(verdicts.len(), 16);
    assert_eq!(metrics.snapshot_loaded_entries, 0);
    assert_eq!(metrics.snapshot_rejects, 1);
    assert_eq!(
        judge.calls.load(Ordering::SeqCst),
        16,
        "cold start re-judges"
    );
    memo.close();

    // Truncate the (now rewritten, valid) snapshot mid-file: reject, cold start.
    let full = std::fs::read_to_string(&spec.path).unwrap();
    std::fs::write(&spec.path, &full[..full.len() / 3]).unwrap();
    let memo = Memo::verdicts(config.with_persist(spec));
    let metrics = memo.metrics();
    assert_eq!(metrics.snapshot_loaded_entries, 0);
    assert_eq!(metrics.snapshot_rejects, 1);
    memo.close();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_snapshot_entries_are_compacted_after_k_idle_runs() {
    let dir = temp_dir("compaction");
    let _ = std::fs::remove_dir_all(&dir);
    // K = 1: an entry survives one idle run and is dropped by the flush of the
    // second consecutive run that never touches it.
    let spec = PersistSpec::new(dir.join("responses.json"), b"seed", "counting").with_compaction(1);
    let config = ServiceConfig::default()
        .with_workers(2)
        .with_persist(spec.clone());

    // Run 1 (cold → generation 1): computes and persists all 8 entries.
    let service = RepairService::start(Arc::new(CountingModel::new()), config.clone());
    service.solve_all((0..8).map(request).collect());
    service.shutdown();

    // Run 2 (generation 2): touches only 0..4.  The idle half is 1 generation
    // behind — within the window, so it must survive this flush.
    let service = RepairService::start(Arc::new(CountingModel::new()), config.clone());
    service.solve_all((0..4).map(request).collect());
    let metrics = service.shutdown();
    assert_eq!(metrics.snapshot_loaded_entries, 8);
    assert_eq!(metrics.snapshot_compacted_entries, 0);
    assert_eq!(metrics.snapshot_saved_entries, 8);

    // Run 3 (generation 3): touches only 0..4 again.  The idle half is now 2
    // generations behind (> K = 1) and must be compacted away.
    let service = RepairService::start(Arc::new(CountingModel::new()), config.clone());
    service.solve_all((0..4).map(request).collect());
    let metrics = service.shutdown();
    assert_eq!(metrics.snapshot_compacted_entries, 4);
    assert_eq!(metrics.snapshot_saved_entries, 4);

    // Run 4: the full workload again — the compacted half really is gone from
    // the file (those 4 cases reach the model), the touched half is still warm.
    let model = Arc::new(CountingModel::new());
    let service = RepairService::start(Arc::clone(&model), config);
    service.solve_all((0..8).map(request).collect());
    let metrics = service.metrics();
    assert_eq!(metrics.snapshot_loaded_entries, 4);
    assert_eq!(metrics.warm_hits, 4);
    assert_eq!(
        model.calls.load(Ordering::SeqCst),
        4,
        "compacted entries must be recomputed, surviving ones replayed"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_files_are_byte_stable_across_save_load_save() {
    let dir = temp_dir("byte-stable");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PersistSpec::new(dir.join("responses.json"), b"seed", "counting");
    let config = ServiceConfig::default().with_persist(spec.clone());

    // Cold run at 4 workers writes the generation-1 snapshot.
    RepairService::start(
        Arc::new(CountingModel::new()),
        config.clone().with_workers(4),
    )
    .solve_all((0..10).map(request).collect());
    let cold_4 = std::fs::read(&spec.path).unwrap();

    // A cold run at 1 worker (different sharding, different insertion order)
    // writes byte-identical generation-1 bytes.
    std::fs::remove_file(&spec.path).unwrap();
    RepairService::start(
        Arc::new(CountingModel::new()),
        config.clone().with_workers(1),
    )
    .solve_all((0..10).map(request).collect());
    let cold_1 = std::fs::read(&spec.path).unwrap();
    assert_eq!(
        cold_4, cold_1,
        "cold snapshot bytes must be independent of worker count and insertion order"
    );

    // Warm runs advance the generation counter (1 → 2), but are themselves
    // byte-stable at any worker count: re-warm from the same generation-1 file
    // with different pool shapes and compare.
    RepairService::start(
        Arc::new(CountingModel::new()),
        config.clone().with_workers(1),
    )
    .solve_all((0..10).map(request).collect());
    let warm_1 = std::fs::read(&spec.path).unwrap();
    assert_ne!(warm_1, cold_1, "a warm flush advances the generation");
    std::fs::write(&spec.path, &cold_1).unwrap();
    RepairService::start(Arc::new(CountingModel::new()), config.with_workers(4))
        .solve_all((0..10).map(request).collect());
    let warm_4 = std::fs::read(&spec.path).unwrap();
    assert_eq!(
        warm_1, warm_4,
        "warm snapshot bytes must be independent of worker count too"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
