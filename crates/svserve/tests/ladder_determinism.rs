//! Determinism of the ladder evaluation, end to end.
//!
//! The contract under test: a `LadderEvaluation` — per-model, A/B-split and
//! escalation results plus the per-case attempt trails — is a pure function
//! of `(models, corpus, protocol)`.  Worker counts per model, verify worker
//! counts, and warm vs cold caches (in-memory or on-disk) must not change a
//! byte.  On top of that, escalation must demonstrably solve more cases than
//! its cheapest rung alone, each case's trail must agree with its own result,
//! and A/B arm assignment must be stable under pool-shape changes
//! (vendored-rand property tests).

use assertsolver::ab_arm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use svdata::SvaBugEntry;
use svmodel::{BaselineKind, BaselineModel, CaseInput, RepairModel, Response};
use svserve::{serve_scoped, RepairRequest};
use svverify::VerifyOracle;

fn corpus(limit: usize) -> Vec<SvaBugEntry> {
    let mut entries = assertsolver::human_crafted_cases();
    entries.truncate(limit);
    assert!(!entries.is_empty());
    entries
}

fn ladder_models(kinds: &[BaselineKind]) -> Vec<Arc<dyn RepairModel + Send + Sync>> {
    kinds
        .iter()
        .map(|&kind| Arc::new(BaselineModel::new(kind)) as Arc<dyn RepairModel + Send + Sync>)
        .collect()
}

fn config(workers: usize, verify_workers: usize) -> assertsolver::EvalConfig {
    assertsolver::EvalConfig {
        workers,
        verify_workers,
        ..assertsolver::EvalConfig::quick(19)
    }
}

#[test]
fn ladder_evaluation_is_byte_identical_at_1_2_4_8_workers_per_backend() {
    let entries = corpus(3);
    let models = ladder_models(&[BaselineKind::RandomGuess, BaselineKind::IterativeReasoner]);
    let baseline = assertsolver::evaluate_ladder(&models, &entries, &config(1, 1));
    let baseline_json = serde_json::to_string(&baseline.evaluation).expect("evaluation serialises");
    assert_eq!(baseline.evaluation.per_model.len(), 2);
    assert_eq!(baseline.evaluation.trails.len(), entries.len());
    for (workers, verify_workers) in [(2, 2), (4, 4), (8, 8)] {
        let run =
            assertsolver::evaluate_ladder(&models, &entries, &config(workers, verify_workers));
        assert_eq!(
            baseline.evaluation, run.evaluation,
            "{workers} workers per backend changed the ladder evaluation"
        );
        assert_eq!(
            baseline_json,
            serde_json::to_string(&run.evaluation).expect("evaluation serialises"),
            "{workers} workers per backend changed the serialized evaluation"
        );
        assert_eq!(baseline.ladder, run.ladder, "ladder order must be stable");
    }
}

#[test]
fn warm_ladder_from_disk_is_byte_identical_and_replays_every_rung() {
    let dir = std::env::temp_dir().join(format!("assertsolver-route-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = corpus(3);
    let models = ladder_models(&[BaselineKind::RandomGuess, BaselineKind::IterativeReasoner]);
    let config = assertsolver::EvalConfig {
        workers: 2,
        verify_workers: 2,
        cache_dir: Some(dir.display().to_string()),
        ..assertsolver::EvalConfig::quick(19)
    };

    // Cold run: every model's snapshot is written under its own identity.
    let cold = assertsolver::evaluate_ladder(&models, &entries, &config);
    let mut snapshot_paths = Vec::new();
    for model in &models {
        let spec = config
            .service_config_for(&model.identity())
            .persist
            .expect("per-backend persistence configured");
        assert!(
            spec.path.exists(),
            "backend snapshot {} must be written",
            spec.path.display()
        );
        snapshot_paths.push(spec.path);
    }
    assert_ne!(
        snapshot_paths[0], snapshot_paths[1],
        "each backend persists under its own identity"
    );

    // Warm run from fresh pools: byte-identical, and every model preloads.
    let warm = assertsolver::evaluate_ladder(&models, &entries, &config);
    assert_eq!(
        cold.evaluation, warm.evaluation,
        "a warm ladder must be byte-identical to a cold one"
    );
    assert_eq!(warm.metrics.len(), models.len());
    for (model, service) in models.iter().zip(&warm.metrics) {
        assert!(
            service.snapshot_loaded_entries > 0,
            "model {} must preload its snapshot",
            model.name()
        );
        assert!(
            service.warm_hits > 0,
            "model {} must replay responses from its snapshot",
            model.name()
        );
        assert_eq!(
            service.cache_misses,
            0,
            "a fully warm model {} re-samples nothing",
            model.name()
        );
    }
    assert_eq!(
        warm.verify.cache_misses, 0,
        "a fully warm verdict cache re-judges nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn escalation_solves_more_cases_than_its_cheapest_rung_alone() {
    // The quick machine-generated corpus with a weak-but-cheap first rung:
    // random guessing leaves cases on the table that the pricier analytic
    // rungs solve, so escalation's verdict-triggered re-submits are what carry
    // them — the ladder's solved set is the union over its rungs, strictly
    // bigger than the cheapest rung's alone.
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(23));
    let mut entries = pipeline.datasets.sva_bug;
    entries.truncate(6);
    let models = ladder_models(&[
        BaselineKind::RandomGuess,
        BaselineKind::ConeAnalyst,
        BaselineKind::IterativeReasoner,
    ]);
    let config = assertsolver::EvalConfig {
        samples: 4,
        ..config(2, 2)
    };
    let report = assertsolver::evaluate_ladder(&models, &entries, &config);
    let cheapest = report.ladder[0];
    assert_eq!(cheapest, 0, "RandomGuess must be the cheapest rung");
    let rung_solved = report.evaluation.per_model[cheapest].solved_cases();
    let escalate_solved = report.evaluation.escalate.solved_cases();
    assert!(
        escalate_solved > rung_solved,
        "escalation must beat its cheapest rung alone: rung {rung_solved} vs ladder {escalate_solved} of {}",
        entries.len()
    );
    // Escalation dominates the cheapest rung case-for-case: any case the rung
    // solves terminates at that rung with the identical correct count.
    for (rung_case, ladder_case) in report.evaluation.per_model[cheapest]
        .results
        .iter()
        .zip(&report.evaluation.escalate.results)
    {
        if rung_case.c > 0 {
            assert_eq!(ladder_case.c, rung_case.c);
        }
    }
    // The attempt trail is recorded per case and walks cheapest-first.
    assert_eq!(report.evaluation.trails.len(), entries.len());
    let mut resubmits = 0;
    for (trail, result) in report
        .evaluation
        .trails
        .iter()
        .zip(&report.evaluation.escalate.results)
    {
        assert!(!trail.attempts.is_empty());
        assert_eq!(trail.attempts[0].backend, models[0].name());
        assert!(trail.attempts.iter().all(|a| a.judged));
        let costs: Vec<u32> = trail.attempts.iter().map(|a| a.cost).collect();
        assert!(
            costs.windows(2).all(|pair| pair[0] < pair[1]),
            "attempts must escalate in cost order, got {costs:?}"
        );
        let terminal = trail.attempts.last().expect("terminal attempt");
        assert!(terminal.terminal);
        assert_eq!(terminal.correct_candidates, result.c);
        resubmits += trail.attempts.len() as u64 - 1;
    }
    assert!(resubmits > 0, "the quick corpus must trigger escalations");
}

#[test]
fn each_twin_case_is_judged_against_its_own_golden_fix() {
    // Twins share spec, buggy source and logs — so one request key — but not
    // their golden fix.  `twin` takes as its golden a fix the cheapest rung
    // samples on `case` that is wrong for `case`, so that rung scores higher
    // on the twin than on the case; each trail must still end on its own `c`.
    let models = ladder_models(&[BaselineKind::RandomGuess, BaselineKind::IterativeReasoner]);
    let config = config(2, 2);
    let case = corpus(1).remove(0);
    let request = RepairRequest::new(
        CaseInput::from_entry(&case),
        config.samples,
        config.temperature,
    );
    let samples = serve_scoped(&*models[0], config.service_config(), |service| {
        service.solve_all(vec![request])
    });
    let oracle = VerifyOracle::new(config.check.clone());
    let edit = |r: &&Response| r.bug_line_number != 0 && !r.fixed_line.trim().is_empty();
    let wrong = (samples[0].responses.iter())
        .find(|r| edit(r) && !assertsolver::response_is_correct(&case, r, &oracle))
        .expect("the cheapest rung proposes a wrong line edit")
        .clone();
    let twin = SvaBugEntry {
        bug_line_number: wrong.bug_line_number,
        fixed_line: wrong.fixed_line,
        ..case.clone()
    };
    let entries = vec![case, twin];
    let report = assertsolver::evaluate_ladder(&models, &entries, &config);
    let evaluation = &report.evaluation;
    let cheapest = &evaluation.per_model[report.ladder[0]];
    assert!(
        cheapest.results[1].c > cheapest.results[0].c,
        "the wrong fix solves the twin"
    );
    for (idx, (trail, result)) in evaluation
        .trails
        .iter()
        .zip(&evaluation.escalate.results)
        .enumerate()
    {
        let terminal = trail.attempts.last().expect("a terminal attempt");
        assert!(terminal.terminal);
        assert_eq!(
            terminal.correct_candidates, result.c,
            "case {idx}: the terminal rung's count must be the case's own c"
        );
    }
}

fn random_request(rng: &mut StdRng) -> RepairRequest {
    let len = rng.gen_range(0..24usize);
    let text: String = (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect();
    RepairRequest::new(
        CaseInput {
            spec: format!("spec {text}"),
            buggy_source: format!("module {text}(); endmodule"),
            logs: format!("assertion {text} failed"),
        },
        rng.gen_range(1..8usize),
        0.2,
    )
}

#[test]
fn ab_arm_assignment_is_a_pure_function_of_content_and_arm_count() {
    let mut rng = StdRng::seed_from_u64(0xAB_5EED);
    for _ in 0..512 {
        let request = random_request(&mut rng);
        let key = request.key();
        for arms in 1..=6usize {
            let arm = ab_arm(key, arms);
            assert!(arm < arms);
            // Stable across repeated evaluation and across *key* recomputation
            // from identical content — there is no hidden state.
            assert_eq!(arm, ab_arm(request.key(), arms));
        }
    }
}

#[test]
fn ab_arms_spread_traffic_and_survive_shard_count_changes() {
    // Arm assignment may depend on the request and the number of arms — never
    // on the per-backend pool shape.  Simulate pool-shape changes by checking
    // the arm is untouched by anything but (key, arms), then sanity-check the
    // split is not degenerate on a random workload.
    let mut rng = StdRng::seed_from_u64(0x517E);
    let requests: Vec<RepairRequest> = (0..256).map(|_| random_request(&mut rng)).collect();
    for arms in [2usize, 3] {
        let mut per_arm = vec![0usize; arms];
        for request in &requests {
            per_arm[ab_arm(request.key(), arms)] += 1;
        }
        assert!(
            per_arm.iter().all(|&count| count > 0),
            "every arm must see traffic on a 256-request workload, got {per_arm:?}"
        );
    }
    // A/B evaluation through the full ladder: the split evaluation equals the
    // per-model results of each case's predicted arm — at two different pool
    // shapes.
    let entries = corpus(3);
    let models = ladder_models(&[BaselineKind::RandomGuess, BaselineKind::IterativeReasoner]);
    for workers in [1usize, 4] {
        let eval_config = config(workers, 2);
        let report = assertsolver::evaluate_ladder(&models, &entries, &eval_config);
        for (idx, entry) in entries.iter().enumerate() {
            // Predict the arm from the exact request the evaluation routes:
            // CaseKey folds samples and temperature, so these must come from
            // the protocol, not be restated.
            let request = RepairRequest::new(
                CaseInput::from_entry(entry),
                eval_config.samples,
                eval_config.temperature,
            );
            let arm = ab_arm(request.key(), models.len());
            assert_eq!(
                report.evaluation.ab_split.results[idx],
                report.evaluation.per_model[arm].results[idx],
                "case {idx} must be served by its predicted arm {arm}"
            );
        }
    }
}
