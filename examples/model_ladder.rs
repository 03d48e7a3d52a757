//! A ladder evaluation over the quick corpus: a cost ladder of baseline
//! surrogates, each evaluated once, with escalation on verification failure
//! folded over the per-model results.
//!
//! ```text
//! cargo run --release --example model_ladder                         # both policies
//! cargo run --release --example model_ladder -- --policy escalate    # focus escalation
//! cargo run --release --example model_ladder -- --policy absplit     # focus A/B split
//! cargo run --release --example model_ladder -- --expect-escalations # CI assertion mode
//! ```
//!
//! The run evaluates every rung, the deterministic A/B split, and cheapest-first
//! escalation, then prints the per-rung solve rates and the per-case attempt
//! trail.  With `--expect-escalations` the example exits nonzero unless (a) at
//! least one case's trail escalated past a failed rung and (b) escalation
//! solved strictly more cases than its cheapest rung alone.

use assertsolver::ab_arm;
use std::sync::Arc;
use svmodel::{BaselineKind, BaselineModel, CaseInput, RepairModel};
use svserve::RepairRequest;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let expect_escalations = args.iter().any(|a| a == "--expect-escalations");
    let policy = args
        .iter()
        .position(|a| a == "--policy")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("both")
        .to_string();
    if !["both", "escalate", "absplit"].contains(&policy.as_str()) {
        eprintln!("unknown --policy {policy:?} (expected escalate, absplit or both)");
        std::process::exit(2);
    }

    // The quick corpus: machine-generated pipeline cases (the same protocol the
    // ladder-determinism suite pins down).
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(23));
    let mut entries = pipeline.datasets.sva_bug;
    entries.truncate(6);
    let config = assertsolver::EvalConfig {
        workers: 2,
        verify_workers: 2,
        samples: 4,
        ..assertsolver::EvalConfig::quick(19)
    };

    let models: Vec<Arc<dyn RepairModel + Send + Sync>> = [
        BaselineKind::RandomGuess,
        BaselineKind::ConeAnalyst,
        BaselineKind::IterativeReasoner,
    ]
    .into_iter()
    .map(|kind| Arc::new(BaselineModel::new(kind)) as Arc<dyn RepairModel + Send + Sync>)
    .collect();

    println!(
        "model ladder: {} rungs x {} cases x {} samples",
        models.len(),
        entries.len(),
        config.samples
    );
    let report = assertsolver::evaluate_ladder(&models, &entries, &config);
    let evaluation = &report.evaluation;

    // Per-rung solve rates, in escalation (cheapest-first) order, then the two
    // folds over them.
    println!(
        "\n{:<34} {:>6} {:>10} {:>8}",
        "rung", "cost", "solved", "pass@1"
    );
    for &idx in &report.ladder {
        let eval = &evaluation.per_model[idx];
        println!(
            "{:<34} {:>6} {:>7}/{:<2} {:>8.3}",
            eval.model,
            models[idx].cost(),
            eval.solved_cases(),
            entries.len(),
            eval.passk().pass1
        );
    }
    for eval in [&evaluation.ab_split, &evaluation.escalate] {
        println!(
            "{:<34} {:>6} {:>7}/{:<2} {:>8.3}",
            eval.model,
            "-",
            eval.solved_cases(),
            entries.len(),
            eval.passk().pass1
        );
    }

    if policy == "both" || policy == "escalate" {
        println!("\nattempt trails (escalation, cheapest rung first):");
        println!("{:<18} {:>6} {:<9} trail", "case", "rungs", "outcome");
        for (trail, result) in evaluation.trails.iter().zip(&evaluation.escalate.results) {
            let steps: Vec<String> = trail
                .attempts
                .iter()
                .map(|a| {
                    format!(
                        "{}[{}]{}",
                        a.backend.split(' ').next().unwrap_or(&a.backend),
                        a.cost,
                        if a.correct_candidates > 0 { "+" } else { "-" }
                    )
                })
                .collect();
            println!(
                "{:<18} {:>6} {:<9} {}",
                trail.module_name,
                trail.attempts.len(),
                if result.c > 0 { "solved" } else { "exhausted" },
                steps.join(" -> ")
            );
        }
    }

    if policy == "both" || policy == "absplit" {
        println!("\nA/B split arms (content-hash, stable at any pool shape):");
        for (idx, entry) in entries.iter().enumerate() {
            let request = RepairRequest::new(
                CaseInput::from_entry(entry),
                config.samples,
                config.temperature,
            );
            let arm = ab_arm(request.key(), models.len());
            // The split evaluation must equal the arm's own pinned result.
            assert_eq!(
                evaluation.ab_split.results[idx], evaluation.per_model[arm].results[idx],
                "case {idx} was not served by its predicted arm"
            );
            println!(
                "  {:<18} -> arm {arm} ({})",
                entry.module_name, evaluation.per_model[arm].model
            );
        }
        println!("  (assertion passed: every case served by its predicted arm)");
    }

    for (model, metrics) in models.iter().zip(&report.metrics) {
        println!("\n{}\n{}", model.name(), metrics.render());
    }
    println!("\n{}", report.verify.render());

    if expect_escalations {
        // Every attempt past a trail's first followed a failed rung.
        let resubmits: usize = (evaluation.trails.iter())
            .map(|trail| trail.attempts.len() - 1)
            .sum();
        assert!(
            resubmits > 0,
            "expected at least one verdict-triggered re-submit, got none"
        );
        let cheapest = &evaluation.per_model[report.ladder[0]];
        assert!(
            evaluation.escalate.solved_cases() > cheapest.solved_cases(),
            "escalation must solve more cases than its cheapest rung alone \
             ({} vs {})",
            evaluation.escalate.solved_cases(),
            cheapest.solved_cases()
        );
        println!(
            "\nescalation verified: {} re-submits, ladder solved {} vs cheapest rung {}",
            resubmits,
            evaluation.escalate.solved_cases(),
            cheapest.solved_cases()
        );
    }
}
