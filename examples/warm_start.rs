//! Cross-process warm start: evaluation caches persisted to `ASSERTSOLVER_CACHE_DIR`.
//!
//! Run this example twice against the same cache directory:
//!
//! ```text
//! export ASSERTSOLVER_CACHE_DIR=/tmp/assertsolver-cache
//! cargo run --release --example warm_start                  # cold: populates the dir
//! cargo run --release --example warm_start -- --expect-warm # warm: replays from disk
//! ```
//!
//! The first run samples and judges everything, then flushes both caches to disk
//! (`responses-<model>-<hash>.json` + `verdicts-<hash>.json`) and records the serialized
//! `ModelEvaluation` in a protocol-keyed `eval-reference-<hash>.json`.  Every later run asserts its own
//! evaluation is **byte-identical** to that reference — the warm-start invariant —
//! and, with `--expect-warm`, additionally asserts that the verdict cache was
//! preloaded from the snapshot and reported a nonzero warm hit rate.  CI's
//! warm-cache job is exactly this two-run sequence.

use assertsolver::{evaluate_model_with, EvalConfig, EvalVerifier};
use svmodel::{AssertSolverModel, RepairModel};

/// Hash over what the evaluation depends on (samples, temperature, seed, the
/// bounded-check fingerprint, model identity and the corpus modules), keying
/// the reference file: a changed protocol writes a fresh reference instead of
/// panicking against a stale one, mirroring the snapshots' own invalidation.
/// Config fields that cannot change the evaluation (worker and driver
/// counts, cache and journal directories) do not rename it.
fn protocol_hash(config: &EvalConfig, model_identity: &str, modules: &[String]) -> u64 {
    let mut keyed = Vec::new();
    keyed.extend_from_slice(&(config.samples as u64).to_le_bytes());
    keyed.extend_from_slice(&config.temperature.to_bits().to_le_bytes());
    keyed.extend_from_slice(&config.seed.to_le_bytes());
    keyed.extend_from_slice(&config.check.fingerprint());
    for part in std::iter::once(model_identity).chain(modules.iter().map(String::as_str)) {
        keyed.extend_from_slice(part.as_bytes());
        keyed.push(0); // part separator
    }
    svserve::persist::fnv64(&keyed)
}

fn main() {
    let dir = svserve::env_cache_dir().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("assertsolver-warm-start-{}", std::process::id()))
    });
    let expect_warm = std::env::args().any(|arg| arg == "--expect-warm");
    println!(
        "cache dir: {} ({})",
        dir.display(),
        if expect_warm {
            "expecting a warm start"
        } else {
            "cold start allowed"
        }
    );

    let cases: Vec<_> = assertsolver::human_crafted_cases()
        .into_iter()
        .take(4)
        .collect();
    let config = EvalConfig {
        cache_dir: Some(dir.display().to_string()),
        ..EvalConfig::quick(17)
    };
    let model = AssertSolverModel::base(11);

    let verifier = EvalVerifier::start(&config);
    let evaluation = evaluate_model_with(&model, &cases, &config, &verifier);
    let metrics = verifier.metrics();
    verifier.shutdown(); // flushes the verdict snapshot
    println!("{}", metrics.render());

    let json = serde_json::to_string(&evaluation).expect("evaluation serialises");
    let modules: Vec<String> = cases.iter().map(|c| c.module_name.clone()).collect();
    let reference = dir.join(format!(
        "eval-reference-{:016x}.json",
        protocol_hash(&config, &model.identity(), &modules)
    ));
    match std::fs::read_to_string(&reference) {
        Ok(previous) => {
            assert_eq!(
                previous, json,
                "warm-start evaluation differs from the recorded cold-start evaluation"
            );
            println!(
                "evaluation matches the recorded reference byte for byte ({} cases)",
                evaluation.results.len()
            );
        }
        Err(_) => {
            std::fs::write(&reference, &json).expect("write evaluation reference");
            println!(
                "recorded reference evaluation ({} cases)",
                evaluation.results.len()
            );
        }
    }

    if expect_warm {
        assert!(
            metrics.snapshot_loaded_entries > 0,
            "warm run must preload the verdict snapshot"
        );
        assert!(
            metrics.cache_hits > 0 && metrics.cache_hit_rate > 0.0,
            "warm run must report a nonzero verdict-cache hit rate"
        );
        assert!(
            metrics.warm_hits > 0 && metrics.warm_hit_rate > 0.0,
            "warm hits must be attributed to the snapshot"
        );
        println!(
            "warm start verified: {} preloaded verdicts, {:.1}% warm hit rate",
            metrics.snapshot_loaded_entries,
            metrics.warm_hit_rate * 100.0
        );
    }
    println!("pass@1 = {:.3}", evaluation.passk().pass1);
}
