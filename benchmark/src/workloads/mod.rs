//! The four workloads.  Each stresses different layers, so an optimisation
//! of one layer has a workload that exercises it and one that bypasses it.

pub mod augment;
pub mod eval;
pub mod serve_wire;

use crate::bench::{Plan, Report};
use crate::spans::Tracer;
use crate::stats;
use svdata::PipelineConfig;
use svgen::CorpusConfig;

/// The pipeline configuration of every workload: the default bounded check
/// and four bug candidates per design over a corpus generated from
/// `corpus_seed`.  (Eight candidates make each exhaustively checked design a
/// one-second call, too long to fit between the host's slow spells.)
///
/// `PipelineConfig.seed` keeps its default: driving it from the run's seed
/// decides how many mutants of the four exhaustively checked designs survive
/// their 4096-sequence sweep, which moved a round by 27 % between seeds
/// (interquartile range over median, ten seeds) — more than any bound this
/// benchmark could then hold.
pub fn pipeline_config(plan: &Plan, corpus_seed: u64) -> PipelineConfig {
    PipelineConfig {
        corpus: CorpusConfig {
            golden_designs: plan.designs(),
            seed: corpus_seed,
            ..CorpusConfig::default()
        },
        bugs_per_design: 4,
        check: plan.check(PipelineConfig::default().check),
        ..PipelineConfig::default()
    }
}

/// An untraced run: every end-to-end metric of the named workload.
///
/// # Panics
///
/// On a name `BENCHMARK.json` does not list; `main` checks before calling.
pub fn run(workload: &str, plan: &Plan) -> Report {
    match workload {
        "augment" => augment::run(plan),
        "eval_cold" => eval::run_cold(plan),
        "eval_warm" => eval::run_warm(plan),
        "serve_wire" => serve_wire::run(plan),
        other => panic!("unknown workload {other}"),
    }
}

/// A traced run: untraced rounds for the baseline, then one pass with parent
/// spans on the entry points and the replay through the layers.
pub fn trace(workload: &str, plan: &Plan, t: &mut Tracer) -> Report {
    let mut report = match workload {
        "augment" => augment::trace(plan, t),
        "eval_cold" => eval::trace_cold(plan, t),
        "eval_warm" => eval::trace_warm(plan, t),
        "serve_wire" => serve_wire::trace(plan, t),
        other => panic!("unknown workload {other}"),
    };
    report
        .metrics
        .set("bench.peak_rss_mb", stats::peak_rss_mb());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Manifest;
    use std::collections::BTreeSet;
    use std::path::Path;
    use std::time::Instant;

    /// The `--smoke` size: four designs, one round.
    fn smoke_plan(scratch: &Path) -> Plan {
        Plan {
            seed: 1,
            min_seconds: 0.0,
            min_rounds: 1,
            smoke: true,
            scratch: scratch.to_path_buf(),
        }
    }

    /// Every workload, untraced and traced, at smoke size: the gates hold,
    /// the names printed are exactly the names `BENCHMARK.json` declares,
    /// and the whole thing takes seconds.
    #[test]
    fn smoke_exercises_every_workload_gate_and_metric_name() {
        let started = Instant::now();
        let manifest = Manifest::load();
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let plan = smoke_plan(&scratch);

        let mut layer_names = BTreeSet::new();
        for workload in &manifest.workloads {
            let report = run(workload, &plan);
            assert_eq!(
                report.gate.failed,
                0,
                "{workload}: {:?}",
                report.gate.first_failure()
            );
            assert!(report.gate.attempted > 0, "{workload} checked nothing");
            let printed: Vec<&str> = report.metrics.names().collect();
            let mut declared: Vec<&str> = manifest
                .end_to_end
                .iter()
                .map(|d| d.name.as_str())
                .collect();
            declared.sort_unstable();
            assert_eq!(printed, declared, "{workload}: end-to-end names");
            for name in printed {
                assert!(
                    report.metrics.get(name).unwrap() > 0.0,
                    "{workload}: {name} is 0"
                );
            }

            let mut tracer = Tracer::new();
            let report = trace(workload, &plan, &mut tracer);
            assert_eq!(
                report.gate.failed,
                0,
                "{workload}: {:?}",
                report.gate.first_failure()
            );
            assert!(!tracer.spans().is_empty());
            layer_names.extend(report.metrics.names().map(str::to_string));
        }
        let declared: BTreeSet<String> =
            manifest.per_layer.iter().map(|d| d.name.clone()).collect();
        // A percentile needs ten samples beyond it; a smoke run has four in all.
        layer_names.insert("svserve.wire.lat_p50_us".to_string());
        layer_names.insert("svserve.wire.lat_p99_us".to_string());
        assert_eq!(layer_names, declared, "per-layer names");

        std::fs::remove_dir_all(&scratch).unwrap();
        // About 3 s on a quiet two-core box; the limit only catches a blow-up.
        let elapsed = started.elapsed().as_secs_f64();
        assert!(elapsed < 30.0, "smoke took {elapsed:.1} s");
    }
}
