//! Distributed shard fabric: sample against `shard-serve` processes over unix
//! sockets and prove the result is **byte-identical** to the in-process run.
//!
//! ```text
//! cargo build --release -p svserve            # builds the shard-serve binary
//! cargo run --release --example distributed_shards [-- --shards N]
//! ```
//!
//! The example spawns `N` (default 2) `shard-serve` children, each hosting the
//! same `AssertSolverModel` behind its own socket and snapshot file, then runs
//! the same evaluation four ways:
//!
//! 1. **in-process** — the plain local pipeline, the reference bytes;
//! 2. **cold remote** — over the wire against freshly started shards;
//! 3. **warm remote** — against *restarted* shards that warm-start their
//!    response caches from the snapshots flushed at shutdown (the fleet
//!    metrics must show remote cache hits);
//! 4. **degraded** — after SIGKILLing one shard mid-connection: the run must
//!    still complete with every case accounted for, the killed shard's cases
//!    degrading to counted wire errors — never a client panic or hang.
//!
//! Runs 1–3 must serialize to identical JSON: placement is a pure function of
//! request content, sampler seeds derive from case content plus the shared
//! `--seed`, and the `Hello` fingerprint handshake refuses a fleet serving a
//! different model.  CI's transport matrix runs this example at 1 and 2 shards.

mod common;

use assertsolver::{evaluate_model_with, EvalConfig, EvalVerifier, Evaluation, ShardSpec};
use common::ShardProcess;
use std::path::{Path, PathBuf};
use std::time::Duration;
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, CaseInput, RepairModel};
use svserve::{shard_for_key, RepairRequest, ShardFleet};

fn spawn_fleet(
    binary: &Path,
    dir: &Path,
    shards: usize,
    model_file: &Path,
    seed: u64,
) -> (Vec<ShardProcess>, Vec<PathBuf>) {
    let mut processes = Vec::new();
    let mut sockets = Vec::new();
    for shard in 0..shards {
        let socket = dir.join(format!("shard-{shard}.sock"));
        let snapshot = dir.join(format!("shard-{shard}-snapshot.json"));
        processes.push(ShardProcess::spawn(
            binary,
            &socket,
            model_file,
            Some(&snapshot),
            seed,
        ));
        sockets.push(socket);
    }
    (processes, sockets)
}

fn eval_json(evaluation: &assertsolver::ModelEvaluation) -> String {
    serde_json::to_string(evaluation).expect("evaluation serializes")
}

fn main() {
    let mut shards = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--shards takes a positive integer");
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let dir = std::env::temp_dir().join(format!("assertsolver-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let model = AssertSolverModel::base(11);
    let model_file = dir.join("model.json");
    std::fs::write(
        &model_file,
        serde_json::to_string(&model).expect("model serializes"),
    )
    .expect("write model file");

    let cases: Vec<SvaBugEntry> = assertsolver::human_crafted_cases()
        .into_iter()
        .take(6)
        .collect();
    let config = EvalConfig {
        workers: 2,
        verify_workers: 2,
        ..EvalConfig::quick(17)
    };

    // 1. The reference: the plain in-process pipeline.
    let verifier = EvalVerifier::start(&config);
    let baseline = evaluate_model_with(&model, &cases, &config, &verifier);
    let baseline_json = eval_json(&baseline);
    println!(
        "in-process: {} cases, pass@1 = {:.3}",
        baseline.results.len(),
        baseline.passk().pass1
    );

    let binary = common::workspace_binary("shard-serve", "svserve");
    let spec_timeout = Duration::from_millis(10_000);

    // 2. Cold remote: freshly started shards, empty caches.
    let (processes, sockets) = spawn_fleet(&binary, &dir, shards, &model_file, config.seed);
    let spec = ShardSpec::new(
        sockets
            .iter()
            .map(|socket| socket.display().to_string())
            .collect(),
    );
    let cold_fleet = ShardFleet::connect_unix(&spec.sockets, Some(&model.identity()), spec_timeout);
    let cold = Evaluation::new(&model, &cases, &config)
        .verifier(&verifier)
        .fleet(&cold_fleet)
        .run()
        .evaluation;
    let cold_metrics = cold_fleet.metrics();
    println!("{}", cold_metrics.render());
    assert_eq!(cold_metrics.dead_shards, 0, "all shards connected");
    assert_eq!(cold_metrics.wire_errors, 0, "cold run is error-free");
    assert_eq!(
        baseline_json,
        eval_json(&cold),
        "cold remote evaluation must be byte-identical to the in-process run"
    );
    println!("cold remote over {shards} shard(s): byte-identical to in-process");

    // Graceful shutdown flushes each shard's response snapshot.
    drop(cold_fleet);
    for process in processes {
        process.shutdown();
    }

    // 3. Warm remote: restarted shards preload those snapshots.
    let (mut processes, _) = spawn_fleet(&binary, &dir, shards, &model_file, config.seed);
    let warm_fleet = ShardFleet::connect_unix(&spec.sockets, Some(&model.identity()), spec_timeout);
    let warm = Evaluation::new(&model, &cases, &config)
        .verifier(&verifier)
        .fleet(&warm_fleet)
        .run()
        .evaluation;
    let warm_metrics = warm_fleet.metrics();
    println!("{}", warm_metrics.render());
    assert_eq!(
        baseline_json,
        eval_json(&warm),
        "warm remote evaluation must be byte-identical to the in-process run"
    );
    assert!(
        warm_metrics.remote_cache_hits > 0,
        "restarted shards must serve from their warm-started response caches"
    );
    println!(
        "warm remote: byte-identical again, {} of {} answers from warm shard caches",
        warm_metrics.remote_cache_hits, warm_metrics.completed
    );

    // 4. Degradation: SIGKILL the shard holding the most cases, keep the
    //    existing connections, and re-run.  The evaluation must complete with
    //    every case present; the killed shard's cases become counted wire
    //    errors (zero-sample case results) — never a panic or a hang.
    let mut load = vec![0usize; shards];
    for entry in &cases {
        let request = RepairRequest::new(
            CaseInput::from_entry(entry),
            config.samples,
            config.temperature,
        );
        load[shard_for_key(request.key(), shards)] += 1;
    }
    let victim = (0..shards).max_by_key(|&shard| load[shard]).unwrap_or(0);
    let victim_cases = load[victim];
    assert!(victim_cases > 0, "victim shard must hold at least one case");
    println!(
        "killing shard {victim} ({victim_cases} of {} cases place there)",
        cases.len()
    );
    processes[victim].kill();
    let degraded = Evaluation::new(&model, &cases, &config)
        .verifier(&verifier)
        .fleet(&warm_fleet)
        .run()
        .evaluation;
    let degraded_metrics = warm_fleet.metrics();
    println!("{}", degraded_metrics.render());
    assert_eq!(
        degraded.results.len(),
        cases.len(),
        "a killed shard must not lose cases, only degrade them"
    );
    assert_eq!(
        degraded_metrics.wire_errors, victim_cases as u64,
        "every case placed on the killed shard is a counted wire error"
    );
    let zero_sample = degraded
        .results
        .iter()
        .filter(|result| result.n == 0)
        .count();
    assert_eq!(
        zero_sample, victim_cases,
        "degraded cases report zero samples"
    );
    println!(
        "degraded run completed: {} wire errors counted, {} healthy cases still byte-faithful",
        degraded_metrics.wire_errors,
        cases.len() - zero_sample
    );

    verifier.shutdown();
    for mut process in processes {
        process.kill();
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("distributed shard fabric: all invariants held");
}
