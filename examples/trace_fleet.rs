//! Cross-process causal tracing: prove the trace tree reconstructed from a
//! live 2-shard `shard-serve` fleet is byte-identical to the in-process one,
//! then drive `svobs trace` and `svobs top` (`svtrace` and `svtop` below)
//! against the same fleet.
//!
//! ```text
//! cargo run --release --example trace_fleet
//! ```
//!
//! The deterministic projection of a trace forest (ids, parents, logical
//! start ticks, units — everything except wall clocks) is a pure function of
//! (corpus, salt): the shard derives its `sample` span from the same remote
//! context the driver sent in the `SubmitTraced` frame, so merging the
//! `TraceReply` spans into the driver's tree reproduces the exact bytes the
//! in-process evaluation emits.  This example pins that acceptance bar
//! against real child processes (not the in-library loopback the
//! `trace_determinism` suite covers), then asserts the operator surfaces:
//!
//! 1. **library** — in-process vs fleet `render_deterministic()` bytes match;
//! 2. **svtrace** — `--sockets --deterministic` prints those same bytes, and
//!    `--slowest 3 --min-coverage 95` exits 0 (≥95% of each listed session's
//!    wall-clock is attributed to named spans);
//! 3. **svtop** — `--once` renders every shard live with plausible window
//!    columns, `--once --json` emits a parseable per-shard exposition, and
//!    against an all-dead fleet `--once` exits 1 without hanging.

mod common;

use assertsolver::{EvalConfig, Evaluation};
use common::{run, workspace_binary, ShardProcess};
use std::path::PathBuf;
use std::time::Duration;
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, RepairModel};
use svserve::{ShardFleet, TraceForest, TraceHandle};

fn main() {
    let dir = std::env::temp_dir().join(format!("assertsolver-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let seed = 2025;
    let model = AssertSolverModel::base(seed);
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
        ..EvalConfig::quick(seed)
    };

    // 1. The in-process reference tree.  Salt 0 matches what `svtrace` uses,
    //    so binary output below is comparable byte-for-byte.
    let trace = TraceHandle::new(0);
    Evaluation::new(&model, &cases, &config).trace(&trace).run();
    let reference = TraceForest::from_spans(trace.drain()).render_deterministic();
    assert!(!reference.is_empty(), "in-process run produced spans");

    let shard_serve = workspace_binary("shard-serve", "svserve");
    let svobs = workspace_binary("svobs", "assertsolver-bench");
    let timeout = Duration::from_millis(10_000);

    let sockets: Vec<PathBuf> = (0..2)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let mut processes: Vec<ShardProcess> = sockets
        .iter()
        .map(|socket| ShardProcess::spawn(&shard_serve, socket, &model_file, None, config.seed))
        .collect();
    let socket_list = common::socket_list(&sockets);

    // 2. Library surface: the tree merged from live `TraceReply` frames is
    //    byte-identical to the in-process reference.
    let fleet = ShardFleet::connect_unix(&sockets, Some(&model.identity()), timeout);
    let trace = TraceHandle::new(0);
    Evaluation::new(&model, &cases, &config)
        .trace(&trace)
        .fleet(&fleet)
        .run();
    assert_eq!(fleet.metrics().wire_errors, 0, "clean fleet run");
    let remote = TraceForest::from_spans(trace.drain()).render_deterministic();
    assert_eq!(
        remote, reference,
        "cross-process trace tree is byte-identical to the in-process tree"
    );
    println!("trace_fleet: library trees match ({} bytes)", remote.len());

    // 3. svtrace against the live (now warm) fleet: the deterministic
    //    projection still matches — warm caches change wall clocks only —
    //    and every session clears the 95% attribution bar.
    let (ok, stdout, stderr) = run(
        &svobs,
        &[
            "trace",
            "--seed",
            &seed.to_string(),
            "--limit",
            "6",
            "--sockets",
            &socket_list,
            "--deterministic",
        ],
    );
    assert!(ok, "svtrace --deterministic exits 0 (stderr: {stderr})");
    assert_eq!(
        stdout, reference,
        "svtrace --sockets --deterministic prints the reference bytes"
    );
    let (ok, stdout, stderr) = run(
        &svobs,
        &[
            "trace",
            "--seed",
            &seed.to_string(),
            "--limit",
            "6",
            "--sockets",
            &socket_list,
            "--slowest",
            "3",
            "--min-coverage",
            "95",
        ],
    );
    assert!(
        ok,
        "svtrace --slowest 3 --min-coverage 95 exits 0 (stderr: {stderr})"
    );
    assert!(
        stdout.lines().count() == 4,
        "--slowest 3 prints a header and three rows:\n{stdout}"
    );
    println!("trace_fleet: svtrace binary agrees and clears the coverage bar");

    // 4. svtop against the same fleet: the shards have served real traffic,
    //    so the window plane reports completions and latency quantiles.
    let (ok, table, stderr) = run(&svobs, &["top", "--sockets", &socket_list, "--once"]);
    assert!(ok, "svtop --once exits 0 (stderr: {stderr})");
    assert!(
        table.contains("fleet: 2/2 shards live"),
        "svtop reports liveness:\n{table}"
    );
    assert!(table.contains("p99_ns"), "svtop renders quantile columns");
    let (ok, json, _) = run(
        &svobs,
        &["top", "--sockets", &socket_list, "--once", "--json"],
    );
    assert!(ok, "svtop --once --json exits 0");
    assert!(
        json.contains("\"ok\":true") && json.contains("\"width\":"),
        "svtop --json carries per-shard window expositions:\n{json}"
    );
    println!("trace_fleet: svtop table + json surfaces answer");

    // 5. Degradation: an all-dead fleet is a clean nonzero exit, not a hang.
    for process in &mut processes {
        process.kill();
    }
    let (ok, _, stderr) = run(&svobs, &["top", "--sockets", &socket_list, "--once"]);
    assert!(!ok, "svtop against an all-dead fleet exits nonzero");
    assert!(
        stderr.contains("no shard answered"),
        "svtop explains the failure: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("trace_fleet: all invariants held");
}
