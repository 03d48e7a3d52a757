//! Live fleet introspection: run traffic through `shard-serve` processes,
//! then read the fleet back with the `Stats` wire exchange and `svobs stat`
//! (called `svstat` below).
//!
//! ```text
//! cargo run --release --example fleet_stats
//! ```
//!
//! The example spawns two `shard-serve` children, evaluates the quick
//! protocol over the fleet, and then asserts the introspection contract from
//! both surfaces:
//!
//! 1. **library** — [`ShardFleet::fleet_stats`] reports every shard live,
//!    and the merged registry carries the deterministic workload counters
//!    (`service.submitted` equals the cases served) *and* live latency
//!    histograms (`service.repair.solve` with one observation per solve) —
//!    shard processes always run with telemetry on;
//! 2. **binary** — `svobs stat --sockets a,b` renders the same fleet as a table
//!    (per-shard liveness, hit rates, percentile columns), and
//!    `svstat --json` emits a parseable [`RegistrySnapshot`] exposition;
//! 3. **degradation** — against a half-dead fleet `svstat` still exits 0 and
//!    reports `1/2 shards live`; against an all-dead fleet it exits 1.

mod common;

use assertsolver::{EvalConfig, Evaluation};
use common::{workspace_binary, ShardProcess};
use std::path::{Path, PathBuf};
use std::time::Duration;
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, RepairModel};
use svserve::{MetricKind, RegistrySnapshot, ShardFleet};

fn run_svstat(svobs: &Path, sockets: &[PathBuf], extra: &[&str]) -> (bool, String, String) {
    let joined = common::socket_list(sockets);
    common::run(svobs, &[&["stat", "--sockets", &joined], extra].concat())
}

fn main() {
    let dir = std::env::temp_dir().join(format!("assertsolver-svstat-{}", std::process::id()));
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

    let shard_serve = workspace_binary("shard-serve", "svserve");
    let svstat = workspace_binary("svobs", "assertsolver-bench");
    let timeout = Duration::from_millis(10_000);

    let sockets: Vec<PathBuf> = (0..2)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let mut processes: Vec<ShardProcess> = sockets
        .iter()
        .map(|socket| ShardProcess::spawn(&shard_serve, socket, &model_file, None, config.seed))
        .collect();

    // Drive real traffic so the shards have something to report.
    let fleet = ShardFleet::connect_unix(&sockets, Some(&model.identity()), timeout);
    let evaluation = Evaluation::new(&model, &cases, &config)
        .fleet(&fleet)
        .run()
        .evaluation;
    assert_eq!(evaluation.results.len(), cases.len());

    // 1. Library surface: every shard answers, and the merged registry holds
    //    both the deterministic workload counters and live latency histograms.
    let stats = fleet.fleet_stats();
    assert_eq!(stats.live(), 2, "both shards answer the stats exchange");
    let submitted = stats.merged.get("service.submitted").expect("submitted");
    assert_eq!(
        submitted.value,
        cases.len() as u64,
        "fleet-wide submitted counter sums to the case count"
    );
    let solve = stats
        .merged
        .get("service.repair.solve")
        .expect("shard processes always serve latency histograms");
    assert_eq!(solve.kind, MetricKind::Histogram);
    assert!(solve.count > 0, "solve latency has observations");
    assert!(solve.percentile(0.99) >= solve.percentile(0.50));
    println!(
        "fleet_stats: 2/2 live, submitted={}, solve p50={}ns p99={}ns",
        submitted.value,
        solve.percentile(0.50),
        solve.percentile(0.99)
    );

    // 2. Binary surface: the table names both shards live and carries the
    //    histogram row; --json round-trips through the snapshot parser.
    let (ok, table, stderr) = run_svstat(&svstat, &sockets, &[]);
    assert!(ok, "svstat against a live fleet exits 0 (stderr: {stderr})");
    assert!(
        table.contains("fleet: 2/2 shards live"),
        "svstat reports liveness:\n{table}"
    );
    assert!(
        table.contains("service.repair.solve"),
        "svstat renders the solve latency row:\n{table}"
    );
    assert!(
        table.contains("hit rate"),
        "svstat derives cache hit rates:\n{table}"
    );
    let (ok, json, _) = run_svstat(&svstat, &sockets, &["--json"]);
    assert!(ok, "svstat --json exits 0");
    let parsed = RegistrySnapshot::parse_json(json.trim()).expect("svstat --json parses");
    assert!(parsed.get("service.submitted").is_some());
    println!("svstat: table + json surfaces agree with fleet_stats");

    // 3. Degradation: kill one shard — svstat still answers (1/2 live, exit
    //    0); kill both — exit 1, no panic, no hang.
    processes[0].kill();
    let (ok, table, _) = run_svstat(&svstat, &sockets, &[]);
    assert!(ok, "svstat with one dead shard still exits 0");
    assert!(
        table.contains("fleet: 1/2 shards live"),
        "svstat reports the dead shard:\n{table}"
    );
    processes[1].kill();
    let (ok, _, stderr) = run_svstat(&svstat, &sockets, &[]);
    assert!(!ok, "svstat against an all-dead fleet exits nonzero");
    assert!(
        stderr.contains("no shard answered"),
        "svstat explains the failure: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("fleet introspection: all invariants held");
}
