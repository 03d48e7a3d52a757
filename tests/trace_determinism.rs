//! Trace-tree byte-determinism: the deterministic projection of a trace
//! forest ([`TraceForest::render_deterministic`]) is a pure function of
//! (corpus, salt) — identical at any driver-thread count, any worker count,
//! over loopback or unix-socket fleets, warm or cold.  A v2 peer, which
//! predates the `SubmitTraced` exchange, is refused at the handshake and its
//! cases degrade to counted errors.
//!
//! Wall clocks are the *only* volatile span field, and they are excluded
//! from the projection, so these suites compare bytes, not structures — the
//! same bar the journal and deterministic-metrics planes hold.

use assertsolver::{
    evaluate_model_observed, evaluate_model_over_fleet_traced, EvalConfig, EvalVerifier,
};
use std::sync::Arc;
use std::time::Duration;
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, RepairModel};
use svserve::{
    read_frame, write_frame, Frame, RepairService, ServiceConfig, ShardFleet, ShardServer,
    TelemetryHandle, TraceForest, TraceHandle, TracerHandle, UnixTransport, WireError,
    MIN_WIRE_FORMAT_VERSION,
};

fn corpus() -> Vec<SvaBugEntry> {
    assertsolver::human_crafted_cases()
        .into_iter()
        .take(4)
        .collect()
}

/// One in-process evaluation with tracing on; returns the deterministic
/// projection of the collected forest.
fn traced_run(config: &EvalConfig) -> String {
    let model = AssertSolverModel::base(config.seed);
    let trace = TraceHandle::new(0);
    let verifier = EvalVerifier::start(config);
    evaluate_model_observed(
        &model,
        &corpus(),
        config,
        &verifier,
        &TracerHandle::off(),
        &TelemetryHandle::off(),
        &trace,
    );
    verifier.shutdown();
    TraceForest::from_spans(trace.drain()).render_deterministic()
}

#[test]
fn trace_tree_is_byte_identical_at_any_driver_count() {
    let reference = traced_run(&EvalConfig {
        drivers: 1,
        ..EvalConfig::quick(7)
    });
    assert!(!reference.is_empty(), "tracing collected spans");
    for drivers in [2, 4, 8] {
        let tree = traced_run(&EvalConfig {
            drivers,
            ..EvalConfig::quick(7)
        });
        assert_eq!(
            tree, reference,
            "trace tree at {drivers} drivers must match the single-driver bytes"
        );
    }
}

#[test]
fn trace_tree_is_byte_identical_at_any_worker_count() {
    let reference = traced_run(&EvalConfig {
        workers: 1,
        verify_workers: 1,
        ..EvalConfig::quick(11)
    });
    for workers in 2..=8 {
        let tree = traced_run(&EvalConfig {
            workers,
            verify_workers: 1 + workers % 3,
            ..EvalConfig::quick(11)
        });
        assert_eq!(
            tree, reference,
            "trace tree at {workers} workers must match the single-worker bytes"
        );
    }
}

/// Fleet runs — loopback (every frame round-trips the codec in process) and
/// a 2-shard unix-socket fleet — produce the same bytes as the in-process
/// evaluation, warm or cold.
#[test]
fn fleet_trace_trees_match_in_process_over_loopback_and_unix() {
    let seed = 13;
    let config = EvalConfig::quick(seed);
    let model = AssertSolverModel::base(seed);
    let reference = traced_run(&config);

    // Loopback: one in-process shard behind the codec.
    let service = Arc::new(RepairService::start(
        Arc::new(AssertSolverModel::base(seed)),
        ServiceConfig::default().with_seed(seed),
    ));
    let fleet = ShardFleet::new(vec![Box::new(svserve::LoopbackTransport::new(
        Arc::clone(&service),
        model.identity(),
    ))]);
    let trace = TraceHandle::new(0);
    let verifier = EvalVerifier::start(&config);
    evaluate_model_over_fleet_traced(&model, &corpus(), &config, &fleet, &verifier, &trace);
    verifier.shutdown();
    let loopback = TraceForest::from_spans(trace.drain()).render_deterministic();
    assert_eq!(loopback, reference, "loopback tree matches in-process");
    drop(fleet);
    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();

    // Unix: two shard servers on temp sockets, cold then warm.
    let dir = std::env::temp_dir().join(format!("trace-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let services: Vec<_> = (0..2)
        .map(|_| {
            Arc::new(RepairService::start(
                Arc::new(AssertSolverModel::base(seed)),
                ServiceConfig::default().with_seed(seed),
            ))
        })
        .collect();
    let sockets: Vec<_> = (0..2)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let servers: Vec<_> = services
        .iter()
        .zip(&sockets)
        .map(|(service, socket)| {
            ShardServer::bind(socket, Arc::clone(service), model.identity()).expect("bind")
        })
        .collect();
    let fleet =
        ShardFleet::connect_unix(&sockets, Some(&model.identity()), Duration::from_secs(10));
    for pass in ["cold", "warm"] {
        let trace = TraceHandle::new(0);
        let verifier = EvalVerifier::start(&config);
        evaluate_model_over_fleet_traced(&model, &corpus(), &config, &fleet, &verifier, &trace);
        verifier.shutdown();
        let unix = TraceForest::from_spans(trace.drain()).render_deterministic();
        assert_eq!(unix, reference, "{pass} unix fleet tree matches in-process");
    }
    assert_eq!(fleet.metrics().wire_errors, 0);
    drop(fleet);
    for server in servers {
        server.shutdown();
    }
    for service in services {
        Arc::try_unwrap(service)
            .ok()
            .expect("sole owner")
            .shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v2 peer — one that answers the hello with a version below the floor —
/// is refused cleanly: the connect returns a protocol error naming the version
/// (no hang, no panic), the fleet carries the shard as a dead slot, every
/// request placed on it is a counted wire error, and an evaluation over that
/// fleet degrades its cases to `n = 0` instead of failing.
#[test]
fn v2_peer_is_refused_cleanly_and_its_cases_degrade() {
    let dir = std::env::temp_dir().join(format!("trace-v2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("v2.sock");
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");

    // The fake v2 shard: answers each hello one version below the floor, then
    // waits for the client to hang up.  Any further frame fails the test.
    let peer = std::thread::spawn(move || {
        for _ in 0..2 {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = std::io::BufReader::new(stream);
            match read_frame(&mut reader).expect("client hello") {
                Frame::Hello { .. } => write_frame(
                    &mut writer,
                    &Frame::Hello {
                        format_version: MIN_WIRE_FORMAT_VERSION - 1,
                        fingerprint: "assertsolver".into(),
                    },
                )
                .expect("reply hello"),
                other => panic!("expected hello, got {other:?}"),
            }
            if let Ok(frame) = read_frame(&mut reader) {
                panic!("a refused peer must be sent nothing more, got {frame:?}");
            }
        }
    });

    match UnixTransport::connect(&socket, None, Duration::from_secs(10)) {
        Err(WireError::Protocol(msg)) => assert!(
            msg.contains("version"),
            "refusal names the version mismatch: {msg}"
        ),
        Err(other) => panic!("expected a version refusal, got {other:?}"),
        Ok(_) => panic!("a v2 hello must refuse the connection"),
    }

    let seed = 17;
    let config = EvalConfig::quick(seed);
    let model = AssertSolverModel::base(seed);
    let cases = corpus();
    let fleet = ShardFleet::connect_unix(&[&socket], None, Duration::from_secs(10));
    assert_eq!(fleet.shards(), 1, "the refused shard is a dead slot");
    let trace = TraceHandle::new(0);
    let verifier = EvalVerifier::start(&config);
    let evaluation =
        evaluate_model_over_fleet_traced(&model, &cases, &config, &fleet, &verifier, &trace);
    verifier.shutdown();
    assert_eq!(evaluation.results.len(), cases.len());
    assert!(
        evaluation
            .results
            .iter()
            .all(|case| case.n == 0 && case.c == 0),
        "every case on the refused shard degrades to zero samples"
    );
    let metrics = fleet.metrics();
    assert_eq!(metrics.wire_errors, cases.len() as u64);
    assert_eq!(metrics.completed, 0);
    assert!(
        trace.drain().is_empty(),
        "a degraded case contributes no spans"
    );

    drop(fleet);
    peer.join().expect("peer thread");
    let _ = std::fs::remove_dir_all(&dir);
}
