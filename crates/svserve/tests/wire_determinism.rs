//! Wire-protocol determinism and degradation: a fleet of shards behind the
//! versioned frame protocol answers **byte-identically** to direct local
//! submission, and every failure mode — version skew, fingerprint mismatch,
//! admission shed, killed server — degrades to a counted error, never a
//! client panic or hang.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use svmodel::{CaseInput, RepairModel, Response};
use svserve::persist::PersistSpec;
use svserve::{
    read_frame, write_frame, Frame, LoopbackTransport, RemoteShard, RepairRequest, RepairService,
    ServiceConfig, ShardFleet, ShardServer, Transport, UnixTransport, WireError,
    WIRE_FORMAT_VERSION,
};

/// Deterministic model: responses are a pure function of `(case, samples, seed)`,
/// so two services built alike answer identically — the invariant the fleet
/// relies on.
struct EchoModel;

impl RepairModel for EchoModel {
    fn name(&self) -> &str {
        "echo"
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        _temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
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

/// Counts invocations, proving warm starts never reach the model.
struct CountingModel {
    calls: AtomicUsize,
}

impl RepairModel for CountingModel {
    fn name(&self) -> &str {
        "counting"
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        EchoModel.solve(case, samples, temperature, seed)
    }
}

/// Blocks every `solve` until the test opens the gate, making in-flight
/// occupancy exact for the admission-shed test.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

struct GatedModel {
    gate: Arc<Gate>,
}

impl RepairModel for GatedModel {
    fn name(&self) -> &str {
        "gated"
    }

    fn solve(
        &self,
        case: &CaseInput,
        samples: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<Response> {
        let mut open = self.gate.open.lock().unwrap();
        while !*open {
            open = self.gate.cv.wait(open).unwrap();
        }
        drop(open);
        EchoModel.solve(case, samples, temperature, seed)
    }
}

fn request(tag: usize) -> RepairRequest {
    RepairRequest::new(
        CaseInput {
            spec: format!("spec {tag}"),
            buggy_source: format!("module m{tag}(); endmodule"),
            logs: format!("assertion a{tag} failed"),
        },
        3,
        0.2,
    )
}

fn echo_service() -> Arc<RepairService<EchoModel>> {
    Arc::new(RepairService::start(
        Arc::new(EchoModel),
        ServiceConfig::default().with_workers(2).with_seed(42),
    ))
}

fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("svserve-wire-{}-{tag}.sock", std::process::id()))
}

#[test]
fn loopback_fleet_matches_direct_submission_at_any_shard_count() {
    let reference = echo_service();
    for shards in [1usize, 2, 4] {
        let services: Vec<_> = (0..shards).map(|_| echo_service()).collect();
        let fleet = ShardFleet::new(
            services
                .iter()
                .map(|service| {
                    Box::new(LoopbackTransport::new(Arc::clone(service), "echo"))
                        as Box<dyn Transport>
                })
                .collect(),
        );
        for tag in 0..12 {
            let direct = reference.submit(request(tag)).expect("open").wait();
            let remote = fleet.submit(&request(tag)).expect("fleet healthy");
            assert_eq!(
                *direct.responses, remote.responses,
                "shard count {shards}, case {tag}: wire answers must be \
                 byte-identical to direct submission"
            );
        }
        let metrics = fleet.metrics();
        assert_eq!(metrics.submitted, 12);
        assert_eq!(metrics.completed, 12);
        assert_eq!(metrics.wire_errors, 0);
        drop(fleet);
        for service in services {
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown();
        }
    }
    Arc::try_unwrap(reference)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn unix_fleet_matches_direct_submission_end_to_end() {
    let reference = echo_service();
    let services: Vec<_> = (0..2).map(|_| echo_service()).collect();
    let sockets: Vec<_> = (0..2).map(|i| socket_path(&format!("e2e-{i}"))).collect();
    let servers: Vec<_> = services
        .iter()
        .zip(&sockets)
        .map(|(service, socket)| {
            ShardServer::bind(socket, Arc::clone(service), "echo").expect("bind shard server")
        })
        .collect();

    let fleet = ShardFleet::connect_unix(&sockets, Some("echo"), Duration::from_secs(10));
    assert_eq!(fleet.metrics().dead_shards, 0, "both shards connect");
    for tag in 0..8 {
        let direct = reference.submit(request(tag)).expect("open").wait();
        let remote = fleet.submit(&request(tag)).expect("fleet healthy");
        assert_eq!(
            *direct.responses, remote.responses,
            "case {tag}: socket answers must match direct submission"
        );
        assert!(!remote.from_cache, "first sighting of each case is a miss");
    }
    // The same case again is served from the shard's cache, visibly so.
    let again = fleet.submit(&request(0)).expect("fleet healthy");
    assert!(again.from_cache, "repeat submission hits the shard cache");
    assert_eq!(fleet.metrics().remote_cache_hits, 1);

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
    Arc::try_unwrap(reference)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn hello_version_skew_negotiates_down_or_refuses_below_the_floor() {
    let service = echo_service();
    let socket = socket_path("version");
    let server = ShardServer::bind(&socket, Arc::clone(&service), "echo").expect("bind");

    // The wire has one version: a peer announcing any other — newer or older
    // — is refused with an `Err` frame naming the mismatch (and counted)
    // instead of being served frames it might misparse.
    for (skewed, refusals) in [(WIRE_FORMAT_VERSION + 1, 1), (WIRE_FORMAT_VERSION - 1, 2)] {
        let stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        write_frame(
            &mut writer,
            &Frame::Hello {
                format_version: skewed,
                fingerprint: "echo".into(),
            },
        )
        .expect("send hello");
        let mut reader = std::io::BufReader::new(stream);
        match read_frame(&mut reader).expect("server replies") {
            Frame::Err(msg) => assert!(
                msg.contains("version"),
                "refusal of v{skewed} names the version mismatch: {msg}"
            ),
            other => panic!("expected an Err frame for v{skewed}, got {other:?}"),
        }
        assert_eq!(server.protocol_errors(), refusals, "the refusal is counted");
    }

    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn fingerprint_mismatch_refuses_the_connection() {
    let service = echo_service();
    let socket = socket_path("fingerprint");
    let server = ShardServer::bind(&socket, Arc::clone(&service), "echo").expect("bind");

    let refused = UnixTransport::connect(&socket, Some("different-model"), Duration::from_secs(10));
    match refused {
        Err(WireError::Protocol(msg)) => assert!(
            msg.contains("fingerprint"),
            "refusal names the fingerprint mismatch: {msg}"
        ),
        Err(other) => panic!("expected a fingerprint refusal, got {other:?}"),
        Ok(_) => panic!("fingerprint mismatch must refuse the connection"),
    }
    // Not asking for a fingerprint accepts whatever the shard serves.
    let accepted = UnixTransport::connect(&socket, None, Duration::from_secs(10)).expect("connect");
    assert_eq!(accepted.fingerprint(), "echo");

    drop(accepted);
    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn busy_over_the_wire_is_shed_and_counted_like_a_local_shed() {
    let gate = Gate::new();
    let service = Arc::new(RepairService::start(
        Arc::new(GatedModel {
            gate: Arc::clone(&gate),
        }),
        ServiceConfig::default()
            .with_workers(1)
            .with_max_in_flight(1),
    ));
    let fleet = ShardFleet::new(vec![
        Box::new(LoopbackTransport::new(Arc::clone(&service), "gated")) as Box<dyn Transport>,
    ]);

    std::thread::scope(|scope| {
        // Fill the only admission slot directly: a submitter parks inside the
        // gated `solve`...
        let parked = scope.spawn(|| service.submit(request(0)).map(|t| t.wait()));
        while service.metrics().in_flight_sessions < 1 {
            std::thread::yield_now();
        }
        // ...so the wire submission is shed deterministically.
        let shed = fleet.submit(&request(1));
        assert_eq!(
            shed,
            Err(WireError::Busy),
            "admission shed crosses the wire"
        );
        let metrics = fleet.metrics();
        assert_eq!(metrics.shed_busy, 1, "the shed is counted in fleet metrics");
        assert_eq!(metrics.wire_errors, 0, "busy is a shed, not a wire failure");
        assert_eq!(
            service.metrics().shed_busy,
            1,
            "and in the shard's own metrics"
        );

        gate.open();
        assert!(
            parked.join().unwrap().is_ok(),
            "the parked submit is served"
        );
    });
    drop(fleet);
    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// Two socket clients of one shard: each connection's submits run on its own
/// server thread, so while the first is inside the gated model holding the
/// only admission slot, the second is shed with `Busy` — and once the gate
/// opens both connections serve what direct submission serves.
#[test]
fn a_second_socket_client_is_shed_while_the_first_is_inside_the_model() {
    let gate = Gate::new();
    let service = Arc::new(RepairService::start(
        Arc::new(GatedModel {
            gate: Arc::clone(&gate),
        }),
        ServiceConfig::default()
            .with_workers(2)
            .with_seed(42)
            .with_max_in_flight(1),
    ));
    let socket = socket_path("busy");
    let server = ShardServer::bind(&socket, Arc::clone(&service), "gated").expect("bind");
    let client = || {
        RemoteShard::new(Box::new(
            UnixTransport::connect(&socket, Some("gated"), Duration::from_secs(10))
                .expect("connect"),
        ))
    };
    let (first, second) = (client(), client());

    let parked = std::thread::scope(|scope| {
        let parked = scope.spawn(|| first.submit(&request(0)));
        while service.metrics().in_flight_sessions < 1 {
            std::thread::yield_now();
        }
        assert_eq!(
            second.submit(&request(1)),
            Err(WireError::Busy),
            "the only slot is held by the first client"
        );
        gate.open();
        parked.join().unwrap().expect("the parked submit is served")
    });
    let reference = echo_service();
    let direct = |tag| {
        (*reference
            .submit(request(tag))
            .expect("open")
            .wait()
            .responses)
            .clone()
    };
    assert_eq!(parked.responses, direct(0));
    for tag in 1..4 {
        assert_eq!(
            first.submit(&request(tag)).expect("served").responses,
            direct(tag)
        );
        let again = second.submit(&request(tag)).expect("served");
        assert!(
            again.from_cache,
            "the second client sees the first's answer"
        );
        assert_eq!(again.responses, direct(tag));
    }
    let metrics = service.metrics();
    assert_eq!((metrics.shed_busy, metrics.completed), (1, 7));
    assert_eq!(
        server.protocol_errors(),
        0,
        "a shed is not a protocol error"
    );

    drop((first, second));
    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
    Arc::try_unwrap(reference)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// `svobs top` reads a shard's counters from its `Stats` reply; they come
/// from the always-on pool metrics, so a shard with telemetry off (the
/// default config) serves them too.
#[test]
fn a_telemetry_off_shard_serves_the_counters_top_reads() {
    let gate = Gate::new();
    let service = Arc::new(RepairService::start(
        Arc::new(GatedModel {
            gate: Arc::clone(&gate),
        }),
        ServiceConfig::default().with_max_in_flight(1),
    ));
    let socket = socket_path("stats");
    let server = ShardServer::bind(&socket, Arc::clone(&service), "gated").expect("bind");
    let client = || {
        RemoteShard::new(Box::new(
            UnixTransport::connect(&socket, Some("gated"), Duration::from_secs(10))
                .expect("connect"),
        ))
    };
    let (first, second) = (client(), client());
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| first.submit(&request(0)));
        while service.metrics().in_flight_sessions < 1 {
            std::thread::yield_now();
        }
        assert_eq!(second.submit(&request(1)), Err(WireError::Busy));
        gate.open();
        parked.join().unwrap().expect("the parked submit is served");
    });
    for tag in 1..3 {
        second.submit(&request(tag)).expect("served");
    }
    let stats = first.stats().expect("stats reply");
    let value = |name: &str| stats.get(name).map(|metric| metric.value);
    assert_eq!(value("service.submitted"), Some(3));
    assert_eq!(value("service.shed_busy"), Some(1));
    assert_eq!(value("service.in_flight"), Some(0));

    drop((first, second));
    server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn a_dead_server_degrades_to_counted_errors_without_hanging() {
    let service = echo_service();
    let socket = socket_path("dead");
    let server = ShardServer::bind(&socket, Arc::clone(&service), "echo").expect("bind");
    let fleet = ShardFleet::connect_unix(
        std::slice::from_ref(&socket),
        Some("echo"),
        Duration::from_secs(5),
    );
    assert_eq!(fleet.metrics().dead_shards, 0);

    // The server goes away mid-connection (crash, kill, deploy).
    server.shutdown();

    // Both submissions fail fast as counted errors: the first observes the
    // dead peer, the second hits the retired connection.
    for _ in 0..2 {
        let outcome = fleet.submit(&request(3));
        assert!(
            matches!(
                outcome,
                Err(WireError::Protocol(_)) | Err(WireError::Closed)
            ),
            "a dead server must surface as a counted error, got {outcome:?}"
        );
    }
    assert_eq!(fleet.metrics().wire_errors, 2);

    // Reconnecting to the removed socket is a dead slot, not a panic.
    let refleet = ShardFleet::connect_unix(&[socket], Some("echo"), Duration::from_secs(5));
    assert_eq!(refleet.metrics().dead_shards, 1);
    assert!(refleet.submit(&request(3)).is_err());
    assert_eq!(refleet.metrics().wire_errors, 1);

    Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn a_shard_warm_starts_from_its_snapshot_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("svserve-wire-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let snapshot = dir.join("responses.json");
    let spec = PersistSpec::new(&snapshot, b"", "counting");
    let socket = socket_path("warm");

    // Cold shard: the request reaches the model once, and the snapshot is
    // flushed at shutdown.
    let cold_model = Arc::new(CountingModel {
        calls: AtomicUsize::new(0),
    });
    let cold = Arc::new(RepairService::start(
        Arc::clone(&cold_model),
        ServiceConfig::default()
            .with_workers(1)
            .with_seed(42)
            .with_persist(spec.clone()),
    ));
    let server = ShardServer::bind(&socket, Arc::clone(&cold), "counting").expect("bind");
    let transport = RemoteShard::new(Box::new(
        UnixTransport::connect(&socket, Some("counting"), Duration::from_secs(10))
            .expect("connect"),
    ));
    let first = transport.submit(&request(7)).expect("served");
    assert!(!first.from_cache, "cold shard computes the answer");
    assert_eq!(cold_model.calls.load(Ordering::SeqCst), 1);
    drop(transport);
    server.shutdown();
    Arc::try_unwrap(cold).ok().expect("sole owner").shutdown();

    // Restarted shard: the very first remote request is served warm, without
    // touching the model — the cross-process warm-start contract.
    let warm_model = Arc::new(CountingModel {
        calls: AtomicUsize::new(0),
    });
    let warm = Arc::new(RepairService::start(
        Arc::clone(&warm_model),
        ServiceConfig::default()
            .with_workers(1)
            .with_seed(42)
            .with_persist(spec),
    ));
    let server = ShardServer::bind(&socket, Arc::clone(&warm), "counting").expect("bind");
    let transport = RemoteShard::new(Box::new(
        UnixTransport::connect(&socket, Some("counting"), Duration::from_secs(10))
            .expect("connect"),
    ));
    let warm_outcome = transport.submit(&request(7)).expect("served");
    assert!(
        warm_outcome.from_cache,
        "restarted shard answers from its snapshot"
    );
    assert_eq!(
        warm_outcome.responses, first.responses,
        "warm answer is byte-identical to the cold one"
    );
    assert_eq!(
        warm_model.calls.load(Ordering::SeqCst),
        0,
        "a warm-started shard never re-invokes the model"
    );
    drop(transport);
    server.shutdown();
    Arc::try_unwrap(warm).ok().expect("sole owner").shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_and_socket_exchanges_answer_every_frame_alike() {
    let (local, remote) = (echo_service(), echo_service());
    let socket = socket_path("exchange");
    let server = ShardServer::bind(&socket, Arc::clone(&remote), "echo").expect("bind");
    let mut loopback = LoopbackTransport::new(Arc::clone(&local), "echo");
    let mut unix =
        UnixTransport::connect(&socket, Some("echo"), Duration::from_secs(10)).expect("connect");
    let mut both = |frame: Frame| {
        let looped = loopback.exchange(&frame).expect("loopback exchange");
        let socketed = unix.exchange(&frame).expect("socket exchange");
        (looped, socketed)
    };

    match both(Frame::Submit(request(1))) {
        (Frame::Response(a), Frame::Response(b)) => {
            assert_eq!(a.responses, b.responses);
            assert_eq!(a.from_cache, b.from_cache);
        }
        other => panic!("a Submit must be answered with a Response on both sides: {other:?}"),
    }

    let context = svserve::TraceContext::root(request(2).key(), 9);
    match both(Frame::SubmitTraced {
        request: request(2),
        context,
    }) {
        (
            Frame::TraceReply {
                outcome: a,
                spans: spans_a,
            },
            Frame::TraceReply {
                outcome: b,
                spans: spans_b,
            },
        ) => {
            assert_eq!(a.responses, b.responses);
            assert_eq!(a.from_cache, b.from_cache);
            assert!(!spans_a.is_empty());
            let identity = |spans: &[svserve::TraceSpan]| {
                spans
                    .iter()
                    .map(|span| (span.trace, span.span, span.parent, span.start, span.units))
                    .collect::<Vec<_>>()
            };
            assert_eq!(identity(&spans_a), identity(&spans_b));
        }
        other => panic!("a SubmitTraced must be answered with a TraceReply: {other:?}"),
    }

    assert!(matches!(
        both(Frame::Stats),
        (Frame::StatsReply(_), Frame::StatsReply(_))
    ));

    // A frame no client sends is refused alike, and the socket counts it.
    let before = server.protocol_errors();
    assert!(matches!(both(Frame::Busy), (Frame::Err(_), Frame::Err(_))));
    assert_eq!(server.protocol_errors(), before + 1);

    drop((loopback, unix));
    server.shutdown();
    for service in [local, remote] {
        Arc::try_unwrap(service)
            .ok()
            .expect("sole owner")
            .shutdown();
    }
}
