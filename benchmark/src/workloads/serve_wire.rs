//! `serve_wire`: AssertSolver repair requests (n = 20) submitted one at a
//! time through a `ShardFleet` over two loopback shards whose response caches
//! are warm.  Nothing is sampled, parsed or simulated in a round: the frame
//! codec (`encode_frame`/`decode_frame` over `serde_json`) does most of the
//! work, which is why this is the workload that prices the wire.

use crate::bench::{measure, timed, Clock, Gate, Lap, Plan, Report, WORKERS};
use crate::layers;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::eval::{requests, train_corpus};
use assertsolver::EvalConfig;
use std::sync::Arc;
use svmodel::{AssertSolverModel, RepairModel, Response};
use svserve::{
    decode_frame, encode_frame, Frame, LoopbackTransport, RepairRequest, RepairService,
    ServiceConfig, ShardFleet, Transport, WireOutcome,
};

const SHARDS: usize = 2;

type Service = Arc<RepairService<AssertSolverModel>>;

struct State {
    model: Arc<AssertSolverModel>,
    requests: Vec<RepairRequest>,
    /// What direct, in-process submission answers; every reply must equal it.
    reference: Vec<Arc<Vec<Response>>>,
    direct: Service,
    shards: Vec<Service>,
    fleet: ShardFleet,
    /// Seconds `train` took, its pipeline run included.
    train_s: f64,
    gate: Gate,
}

fn start_service(model: &Arc<AssertSolverModel>) -> Service {
    Arc::new(RepairService::start(
        Arc::clone(model),
        ServiceConfig::default().with_workers(WORKERS),
    ))
}

fn setup(plan: &Plan) -> State {
    let trained = train_corpus(plan);
    let model = Arc::new(trained.artifacts.assert_solver.clone());
    let requests = requests(&trained.cases, &EvalConfig::default());
    let direct = start_service(&model);
    let reference = submit_direct(&direct, &requests);
    let shards: Vec<Service> = (0..SHARDS).map(|_| start_service(&model)).collect();
    let fleet = ShardFleet::new(
        shards
            .iter()
            .map(|shard| {
                Box::new(LoopbackTransport::new(Arc::clone(shard), model.identity()))
                    as Box<dyn Transport>
            })
            .collect(),
    );
    let mut state = State {
        model,
        requests,
        reference,
        direct,
        shards,
        fleet,
        train_s: trained.train_s,
        gate: Gate::default(),
    };
    // Fill every shard's response cache; the measured rounds are all hits.
    pass(&mut state, false, &mut Lap::default());
    state
}

fn submit_direct(service: &Service, requests: &[RepairRequest]) -> Vec<Arc<Vec<Response>>> {
    requests
        .iter()
        .map(|request| {
            service
                .submit(request.clone())
                .expect("direct service is open")
                .wait()
                .responses
        })
        .collect()
}

/// One pass over the requests, one blocking client; each submit is a segment.
fn pass(state: &mut State, expect_cached: bool, clock: &mut impl Clock) {
    for (request, expected) in state.requests.iter().zip(&state.reference) {
        let reply = clock.time("svserve.fleet.submit", || state.fleet.submit(request));
        let ok = match &reply {
            Ok(outcome) => outcome.responses == **expected && outcome.from_cache == expect_cached,
            Err(_) => false,
        };
        state.gate.check(ok, || match reply {
            Ok(_) => "a wire reply differs from direct submission".into(),
            Err(err) => format!("fleet submit failed: {err}"),
        });
    }
}

fn round(state: &mut State, lap: &mut Lap) {
    pass(state, true, lap);
}

fn gate_fleet(state: &mut State) {
    let fleet = state.fleet.metrics();
    state.gate.check(
        fleet.wire_errors == 0 && fleet.shed_busy == 0 && fleet.dead_shards == 0,
        || {
            format!(
                "fleet counted {} wire errors, {} sheds",
                fleet.wire_errors, fleet.shed_busy
            )
        },
    );
}

fn shutdown(state: State) -> Gate {
    drop(state.fleet);
    for service in state.shards.into_iter().chain([state.direct]) {
        if let Ok(service) = Arc::try_unwrap(service) {
            service.shutdown();
        }
    }
    state.gate
}

pub fn run(plan: &Plan) -> Report {
    let (mut state, timing) = measure(plan, || setup(plan), round);
    gate_fleet(&mut state);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", timing.setup_s);
    metrics.set("wall_s", timing.wall_s());
    metrics.set("work_per_s", state.requests.len() as f64 / timing.wall_s());
    Report {
        gate: shutdown(state),
        metrics,
    }
}

pub fn trace(plan: &Plan, t: &mut Tracer) -> Report {
    let (mut state, timing) = measure(plan, || setup(plan), round);
    gate_fleet(&mut state);
    let mut metrics = Metrics::default();
    timing.describe(&mut metrics);

    let samples: Vec<f64> = timing.rounds.iter().flatten().map(|s| s * 1e6).collect();
    let req_us = samples.iter().sum::<f64>() / samples.len() as f64;
    metrics.set("svserve.wire.req_us", req_us);
    metrics.set("svserve.wire.lat_samples", samples.len() as f64);
    for (name, p) in [
        ("svserve.wire.lat_p50_us", 50.0),
        ("svserve.wire.lat_p99_us", 99.0),
    ] {
        if let Some(value) = stats::percentile(&samples, p) {
            metrics.set(name, value);
        }
    }

    // Parent spans: the real entry point, one span per request.
    pass(&mut state, true, t);
    let entry_s = t.seconds("svserve.fleet.submit");

    // Child spans: what one loopback call does, from outside — encode and
    // decode the submit frame, serve it warm, encode and decode the reply.
    let frames = t.span("replay.wire", |t| replay_wire(t, &mut state));
    let accounted_s = t.accounted("replay.wire");
    // The frame bodies (after the 12-byte length + checksum header) through
    // serde_json alone.
    for bytes in &frames {
        if let Ok(body) = std::str::from_utf8(&bytes[12..]) {
            layers::json_round_trip(t, body);
        }
    }

    let requests = state.requests.len() as f64;
    let frame_mb = t.counted("svserve.wire.frame_bytes") as f64 / 1e6;
    metrics.set(
        "svserve.wire.encode_us",
        t.seconds("svserve.wire.encode") * 1e6 / requests,
    );
    metrics.set(
        "svserve.wire.decode_us",
        t.seconds("svserve.wire.decode") * 1e6 / requests,
    );
    metrics.set("svserve.wire.frame_bytes", frame_mb * 1e6 / requests);
    metrics.set_per(
        "serde_json.parse_mb_per_s",
        frame_mb,
        t.seconds("serde_json.parse"),
    );
    metrics.set_per(
        "serde_json.render_mb_per_s",
        frame_mb,
        t.seconds("serde_json.render"),
    );
    metrics.set(
        "svserve.wire.errors",
        state.fleet.metrics().wire_errors as f64,
    );

    let cold = start_service(&state.model);
    let (cold_replies, cold_s) = timed(|| submit_direct(&cold, &state.requests));
    let (warm_replies, warm_s) = timed(|| submit_direct(&cold, &state.requests));
    state.gate.check(
        cold_replies == state.reference && warm_replies == state.reference,
        || "a fresh direct service answers differently".into(),
    );
    metrics.set("svserve.service.cold_submit_us", cold_s * 1e6 / requests);
    metrics.set("svserve.service.warm_submit_us", warm_s * 1e6 / requests);
    metrics.set_per("svserve.wire.overhead_x", req_us, warm_s * 1e6 / requests);
    let (hits, misses) = state
        .shards
        .iter()
        .map(|shard| shard.metrics())
        .fold((0, 0), |acc, m| {
            (acc.0 + m.cache_hits, acc.1 + m.cache_misses)
        });
    metrics.set_pct(
        "svserve.service.hit_pct",
        hits as f64,
        (hits + misses) as f64,
    );
    if let Ok(cold) = Arc::try_unwrap(cold) {
        cold.shutdown();
    }
    metrics.set("svmodel.train_s", state.train_s);
    timing.describe_trace(&mut metrics, entry_s, entry_s, accounted_s);
    Report {
        gate: shutdown(state),
        metrics,
    }
}

/// One loopback call from outside, per request: the submit frame through
/// the codec, the request served warm by the direct service, the reply frame
/// through the codec.  Returns every encoded frame.
fn replay_wire(t: &mut Tracer, state: &mut State) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for (request, expected) in state.requests.iter().zip(&state.reference) {
        let submit = Frame::Submit(request.clone());
        let heard = codec(t, &submit, &mut frames);
        state.gate.check(heard.as_ref() == Some(&submit), || {
            "a submit frame changed in the codec".into()
        });
        let served = t.span("svserve.service.submit", |_| {
            state
                .direct
                .submit(request.clone())
                .expect("direct service is open")
                .wait()
        });
        let reply = Frame::Response(WireOutcome {
            responses: (*served.responses).clone(),
            from_cache: served.from_cache,
        });
        let answered = codec(t, &reply, &mut frames);
        state.gate.check(
            answered.as_ref() == Some(&reply) && served.responses == *expected,
            || "a response frame changed in the codec".into(),
        );
    }
    frames
}

fn codec(t: &mut Tracer, frame: &Frame, frames: &mut Vec<Vec<u8>>) -> Option<Frame> {
    let bytes = t
        .span("svserve.wire.encode", |_| encode_frame(frame))
        .ok()?;
    t.count("svserve.wire.frame_bytes", bytes.len() as u64);
    let decoded = t.span("svserve.wire.decode", |_| decode_frame(&bytes)).ok();
    frames.push(bytes);
    decoded
}
