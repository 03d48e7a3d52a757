//! Wire-protocol determinism and degradation: a fleet of shards behind the
//! frame protocol answers **byte-identically** to direct local submission,
//! and an admission shed degrades to a counted error, never a client panic or
//! hang.

use std::sync::{Arc, Condvar, Mutex};
use svmodel::{CaseInput, RepairModel, Response};
use svserve::{
    LoopbackTransport, RepairRequest, RepairService, ServiceConfig, ShardFleet, Transport,
    WireError,
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
