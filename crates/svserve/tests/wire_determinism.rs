//! Wire-protocol determinism: a fleet of shards behind the frame protocol
//! answers **byte-identically** to direct local submission.

use std::sync::Arc;
use svmodel::{CaseInput, RepairModel, Response};
use svserve::{
    LoopbackTransport, RepairRequest, RepairService, ServiceConfig, ShardFleet, Transport,
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
        ServiceConfig::default().with_seed(42),
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
