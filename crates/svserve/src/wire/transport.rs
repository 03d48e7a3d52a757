//! The [`Transport`] trait, its in-process implementation, and the one
//! shard-side dispatcher that answers a client frame.
//!
//! A transport is one client-side connection to one shard: `exchange` sends
//! one client frame and blocks for the shard's reply frame.  The loopback
//! transport encodes and decodes each frame in memory and answers it with
//! [`dispatch`], so a test passing over loopback exercises the codec and the
//! shard's side byte for byte.

use super::frame::{decode_frame, encode_frame, Frame, WireOutcome};
use crate::pool::SubmitError;
use crate::service::RepairService;
use std::sync::Arc;
use svmodel::RepairModel;

/// Why a wire submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The shard's admission control shed the request
    /// ([`crate::SubmitError::Busy`] over the wire); retrying later is
    /// reasonable.
    Busy,
    /// The shard's service has shut down; retrying this connection is not.
    Closed,
    /// The exchange or the protocol failed (corrupt frame, a reply other than
    /// the awaited one).  The string is diagnostic only.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Busy => write!(f, "shard shed the request (busy)"),
            WireError::Closed => write!(f, "shard service is closed"),
            WireError::Protocol(msg) => write!(f, "wire protocol failure: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One client-side connection to a shard.
pub trait Transport: Send {
    /// Sends one client frame and blocks for the shard's reply frame.  An
    /// `Err` means the exchange itself failed (the stream may be
    /// desynchronized); a shard's refusal comes back as an `Ok` reply
    /// (`Busy`, `Closed`, `Err`).
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError>;
}

/// In-process transport over a local [`RepairService`].
///
/// Every request and reply round-trips through the frame codec
/// (`encode_frame`/`decode_frame`), and the decoded request is answered by
/// the shard-side dispatcher, so loopback-backed tests cover the codec and
/// the shard's side, not just the service.
pub struct LoopbackTransport<M: RepairModel + Send + Sync + 'static> {
    service: Arc<RepairService<M>>,
}

impl<M: RepairModel + Send + Sync + 'static> LoopbackTransport<M> {
    /// Wraps a local service.  `_fingerprint` names the serving model
    /// ([`RepairModel::identity`]); an in-process peer needs no handshake to
    /// check it, so it is not kept.
    pub fn new(service: Arc<RepairService<M>>, _fingerprint: impl Into<String>) -> Self {
        Self { service }
    }
}

/// One frame through the codec, as a peer would have decoded it.
fn codec_round_trip(frame: &Frame) -> Result<Frame, WireError> {
    let bytes = encode_frame(frame).map_err(|err| WireError::Protocol(err.to_string()))?;
    decode_frame(&bytes).map_err(|err| WireError::Protocol(err.to_string()))
}

impl<M: RepairModel + Send + Sync + 'static> Transport for LoopbackTransport<M> {
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        // What the shard "hears" and what the client reads back are what a
        // peer would have decoded.
        let heard = codec_round_trip(frame)?;
        codec_round_trip(&dispatch(&self.service, heard))
    }
}

/// The shard's answer to one client frame: a `Submit` is served and answered
/// `Response`, `Busy` or `Closed`; any other frame gets an `Err` reply.
fn dispatch<M: RepairModel + Send + Sync + 'static>(
    service: &RepairService<M>,
    frame: Frame,
) -> Frame {
    let Frame::Submit(request) = frame else {
        return Frame::Err(format!("unexpected frame {frame:?}"));
    };
    match service.submit(request) {
        Ok(ticket) => {
            let served = ticket.wait();
            Frame::Response(WireOutcome {
                responses: (*served.responses).clone(),
                from_cache: served.from_cache,
            })
        }
        Err(SubmitError::Busy) => Frame::Busy,
        Err(SubmitError::Closed) => Frame::Closed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RepairRequest, ServiceConfig};
    use svmodel::{CaseInput, Response};

    struct EchoModel;

    impl RepairModel for EchoModel {
        fn name(&self) -> &str {
            "echo"
        }

        fn solve(&self, case: &CaseInput, samples: usize, _: f64, seed: u64) -> Vec<Response> {
            (0..samples)
                .map(|i| Response {
                    bug_line_number: i as u32,
                    buggy_line: case.buggy_source.clone(),
                    fixed_line: format!("seed-{seed}-sample-{i}"),
                    cot: None,
                })
                .collect()
        }
    }

    fn echo_service() -> RepairService<EchoModel> {
        RepairService::start(
            Arc::new(EchoModel),
            ServiceConfig::default().with_workers(1).with_seed(5),
        )
    }

    fn request() -> RepairRequest {
        RepairRequest::new(
            CaseInput {
                spec: "spec".into(),
                buggy_source: "module m(); endmodule".into(),
                logs: "assertion a failed".into(),
            },
            3,
            0.2,
        )
    }

    #[test]
    fn dispatch_answers_every_client_frame_with_its_reply() {
        let service = echo_service();
        let Frame::Response(cold) = dispatch(&service, Frame::Submit(request())) else {
            panic!("a submission is answered with a Response");
        };
        assert_eq!(cold.responses.len(), 3);
        assert!(!cold.from_cache);
        let Frame::Response(warm) = dispatch(&service, Frame::Submit(request())) else {
            panic!("a submission is answered with a Response");
        };
        assert_eq!(warm.responses, cold.responses);
        assert!(warm.from_cache, "the second sighting is a cache hit");
        service.shutdown();
    }

    #[test]
    fn dispatch_refuses_every_frame_but_a_submission() {
        let service = echo_service();
        let replies = [
            Frame::Response(WireOutcome {
                responses: Vec::new(),
                from_cache: false,
            }),
            Frame::Busy,
            Frame::Closed,
            Frame::Err("boom".into()),
        ];
        for frame in replies {
            let reply = dispatch(&service, frame.clone());
            assert!(
                matches!(&reply, Frame::Err(msg) if msg.starts_with("unexpected frame")),
                "{frame:?} must be refused, got {reply:?}"
            );
        }
        assert_eq!(service.metrics().submitted, 0, "nothing reached the pool");
        service.shutdown();
    }
}
