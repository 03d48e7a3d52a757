//! The [`Transport`] trait and its two implementations: in-process loopback
//! and unix-socket.
//!
//! A transport is one client-side connection to one shard: `call` sends a
//! [`Frame::Submit`] and blocks for the shard's answer.  Both implementations
//! push every message through the same frame codec — the loopback transport
//! encodes and decodes each frame in memory — so a test passing over loopback
//! exercises byte-for-byte the protocol a socket peer would see.

use super::frame::{
    read_frame, Frame, FrameError, WireOutcome, MIN_WIRE_FORMAT_VERSION, WIRE_FORMAT_VERSION,
};
use crate::queue::SubmitError;
use crate::service::{RepairRequest, RepairService};
use crate::telemetry::{Metric, MetricClass, RegistrySnapshot, TelemetryHandle, WindowSnapshot};
use crate::trace::{stage, TraceContext, TraceSpan};
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use svmodel::RepairModel;

/// Why a wire submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The shard's admission control shed the request ([`SubmitError::Busy`]
    /// over the wire); retrying later is reasonable.
    Busy,
    /// The shard's service has shut down; retrying this connection is not.
    Closed,
    /// The connection or protocol failed (timeout, corrupt frame, version or
    /// fingerprint mismatch, dead peer).  The string is diagnostic only.
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

/// Prefix on [`WireError::Protocol`] strings for refusals raised *before any
/// bytes hit the wire* (an exchange the transport does not implement).
/// The stream is still consistent, so [`super::RemoteShard`] must not retire
/// the connection over one.
pub(crate) const LOCAL_REFUSAL: &str = "unsupported exchange: ";

/// True when `error` is a pre-send refusal that left the stream consistent.
pub(crate) fn is_local_refusal(error: &WireError) -> bool {
    matches!(error, WireError::Protocol(msg) if msg.starts_with(LOCAL_REFUSAL))
}

/// One client-side connection to a shard.
pub trait Transport: Send {
    /// The serving model's identity fingerprint, learned in the `Hello`
    /// handshake.
    fn fingerprint(&self) -> &str;

    /// Submits one request and blocks for the shard's answer.
    fn call(&mut self, request: &RepairRequest) -> Result<WireOutcome, WireError>;

    /// Submits one request carrying a [`TraceContext`] (the `SubmitTraced` /
    /// `TraceReply` exchange) and blocks for the shard's answer plus the
    /// spans the shard recorded under the remote parent.
    ///
    /// The default, for transports without trace propagation, degrades
    /// losslessly to [`Transport::call`] with no shard spans.  Trace trees
    /// stay byte-identical because every deterministic span field is
    /// content-derived on the driver side; only the shard's (volatile) wall
    /// measurements are missing.
    fn call_traced(
        &mut self,
        request: &RepairRequest,
        _context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        self.call(request).map(|outcome| (outcome, Vec::new()))
    }

    /// Asks the shard for a live telemetry snapshot (the `Stats` /
    /// `StatsReply` exchange).  The default refuses, so transports that do
    /// not implement the exchange degrade to a counted protocol error.
    fn stats(&mut self) -> Result<RegistrySnapshot, WireError> {
        Err(WireError::Protocol(format!(
            "{LOCAL_REFUSAL}transport does not support Stats"
        )))
    }

    /// Asks the shard for its time-windowed telemetry (the `StatsWindow` /
    /// `StatsWindowReply` exchange).  The default refuses, so transports
    /// that do not implement it degrade to a counted protocol error, never a
    /// panic.
    fn stats_window(&mut self) -> Result<WindowSnapshot, WireError> {
        Err(WireError::Protocol(format!(
            "{LOCAL_REFUSAL}transport does not support StatsWindow"
        )))
    }
}

/// In-process transport over a local [`RepairService`].
///
/// Every request and response round-trips through the frame codec
/// (`encode_frame`/`decode_frame`) exactly as the socket transport's bytes would, so
/// loopback-backed tests cover the codec, not just the service.
pub struct LoopbackTransport<M: RepairModel + Send + Sync + 'static> {
    service: Arc<RepairService<M>>,
    fingerprint: String,
    frame_bytes: Option<Arc<Metric>>,
}

impl<M: RepairModel + Send + Sync + 'static> LoopbackTransport<M> {
    /// Wraps a local service; `fingerprint` should be the serving model's
    /// [`RepairModel::identity`].
    pub fn new(service: Arc<RepairService<M>>, fingerprint: impl Into<String>) -> Self {
        Self {
            service,
            fingerprint: fingerprint.into(),
            frame_bytes: None,
        }
    }

    /// Records every encoded frame's byte length into the registry's
    /// `wire.frame.bytes` histogram when `telemetry` is on.
    pub fn with_telemetry(mut self, telemetry: &TelemetryHandle) -> Self {
        self.frame_bytes = telemetry.histogram("wire.frame.bytes", MetricClass::Volatile);
        self
    }
}

impl<M: RepairModel + Send + Sync + 'static> Transport for LoopbackTransport<M> {
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn call(&mut self, request: &RepairRequest) -> Result<WireOutcome, WireError> {
        // Round-trip the submission through the codec: what the shard "hears"
        // is what a socket peer would have decoded.
        let submit =
            codec_round_trip(&Frame::Submit(request.clone()), self.frame_bytes.as_deref())?;
        let Frame::Submit(request) = submit else {
            return Err(WireError::Protocol("submit frame changed shape".into()));
        };
        let reply = match self.service.submit(request) {
            Ok(ticket) => {
                let outcome = ticket.wait();
                Frame::Response(WireOutcome {
                    responses: (*outcome.responses).clone(),
                    from_cache: outcome.from_cache,
                })
            }
            Err(SubmitError::Busy) => Frame::Busy,
            Err(SubmitError::Closed) => Frame::Closed,
        };
        match codec_round_trip(&reply, self.frame_bytes.as_deref())? {
            Frame::Response(outcome) => Ok(outcome),
            other => Err(refusal(other)),
        }
    }

    fn call_traced(
        &mut self,
        request: &RepairRequest,
        context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        // Same codec discipline as `call`: the traced submission and its
        // reply round-trip through the frame encoder so loopback tests cover
        // the exact bytes a socket peer would exchange.
        let submit = codec_round_trip(
            &Frame::SubmitTraced {
                request: request.clone(),
                context: *context,
            },
            self.frame_bytes.as_deref(),
        )?;
        let Frame::SubmitTraced { request, context } = submit else {
            return Err(WireError::Protocol("traced frame changed shape".into()));
        };
        let started = Instant::now();
        let reply = match self.service.submit(request) {
            Ok(ticket) => {
                let outcome = ticket.wait();
                let sample = TraceSpan::new(
                    &context.child("sample"),
                    "sample",
                    stage::SAMPLE,
                    outcome.responses.len() as u64,
                    started.elapsed().as_nanos() as u64,
                );
                Frame::TraceReply {
                    outcome: WireOutcome {
                        responses: (*outcome.responses).clone(),
                        from_cache: outcome.from_cache,
                    },
                    spans: vec![sample],
                }
            }
            Err(SubmitError::Busy) => Frame::Busy,
            Err(SubmitError::Closed) => Frame::Closed,
        };
        match codec_round_trip(&reply, self.frame_bytes.as_deref())? {
            Frame::TraceReply { outcome, spans } => Ok((outcome, spans)),
            other => Err(refusal(other)),
        }
    }

    fn stats(&mut self) -> Result<RegistrySnapshot, WireError> {
        // Same codec discipline as `call`: the request and the reply both
        // round-trip through the frame encoder.
        match codec_round_trip(&Frame::Stats, self.frame_bytes.as_deref())? {
            Frame::Stats => {}
            other => return Err(WireError::Protocol(format!("stats frame became {other:?}"))),
        }
        let reply = Frame::StatsReply(self.service.stats_snapshot());
        match codec_round_trip(&reply, self.frame_bytes.as_deref())? {
            Frame::StatsReply(snapshot) => Ok(snapshot),
            other => Err(refusal(other)),
        }
    }

    fn stats_window(&mut self) -> Result<WindowSnapshot, WireError> {
        match codec_round_trip(&Frame::StatsWindow, self.frame_bytes.as_deref())? {
            Frame::StatsWindow => {}
            other => {
                return Err(WireError::Protocol(format!(
                    "stats-window frame became {other:?}"
                )))
            }
        }
        let reply = Frame::StatsWindowReply(self.service.stats_window());
        match codec_round_trip(&reply, self.frame_bytes.as_deref())? {
            Frame::StatsWindowReply(snapshot) => Ok(snapshot),
            other => Err(refusal(other)),
        }
    }
}

/// The error a reply other than the awaited one stands for.
fn refusal(reply: Frame) -> WireError {
    match reply {
        Frame::Busy => WireError::Busy,
        Frame::Closed => WireError::Closed,
        Frame::Err(msg) => WireError::Protocol(format!("shard error: {msg}")),
        other => WireError::Protocol(format!("unexpected frame {other:?}")),
    }
}

fn codec_round_trip(frame: &Frame, frame_bytes: Option<&Metric>) -> Result<Frame, WireError> {
    let bytes =
        super::frame::encode_frame(frame).map_err(|err| WireError::Protocol(err.to_string()))?;
    if let Some(metric) = frame_bytes {
        metric.observe(bytes.len() as u64);
    }
    super::frame::decode_frame(&bytes).map_err(|err| WireError::Protocol(err.to_string()))
}

/// Unix-domain-socket transport to a `shard-serve` process.
///
/// Both directions carry a deadline ([`UnixTransport::connect`]'s `timeout`):
/// a wedged or killed shard degrades to a [`WireError::Protocol`] after the
/// timeout, never a hung client.
pub struct UnixTransport {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    fingerprint: String,
    frame_bytes: Option<Arc<Metric>>,
}

impl UnixTransport {
    /// Connects and performs the `Hello` handshake.
    ///
    /// The client announces [`WIRE_FORMAT_VERSION`] and the shard answers
    /// with its own.  The connection is refused — with a
    /// [`WireError::Protocol`] naming the mismatch — when the shard's version
    /// is below [`MIN_WIRE_FORMAT_VERSION`], or when the shard serves a model
    /// whose identity differs from `expected_fingerprint`: a fleet must never
    /// silently mix incompatible shards, because their answers would differ
    /// from the local model's.
    pub fn connect(
        path: impl AsRef<Path>,
        expected_fingerprint: Option<&str>,
        timeout: Duration,
    ) -> Result<Self, WireError> {
        let stream = UnixStream::connect(path.as_ref())
            .map_err(|err| WireError::Protocol(format!("connect: {err}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|err| WireError::Protocol(format!("set timeout: {err}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|err| WireError::Protocol(format!("clone stream: {err}")))?,
        );
        let mut transport = Self {
            reader,
            writer: BufWriter::new(stream),
            fingerprint: String::new(),
            frame_bytes: None,
        };
        transport.send(&Frame::Hello {
            format_version: WIRE_FORMAT_VERSION,
            fingerprint: expected_fingerprint.unwrap_or("").to_string(),
        })?;
        match transport.receive()? {
            Frame::Hello {
                format_version,
                fingerprint,
            } => {
                if format_version < MIN_WIRE_FORMAT_VERSION {
                    return Err(WireError::Protocol(format!(
                        "wire version mismatch: shard speaks v{format_version}, \
                         client speaks v{WIRE_FORMAT_VERSION} \
                         (minimum v{MIN_WIRE_FORMAT_VERSION})"
                    )));
                }
                if let Some(expected) = expected_fingerprint {
                    if fingerprint != expected {
                        return Err(WireError::Protocol(format!(
                            "fingerprint mismatch: shard serves {fingerprint:?}, \
                             expected {expected:?}"
                        )));
                    }
                }
                transport.fingerprint = fingerprint;
                Ok(transport)
            }
            Frame::Err(msg) => Err(WireError::Protocol(format!("shard refused hello: {msg}"))),
            other => Err(WireError::Protocol(format!(
                "expected Hello, got {other:?}"
            ))),
        }
    }

    /// Records every sent frame's encoded byte length into the registry's
    /// `wire.frame.bytes` histogram when `telemetry` is on.
    pub fn with_telemetry(mut self, telemetry: &TelemetryHandle) -> Self {
        self.frame_bytes = telemetry.histogram("wire.frame.bytes", MetricClass::Volatile);
        self
    }

    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        let bytes = super::frame::encode_frame(frame)
            .map_err(|err| WireError::Protocol(err.to_string()))?;
        if let Some(metric) = &self.frame_bytes {
            metric.observe(bytes.len() as u64);
        }
        self.writer
            .write_all(&bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|err| WireError::Protocol(format!("write frame: {err}")))
    }

    fn receive(&mut self) -> Result<Frame, WireError> {
        match read_frame(&mut self.reader) {
            Ok(frame) => Ok(frame),
            Err(FrameError::Eof) => Err(WireError::Protocol("shard closed the connection".into())),
            Err(err) => Err(WireError::Protocol(err.to_string())),
        }
    }
}

impl Transport for UnixTransport {
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn call(&mut self, request: &RepairRequest) -> Result<WireOutcome, WireError> {
        self.send(&Frame::Submit(request.clone()))?;
        match self.receive()? {
            Frame::Response(outcome) => Ok(outcome),
            other => Err(refusal(other)),
        }
    }

    fn call_traced(
        &mut self,
        request: &RepairRequest,
        context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        self.send(&Frame::SubmitTraced {
            request: request.clone(),
            context: *context,
        })?;
        match self.receive()? {
            Frame::TraceReply { outcome, spans } => Ok((outcome, spans)),
            other => Err(refusal(other)),
        }
    }

    fn stats(&mut self) -> Result<RegistrySnapshot, WireError> {
        self.send(&Frame::Stats)?;
        match self.receive()? {
            Frame::StatsReply(snapshot) => Ok(snapshot),
            other => Err(refusal(other)),
        }
    }

    fn stats_window(&mut self) -> Result<WindowSnapshot, WireError> {
        self.send(&Frame::StatsWindow)?;
        match self.receive()? {
            Frame::StatsWindowReply(snapshot) => Ok(snapshot),
            other => Err(refusal(other)),
        }
    }
}
