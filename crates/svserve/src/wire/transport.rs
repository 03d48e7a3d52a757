//! The [`Transport`] trait and its two implementations: in-process loopback
//! and unix-socket.
//!
//! A transport is one client-side connection to one shard: `exchange` sends
//! one client frame and blocks for the shard's reply frame.  Both
//! implementations push every message through the same frame codec — the
//! loopback transport encodes and decodes each frame in memory and answers it
//! with the socket server's own dispatcher — so a test passing over loopback
//! exercises byte-for-byte the protocol a socket peer would see.

use super::frame::{
    decode_frame, encode_frame, read_frame, Frame, FrameError, WIRE_FORMAT_VERSION,
};
use super::server::dispatch;
use crate::service::RepairService;
use crate::telemetry::{Metric, MetricClass, TelemetryHandle};
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
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

/// One client-side connection to a shard.
pub trait Transport: Send {
    /// The serving model's identity fingerprint, learned in the `Hello`
    /// handshake.
    fn fingerprint(&self) -> &str;

    /// Sends one client frame and blocks for the shard's reply frame.  An
    /// `Err` means the exchange itself failed (the stream may be
    /// desynchronized); a shard's refusal comes back as an `Ok` reply
    /// (`Busy`, `Closed`, `Err`).
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError>;
}

/// In-process transport over a local [`RepairService`].
///
/// Every request and reply round-trips through the frame codec
/// (`encode_frame`/`decode_frame`) exactly as the socket transport's bytes
/// would, and the decoded request is answered by the same dispatcher a
/// [`super::ShardServer`] runs, so loopback-backed tests cover the codec and
/// the shard's side, not just the service.
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

    fn codec_round_trip(&self, frame: &Frame) -> Result<Frame, WireError> {
        let bytes = encode_frame(frame).map_err(|err| WireError::Protocol(err.to_string()))?;
        if let Some(metric) = &self.frame_bytes {
            metric.observe(bytes.len() as u64);
        }
        decode_frame(&bytes).map_err(|err| WireError::Protocol(err.to_string()))
    }
}

impl<M: RepairModel + Send + Sync + 'static> Transport for LoopbackTransport<M> {
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        // What the shard "hears" and what the client reads back are what a
        // socket peer would have decoded.
        let heard = self.codec_round_trip(frame)?;
        self.codec_round_trip(&dispatch(&self.service, heard))
    }
}

/// Unix-domain-socket transport to a `shard-serve` process.
///
/// Both directions carry a deadline ([`UnixTransport::connect`]'s `timeout`):
/// a wedged or killed shard degrades to a [`WireError::Protocol`] after the
/// timeout, never a hung client.
pub struct UnixTransport {
    /// Reads buffer here; writes go straight to the inner stream, one
    /// encoded frame per `write_all`.
    stream: BufReader<UnixStream>,
    fingerprint: String,
    frame_bytes: Option<Arc<Metric>>,
}

impl UnixTransport {
    /// Connects and performs the `Hello` handshake.
    ///
    /// The client announces [`WIRE_FORMAT_VERSION`] and the shard answers
    /// with its own.  The connection is refused — with a
    /// [`WireError::Protocol`] naming the mismatch — when the shard speaks
    /// any other version, or when the shard serves a model whose identity
    /// differs from `expected_fingerprint`: a fleet must never silently mix
    /// incompatible shards, because their answers would differ from the
    /// local model's.
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
        let mut transport = Self {
            stream: BufReader::new(stream),
            fingerprint: String::new(),
            frame_bytes: None,
        };
        let hello = Frame::Hello {
            format_version: WIRE_FORMAT_VERSION,
            fingerprint: expected_fingerprint.unwrap_or("").to_string(),
        };
        match transport.exchange(&hello)? {
            Frame::Hello {
                format_version,
                fingerprint,
            } => {
                if format_version != WIRE_FORMAT_VERSION {
                    return Err(WireError::Protocol(format!(
                        "wire version mismatch: shard speaks v{format_version}, \
                         client speaks v{WIRE_FORMAT_VERSION}"
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
}

impl Transport for UnixTransport {
    fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        let bytes = encode_frame(frame).map_err(|err| WireError::Protocol(err.to_string()))?;
        if let Some(metric) = &self.frame_bytes {
            metric.observe(bytes.len() as u64);
        }
        self.stream
            .get_ref()
            .write_all(&bytes)
            .map_err(|err| WireError::Protocol(format!("write frame: {err}")))?;
        match read_frame(&mut self.stream) {
            Ok(reply) => Ok(reply),
            Err(FrameError::Eof) => Err(WireError::Protocol("shard closed the connection".into())),
            Err(err) => Err(WireError::Protocol(err.to_string())),
        }
    }
}
