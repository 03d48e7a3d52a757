//! The frame codec: length-prefixed, checksummed, versioned JSON frames.
//!
//! Every message on a shard connection is one frame:
//!
//! ```text
//! [ u32 body length (LE) ][ u64 FNV-1a checksum of body (LE) ][ body ]
//! ```
//!
//! The body is the [`Frame`] serialized through the vendored serde/serde_json
//! — the same codec every persisted artifact in this workspace uses, so the
//! bytes are deterministic and diffable.  Two properties make a corrupt or
//! hostile peer survivable:
//!
//! * the declared length is validated against [`MAX_FRAME_LEN`] **before** any
//!   allocation, so a garbage header degrades to a counted error instead of an
//!   unbounded `Vec` reservation;
//! * the checksum is validated before the body is parsed, so truncated or
//!   bit-flipped frames fail fast with [`FrameError::Checksum`] rather than
//!   surfacing as confusing JSON errors (or worse, parsing successfully).

use crate::persist::fnv64;
use crate::service::RepairRequest;
use crate::telemetry::RegistrySnapshot;
use crate::trace::{TraceContext, TraceSpan};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use svmodel::Response;

/// The one wire format version this build speaks.  Each side announces it in
/// the `Hello` exchange and refuses a peer announcing any other with a
/// protocol error — never a hang.
///
/// Version 2 added the [`Frame::Stats`] / [`Frame::StatsReply`] introspection
/// exchange.  Version 3 added distributed tracing
/// ([`Frame::SubmitTraced`] / [`Frame::TraceReply`]) and a time-window
/// telemetry exchange.  Version 4 removed the time-window exchange: `svobs
/// top` diffs consecutive `StatsReply` snapshots instead.
pub const WIRE_FORMAT_VERSION: u32 = 4;

/// Hard cap on a frame body's declared length.  Larger declarations are
/// rejected before allocation: a corrupt peer must never drive the process
/// into an unbounded `Vec::with_capacity`.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// A served outcome in wire shape: the response set plus cache provenance.
///
/// Timing fields of [`crate::RepairOutcome`] deliberately do not cross the
/// wire — they are volatile (wall-clock) and would break byte-identical
/// comparisons between local and remote runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireOutcome {
    /// The sampled responses, in sampling order.
    pub responses: Vec<Response>,
    /// Whether the shard served the answer from its response cache.
    pub from_cache: bool,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Connection opener, sent by both sides: the wire format version plus the
    /// serving model's identity fingerprint, so a client never submits to a
    /// shard whose answers would differ from its own model.
    Hello {
        /// The sender's [`WIRE_FORMAT_VERSION`].
        format_version: u32,
        /// The serving model's identity ([`svmodel::RepairModel::identity`]).
        fingerprint: String,
    },
    /// A repair request, client → shard.
    Submit(RepairRequest),
    /// A repair request carrying its [`TraceContext`], client → shard.  The
    /// shard emits its spans under the remote parent and answers with
    /// [`Frame::TraceReply`].
    SubmitTraced {
        /// The request, identical in shape to a plain `Submit`.
        request: RepairRequest,
        /// The driver-side parent context the shard's spans adopt.
        context: TraceContext,
    },
    /// The served answer, shard → client.
    Response(WireOutcome),
    /// The served answer plus the spans the shard recorded while serving it,
    /// shard → client (the reply to [`Frame::SubmitTraced`]).
    TraceReply {
        /// The served outcome, identical in shape to a plain `Response`.
        outcome: WireOutcome,
        /// Shard-side spans, parented under the submitted context.
        spans: Vec<TraceSpan>,
    },
    /// Admission control shed the request (`SubmitError::Busy` over the wire).
    Busy,
    /// Live-introspection request, client → shard: ask the shard for a
    /// telemetry snapshot.  Carries no payload.
    Stats,
    /// The shard's telemetry snapshot (service counters exported into registry
    /// form, merged with the live registry when the shard runs with telemetry
    /// on), shard → client.
    StatsReply(RegistrySnapshot),
    /// The shard's service has shut down.
    Closed,
    /// Protocol-level failure (version mismatch, undecodable frame, …); the
    /// string is diagnostic only.
    Err(String),
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The underlying stream failed (includes read/write timeouts).
    Io(std::io::Error),
    /// The header declared a body longer than [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared body length.
        declared: u64,
    },
    /// The body did not match its checksum.
    Checksum,
    /// The body failed to serialize or deserialize.
    Codec(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(err) => write!(f, "wire i/o error: {err}"),
            FrameError::Oversized { declared } => write!(
                f,
                "frame declares {declared} bytes, over the {MAX_FRAME_LEN}-byte cap"
            ),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Codec(msg) => write!(f, "frame codec error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// Serializes `frame` into the length-prefixed, checksummed wire form.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    let body = serde_json::to_string(frame).map_err(|err| FrameError::Codec(err.to_string()))?;
    let body = body.into_bytes();
    if body.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            declared: body.len() as u64,
        });
    }
    let mut bytes = Vec::with_capacity(12 + body.len());
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&body).to_le_bytes());
    bytes.extend_from_slice(&body);
    Ok(bytes)
}

/// Parses one frame from `bytes` (header + checksum + body, nothing trailing).
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < 12 {
        return Err(FrameError::Codec(format!(
            "frame too short: {} bytes",
            bytes.len()
        )));
    }
    let declared = u32::from_le_bytes(bytes[0..4].try_into().expect("4 header bytes")) as u64;
    if declared > MAX_FRAME_LEN as u64 {
        return Err(FrameError::Oversized { declared });
    }
    let checksum = u64::from_le_bytes(bytes[4..12].try_into().expect("8 checksum bytes"));
    let body = &bytes[12..];
    if body.len() as u64 != declared {
        return Err(FrameError::Codec(format!(
            "declared {declared} body bytes, got {}",
            body.len()
        )));
    }
    verify_and_parse(body, checksum)
}

/// Writes one frame to `writer`, flushing it.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), FrameError> {
    let bytes = encode_frame(frame)?;
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame from `reader`.
///
/// A clean close before the first header byte is [`FrameError::Eof`]; an
/// oversized declaration is rejected **before** the body buffer is allocated.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; 12];
    read_exact_or_eof(reader, &mut header)?;
    let declared = u64::from(u32::from_le_bytes(
        header[0..4].try_into().expect("4 header bytes"),
    ));
    if declared > MAX_FRAME_LEN as u64 {
        return Err(FrameError::Oversized { declared });
    }
    let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8 checksum bytes"));
    let mut body = vec![0u8; declared as usize];
    reader.read_exact(&mut body)?;
    verify_and_parse(&body, checksum)
}

fn verify_and_parse(body: &[u8], checksum: u64) -> Result<Frame, FrameError> {
    if fnv64(body) != checksum {
        return Err(FrameError::Checksum);
    }
    let text = std::str::from_utf8(body).map_err(|err| FrameError::Codec(err.to_string()))?;
    serde_json::from_str(text).map_err(|err| FrameError::Codec(err.to_string()))
}

/// `read_exact` that reports a clean close *before the first byte* as
/// [`FrameError::Eof`] (the peer hung up between frames) and everything else —
/// including a close mid-header — as an I/O error.
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmodel::CaseInput;

    fn request() -> RepairRequest {
        RepairRequest::new(
            CaseInput {
                spec: "spec 1".into(),
                buggy_source: "module m(); endmodule".into(),
                logs: "assertion a1 failed".into(),
            },
            3,
            0.2,
        )
    }

    fn stats_snapshot() -> RegistrySnapshot {
        let registry = crate::telemetry::MetricsRegistry::new();
        registry
            .counter(
                "service.submitted",
                crate::telemetry::MetricClass::Deterministic,
            )
            .add(12);
        registry
            .histogram(
                "service.repair.solve",
                crate::telemetry::MetricClass::Volatile,
            )
            .observe(123_456);
        registry.snapshot()
    }

    fn trace_context() -> crate::trace::TraceContext {
        crate::trace::TraceContext::root(request().key(), 7)
    }

    #[test]
    fn every_frame_variant_round_trips() {
        let sample_response = Response {
            bug_line_number: 4,
            buggy_line: "assert (x);".into(),
            fixed_line: "assert (y);".into(),
            cot: None,
        };
        let context = trace_context();
        let frames = vec![
            Frame::Hello {
                format_version: WIRE_FORMAT_VERSION,
                fingerprint: "base:3".into(),
            },
            Frame::Submit(request()),
            Frame::SubmitTraced {
                request: request(),
                context,
            },
            Frame::Response(WireOutcome {
                responses: vec![sample_response.clone()],
                from_cache: true,
            }),
            Frame::TraceReply {
                outcome: WireOutcome {
                    responses: vec![sample_response],
                    from_cache: false,
                },
                spans: vec![crate::trace::TraceSpan::new(
                    &context.child("sample"),
                    "sample",
                    crate::trace::stage::SAMPLE,
                    3,
                    42,
                )],
            },
            Frame::Busy,
            Frame::Stats,
            Frame::StatsReply(stats_snapshot()),
            Frame::StatsReply(RegistrySnapshot::new()),
            Frame::Closed,
            Frame::Err("boom".into()),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame).expect("encode");
            assert_eq!(decode_frame(&bytes).expect("decode"), frame);
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).expect("read"), frame);
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        // A header declaring ~4 GiB must fail with Oversized, not attempt the
        // allocation (the body is absent, so a buggy path would OOM or hang).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Oversized { declared }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum_not_the_parser() {
        let mut bytes = encode_frame(&Frame::Busy).expect("encode");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(decode_frame(&bytes), Err(FrameError::Checksum)));
    }

    #[test]
    fn truncation_and_clean_close_are_distinguished() {
        let bytes = encode_frame(&Frame::Closed).expect("encode");
        // Clean close: zero bytes available.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(FrameError::Eof)));
        // Mid-frame close: header promised more than the stream holds.
        let mut truncated = std::io::Cursor::new(bytes[..bytes.len() - 2].to_vec());
        assert!(matches!(read_frame(&mut truncated), Err(FrameError::Io(_))));
    }

    #[test]
    fn garbage_body_with_a_valid_checksum_is_a_codec_error() {
        // The sender computes the checksum, so it vouches for nothing: a body
        // nested 200 000 deep (200 KB, far inside MAX_FRAME_LEN) must come back
        // as an error too, not overflow the parser's stack and abort the shard.
        for body in [b"not json at all".to_vec(), vec![b'['; 200_000]] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&fnv64(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
            assert!(matches!(decode_frame(&bytes), Err(FrameError::Codec(_))));
            let mut cursor = std::io::Cursor::new(bytes);
            assert!(matches!(read_frame(&mut cursor), Err(FrameError::Codec(_))));
        }
    }
}
