//! The frame codec: length-prefixed, checksummed JSON frames.
//!
//! Every message between a fleet and its shards is one frame:
//!
//! ```text
//! [ u32 body length (LE) ][ u64 FNV-1a checksum of body (LE) ][ body ]
//! ```
//!
//! The body is the [`Frame`] serialized through the vendored serde/serde_json
//! — the same codec every persisted artifact in this workspace uses, so the
//! bytes are deterministic and diffable.  Two properties make corrupt bytes
//! survivable:
//!
//! * the declared length is validated against [`MAX_FRAME_LEN`] **before** the
//!   body is read, so a garbage header degrades to a counted error;
//! * the checksum is validated before the body is parsed, so truncated or
//!   bit-flipped frames fail fast with [`FrameError::Checksum`] rather than
//!   surfacing as confusing JSON errors (or worse, parsing successfully).

use crate::persist::fnv64;
use crate::service::RepairRequest;
use serde::{Deserialize, Serialize};
use svmodel::Response;

/// Hard cap on a frame body's declared length.  Larger declarations are
/// rejected before the body is touched.
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
    /// A repair request, client → shard.
    Submit(RepairRequest),
    /// The served answer, shard → client.
    Response(WireOutcome),
    /// The shard shed the request.  This side never sends it; a client
    /// counts one it hears as a shed.
    Busy,
    /// The shard's service has shut down.
    Closed,
    /// Protocol-level failure (an out-of-protocol or undecodable frame); the
    /// string is diagnostic only.
    Err(String),
}

/// Why a frame could not be encoded or decoded.
#[derive(Debug)]
pub enum FrameError {
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
    if fnv64(body) != checksum {
        return Err(FrameError::Checksum);
    }
    let text = std::str::from_utf8(body).map_err(|err| FrameError::Codec(err.to_string()))?;
    serde_json::from_str(text).map_err(|err| FrameError::Codec(err.to_string()))
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

    #[test]
    fn every_frame_variant_round_trips() {
        let sample_response = Response {
            bug_line_number: 4,
            buggy_line: "assert (x);".into(),
            fixed_line: "assert (y);".into(),
            cot: None,
        };
        let frames = vec![
            Frame::Submit(request()),
            Frame::Response(WireOutcome {
                responses: vec![sample_response],
                from_cache: true,
            }),
            Frame::Busy,
            Frame::Closed,
            Frame::Err("boom".into()),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame).expect("encode");
            assert_eq!(decode_frame(&bytes).expect("decode"), frame);
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        // A header declaring ~4 GiB must fail with Oversized before the body
        // is looked at (it is absent here).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Oversized { declared }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum_not_the_parser() {
        let mut bytes = encode_frame(&Frame::Busy).expect("encode");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(decode_frame(&bytes), Err(FrameError::Checksum)));
    }

    #[test]
    fn garbage_body_with_a_valid_checksum_is_a_codec_error() {
        // The sender computes the checksum, so it vouches for nothing: a body
        // nested 200 000 deep (200 KB, far inside MAX_FRAME_LEN) must come back
        // as an error too, not overflow the parser's stack.
        for body in [b"not json at all".to_vec(), vec![b'['; 200_000]] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&fnv64(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
            assert!(matches!(decode_frame(&bytes), Err(FrameError::Codec(_))));
        }
    }
}
