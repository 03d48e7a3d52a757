//! The client side of the fabric: one [`RemoteShard`] per connection, a
//! [`ShardFleet`] spreading requests over them by content hash.
//!
//! ## Placement
//!
//! [`shard_for_key`] is a pure function of request content and shard count:
//! a salted `splitmix64` of the request key's fold.  Placement never consults
//! load, so per-shard caches stay disjoint (each key always lands on the same
//! shard) and a re-run replays against warm caches byte-for-byte.
//!
//! ## Degradation
//!
//! Every failure is counted, never thrown across the fleet: a peer's
//! [`WireError::Busy`] is tallied in [`FleetMetrics::shed_busy`], and a
//! protocol failure retires only that shard's connection, whose later
//! submissions fail fast.  The fleet itself never panics on a sick peer.

use super::frame::{Frame, WireOutcome};
use super::transport::{Transport, WireError};
use crate::cache::CaseKey;
use crate::service::{splitmix64, RepairRequest};
use crate::sync::lock_recover;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Salt folded into [`shard_for_key`], so placement is its own hash of the
/// request key rather than the bare fold.
const PLACEMENT_SALT: u64 = 0x5AAD_F1EE_791A_CE00;

/// Deterministic shard placement: a pure function of request content and
/// shard count.
///
/// Placement by content (not load) keeps per-shard caches disjoint: every
/// occurrence of a key — this run or the next — lands on the same shard.
fn shard_for_key(key: CaseKey, shards: usize) -> usize {
    (splitmix64(key.fold64() ^ PLACEMENT_SALT) % shards.max(1) as u64) as usize
}

/// One connected shard: a [`Transport`] behind a mutex (calls are
/// strictly request/response, so one in-flight call per connection).
///
/// A retired connection fails fast, and a protocol failure — a broken
/// exchange or a reply other than `Response` — retires the connection,
/// because the stream may be desynchronized.  `Busy` and `Closed` leave it
/// consistent.
struct RemoteShard {
    inner: Mutex<RemoteInner>,
}

struct RemoteInner {
    transport: Box<dyn Transport>,
    /// Set after a protocol failure: all later calls fail fast instead of
    /// corrupting frames.
    dead: Option<String>,
}

impl RemoteShard {
    fn new(transport: Box<dyn Transport>) -> Self {
        Self {
            inner: Mutex::new(RemoteInner {
                transport,
                dead: None,
            }),
        }
    }

    /// Submits one request, blocking for the shard's answer.
    fn submit(&self, request: &RepairRequest) -> Result<WireOutcome, WireError> {
        let mut inner = lock_recover(&self.inner);
        if let Some(reason) = &inner.dead {
            return Err(WireError::Protocol(format!(
                "shard connection failed earlier: {reason}"
            )));
        }
        let result = inner
            .transport
            .exchange(&Frame::Submit(request.clone()))
            .and_then(|reply| match reply {
                Frame::Response(outcome) => Ok(outcome),
                other => Err(refusal(other)),
            });
        if let Err(WireError::Protocol(reason)) = &result {
            inner.dead = Some(reason.clone());
        }
        result
    }

    /// Whether a protocol failure has retired this connection.
    fn is_dead(&self) -> bool {
        lock_recover(&self.inner).dead.is_some()
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

#[derive(Default)]
struct FleetRecorder {
    submitted: AtomicU64,
    completed: AtomicU64,
    remote_cache_hits: AtomicU64,
    shed_busy: AtomicU64,
    wire_errors: AtomicU64,
}

/// A set of shards behind one submit surface, with content-hash placement.
pub struct ShardFleet {
    shards: Vec<RemoteShard>,
    recorder: FleetRecorder,
}

impl ShardFleet {
    /// Builds a fleet over connected transports.
    pub fn new(transports: Vec<Box<dyn Transport>>) -> Self {
        Self {
            shards: transports.into_iter().map(RemoteShard::new).collect(),
            recorder: FleetRecorder::default(),
        }
    }

    /// Submits one request to its content-placed shard, blocking for the
    /// answer.  Every failure is counted in the fleet metrics; none panic.
    pub fn submit(&self, request: &RepairRequest) -> Result<WireOutcome, WireError> {
        self.recorder.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = shard_for_key(request.key(), self.shards.len());
        let result = self.shards[shard].submit(request);
        match &result {
            Ok(outcome) => {
                self.recorder.completed.fetch_add(1, Ordering::Relaxed);
                if outcome.from_cache {
                    self.recorder
                        .remote_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(WireError::Busy) => {
                self.recorder.shed_busy.fetch_add(1, Ordering::Relaxed);
            }
            Err(WireError::Closed) | Err(WireError::Protocol(_)) => {
                self.recorder.wire_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> FleetMetrics {
        FleetMetrics {
            shards: self.shards.len(),
            dead_shards: self.shards.iter().filter(|shard| shard.is_dead()).count(),
            submitted: self.recorder.submitted.load(Ordering::Relaxed),
            completed: self.recorder.completed.load(Ordering::Relaxed),
            remote_cache_hits: self.recorder.remote_cache_hits.load(Ordering::Relaxed),
            shed_busy: self.recorder.shed_busy.load(Ordering::Relaxed),
            wire_errors: self.recorder.wire_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`ShardFleet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Total shards.
    pub shards: usize,
    /// Shards whose connection a protocol error retired; submissions placed
    /// on them fail fast.
    pub dead_shards: usize,
    /// Requests submitted through the fleet.
    pub submitted: u64,
    /// Requests that returned a response.
    pub completed: u64,
    /// Completed requests served from a shard's warm response cache.
    pub(crate) remote_cache_hits: u64,
    /// Requests a peer shed (`Busy` over the wire).
    pub shed_busy: u64,
    /// Requests that failed on the wire (dead shard, protocol error, closed).
    pub wire_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::case_key;
    use svmodel::CaseInput;

    fn key(tag: usize) -> CaseKey {
        case_key(
            &CaseInput {
                spec: format!("spec {tag}"),
                buggy_source: format!("module m{tag}(); endmodule"),
                logs: String::new(),
            },
            3,
            0.2,
        )
    }

    #[test]
    fn placement_is_deterministic_and_content_derived() {
        for shards in [1, 2, 4, 7] {
            for tag in 0..64 {
                let a = shard_for_key(key(tag), shards);
                let b = shard_for_key(key(tag), shards);
                assert_eq!(a, b, "placement must be a pure function");
                assert!(a < shards);
            }
        }
        // Multiple shards all see traffic on a modest workload.
        let placed: std::collections::BTreeSet<usize> =
            (0..64).map(|tag| shard_for_key(key(tag), 4)).collect();
        assert_eq!(placed.len(), 4, "all 4 shards receive work");
    }

    #[test]
    fn zero_shards_clamps_instead_of_dividing_by_zero() {
        assert_eq!(shard_for_key(key(1), 0), 0);
    }

    /// Answers every exchange with `reply`, or fails the exchange itself.
    struct Scripted(Result<Frame, WireError>);

    impl Transport for Scripted {
        fn exchange(&mut self, _frame: &Frame) -> Result<Frame, WireError> {
            self.0.clone()
        }
    }

    fn request(tag: usize) -> RepairRequest {
        RepairRequest::new(
            CaseInput {
                spec: format!("spec {tag}"),
                buggy_source: format!("module m{tag}(); endmodule"),
                logs: String::new(),
            },
            3,
            0.2,
        )
    }

    #[test]
    fn a_protocol_error_kills_its_shard_and_busy_or_closed_do_not() {
        let fleet = |transport: Scripted| ShardFleet::new(vec![Box::new(transport)]);
        for (reply, dead) in [
            (Ok(Frame::Busy), 0),
            (Ok(Frame::Closed), 0),
            (Ok(Frame::Err("boom".into())), 1),
            (Err(WireError::Protocol("torn frame".into())), 1),
        ] {
            let fleet = fleet(Scripted(reply.clone()));
            assert!(fleet.submit(&request(0)).is_err());
            assert_eq!(fleet.metrics().dead_shards, dead, "{reply:?}");
            // A dead shard fails fast: the transport is not asked again.
            let again = fleet.submit(&request(0));
            if dead == 1 {
                assert!(
                    matches!(&again, Err(WireError::Protocol(msg)) if msg.contains("earlier")),
                    "{again:?}"
                );
            }
            assert_eq!(fleet.metrics().dead_shards, dead, "{reply:?}");
        }
    }
}
