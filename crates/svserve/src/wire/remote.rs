//! The client side of the fabric: one [`RemoteShard`] per connection, a
//! [`ShardFleet`] spreading requests over them by content hash.
//!
//! ## Placement
//!
//! [`shard_for_key`] is a pure function of request content and shard count:
//! a salted `splitmix64` of the request key's fold.  Placement never consults
//! load, so per-shard caches stay disjoint (each key always lands on the same shard) and a
//! re-run replays against warm caches byte-for-byte.
//!
//! ## Degradation
//!
//! Every failure is counted, never thrown across the fleet: a shard that
//! refuses connection occupies a [`Dead`](ShardSlot) slot whose submissions
//! fail fast; a [`WireError::Busy`] is tallied in
//! [`FleetMetrics::shed_busy`] exactly like a local shed; a protocol failure
//! poisons only that shard's slot.  The fleet itself never
//! panics or hangs on a sick peer.

use super::frame::{Frame, WireOutcome};
use super::transport::{Transport, UnixTransport, WireError};
use crate::cache::CaseKey;
use crate::metrics::render_block;
use crate::service::{splitmix64, RepairRequest};
use crate::sync::lock_recover;
use crate::telemetry::RegistrySnapshot;
use crate::trace::{TraceContext, TraceSpan};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Salt folded into [`shard_for_key`], so placement is its own hash of the
/// request key rather than the bare fold.
const PLACEMENT_SALT: u64 = 0x5AAD_F1EE_791A_CE00;

/// Deterministic shard placement: a pure function of request content and
/// shard count.
///
/// Placement by content (not load) keeps per-shard caches disjoint: every
/// occurrence of a key — this run or the next — lands on the same shard.
pub fn shard_for_key(key: CaseKey, shards: usize) -> usize {
    (splitmix64(key.fold64() ^ PLACEMENT_SALT) % shards.max(1) as u64) as usize
}

/// One connected shard: a [`Transport`] behind a mutex (calls are
/// strictly request/response, so one in-flight call per connection).
///
/// Every call shares one discipline: a retired connection fails fast, and a
/// protocol failure — a broken exchange or a reply other than the awaited
/// one — retires the connection, because the stream may be desynchronized.
/// `Busy` and `Closed` leave it consistent.
pub struct RemoteShard {
    inner: Mutex<RemoteInner>,
}

struct RemoteInner {
    transport: Box<dyn Transport>,
    /// Set after a protocol failure: all later calls fail fast instead of
    /// corrupting frames.
    dead: Option<String>,
}

impl RemoteShard {
    /// Wraps a connected transport.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        Self {
            inner: Mutex::new(RemoteInner {
                transport,
                dead: None,
            }),
        }
    }

    /// Submits one request, blocking for the shard's answer.
    pub fn submit(&self, request: &RepairRequest) -> Result<WireOutcome, WireError> {
        self.call(&Frame::Submit(request.clone()), |reply| match reply {
            Frame::Response(outcome) => Ok(outcome),
            other => Err(other),
        })
    }

    /// Submits one request carrying a trace context, blocking for the answer
    /// plus the spans the shard recorded under the remote parent.
    pub fn submit_traced(
        &self,
        request: &RepairRequest,
        context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        let frame = Frame::SubmitTraced {
            request: request.clone(),
            context: *context,
        };
        self.call(&frame, |reply| match reply {
            Frame::TraceReply { outcome, spans } => Ok((outcome, spans)),
            other => Err(other),
        })
    }

    /// The shard's model fingerprint, learned at the `Hello` handshake.
    pub fn fingerprint(&self) -> String {
        lock_recover(&self.inner)
            .transport
            .fingerprint()
            .to_string()
    }

    /// Requests the shard's telemetry snapshot, blocking for the answer.
    pub fn stats(&self) -> Result<RegistrySnapshot, WireError> {
        self.call(&Frame::Stats, |reply| match reply {
            Frame::StatsReply(snapshot) => Ok(snapshot),
            other => Err(other),
        })
    }

    /// One exchange under the shared discipline; `expect` takes the awaited
    /// reply apart and hands any other frame back for [`refusal`].
    fn call<T>(
        &self,
        frame: &Frame,
        expect: impl FnOnce(Frame) -> Result<T, Frame>,
    ) -> Result<T, WireError> {
        let mut inner = lock_recover(&self.inner);
        if let Some(reason) = &inner.dead {
            return Err(WireError::Protocol(format!(
                "shard connection failed earlier: {reason}"
            )));
        }
        let result = inner
            .transport
            .exchange(frame)
            .and_then(|reply| expect(reply).map_err(refusal));
        if let Err(WireError::Protocol(reason)) = &result {
            inner.dead = Some(reason.clone());
        }
        result
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

/// One fleet slot: a live connection or a tombstone explaining why not.
enum ShardSlot {
    Connected(RemoteShard),
    /// Connect (or a later protocol exchange) failed; submissions placed here
    /// degrade to counted errors instead of panics or hangs.
    Dead(String),
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
    slots: Vec<ShardSlot>,
    recorder: Arc<FleetRecorder>,
}

impl ShardFleet {
    /// Builds a fleet over already-connected transports (loopback or unix).
    pub fn new(transports: Vec<Box<dyn Transport>>) -> Self {
        Self::from_slots(
            transports
                .into_iter()
                .map(|transport| ShardSlot::Connected(RemoteShard::new(transport))),
        )
    }

    /// Connects one [`UnixTransport`] per socket path.
    ///
    /// A shard that refuses connection (or fails the version/fingerprint
    /// handshake) becomes a dead slot — the fleet still constructs, and
    /// requests placed on the dead shard fail fast as counted
    /// [`WireError::Protocol`] outcomes.  Requiring every shard up to build a
    /// fleet would turn one crashed process into a fleet-wide outage.
    pub fn connect_unix(
        sockets: &[impl AsRef<Path>],
        expected_fingerprint: Option<&str>,
        timeout: Duration,
    ) -> Self {
        Self::from_slots(sockets.iter().map(|path| {
            match UnixTransport::connect(path, expected_fingerprint, timeout) {
                Ok(transport) => ShardSlot::Connected(RemoteShard::new(Box::new(transport))),
                Err(err) => ShardSlot::Dead(format!("{}: {err}", path.as_ref().display())),
            }
        }))
    }

    fn from_slots(slots: impl Iterator<Item = ShardSlot>) -> Self {
        Self {
            slots: slots.collect(),
            recorder: Arc::new(FleetRecorder::default()),
        }
    }

    /// Number of shards (live + dead).
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The shard index `request` places onto.
    pub fn placement(&self, request: &RepairRequest) -> usize {
        shard_for_key(request.key(), self.slots.len())
    }

    /// Submits one request to its content-placed shard, blocking for the
    /// answer.  Every failure is counted in the fleet metrics; none panic.
    pub fn submit(&self, request: &RepairRequest) -> Result<WireOutcome, WireError> {
        self.place(request, None).map(|(outcome, _spans)| outcome)
    }

    /// Submits one request with a trace context to its content-placed shard,
    /// blocking for the answer plus the shard's spans.  Accounting is
    /// identical to [`ShardFleet::submit`].
    pub fn submit_traced(
        &self,
        request: &RepairRequest,
        context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        self.place(request, Some(context))
    }

    /// The submission both entry points share: place, call (`Submit`, or
    /// `SubmitTraced` when a context is given) and account the outcome.
    fn place(
        &self,
        request: &RepairRequest,
        context: Option<&TraceContext>,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        self.recorder.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = self.placement(request);
        let result = match (&self.slots[shard], context) {
            (ShardSlot::Connected(remote), Some(context)) => remote.submit_traced(request, context),
            (ShardSlot::Connected(remote), None) => {
                remote.submit(request).map(|outcome| (outcome, Vec::new()))
            }
            (ShardSlot::Dead(reason), _) => Err(WireError::Protocol(format!(
                "shard {shard} is down: {reason}"
            ))),
        };
        match &result {
            Ok((outcome, _spans)) => {
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

    /// Asks every shard for its telemetry snapshot (the `Stats` wire
    /// exchange), in shard order, and merges the answers into one
    /// fleet-wide view.  `svobs stat` renders one poll; `svobs top` diffs
    /// each shard's answer against its previous one.
    ///
    /// A dead slot answers with why, and a failed exchange with its error —
    /// a counted wire error — so one sick peer never hides the rest of the
    /// fleet's numbers.
    pub fn fleet_stats(&self) -> FleetStats {
        let shards: Vec<ShardStats> = self
            .slots
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                let (fingerprint, result) = match slot {
                    ShardSlot::Connected(remote) => {
                        let result = remote.stats().map_err(|err| {
                            self.recorder.wire_errors.fetch_add(1, Ordering::Relaxed);
                            err.to_string()
                        });
                        (remote.fingerprint(), result)
                    }
                    ShardSlot::Dead(reason) => (
                        String::new(),
                        Err(format!("shard {shard} is down: {reason}")),
                    ),
                };
                ShardStats {
                    shard,
                    fingerprint,
                    result,
                }
            })
            .collect();
        let mut merged = RegistrySnapshot::new();
        for snapshot in shards.iter().filter_map(|shard| shard.result.as_ref().ok()) {
            merged.merge(snapshot);
        }
        FleetStats { shards, merged }
    }

    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> FleetMetrics {
        FleetMetrics {
            shards: self.slots.len(),
            dead_shards: self
                .slots
                .iter()
                .filter(|slot| matches!(slot, ShardSlot::Dead(_)))
                .count(),
            submitted: self.recorder.submitted.load(Ordering::Relaxed),
            completed: self.recorder.completed.load(Ordering::Relaxed),
            remote_cache_hits: self.recorder.remote_cache_hits.load(Ordering::Relaxed),
            shed_busy: self.recorder.shed_busy.load(Ordering::Relaxed),
            wire_errors: self.recorder.wire_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`ShardFleet`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct FleetMetrics {
    /// Total shard slots.
    pub shards: usize,
    /// Slots whose connection failed (at connect or later).
    pub dead_shards: usize,
    /// Requests submitted through the fleet.
    pub submitted: u64,
    /// Requests that returned a response.
    pub completed: u64,
    /// Completed requests served from a shard's warm response cache.
    pub remote_cache_hits: u64,
    /// Requests shed by a shard's admission control (`Busy` over the wire).
    pub shed_busy: u64,
    /// Requests that failed on the wire (dead shard, protocol error, closed).
    pub wire_errors: u64,
}

impl FleetMetrics {
    /// The aligned rows behind [`FleetMetrics::render`].
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "shards",
                format!("{:>10} ({} dead)", self.shards, self.dead_shards),
            ),
            ("submitted", format!("{:>10}", self.submitted)),
            (
                "completed",
                format!(
                    "{:>10} ({} remote cache hits)",
                    self.completed, self.remote_cache_hits
                ),
            ),
            ("shed busy", format!("{:>10}", self.shed_busy)),
            ("wire errors", format!("{:>10}", self.wire_errors)),
        ]
    }

    /// Renders the snapshot through the shared [`render_block`] formatter.
    pub fn render(&self) -> String {
        render_block("fleet metrics", &self.rows())
    }
}

/// Live introspection of a whole fleet: every shard's telemetry snapshot plus
/// their merged fleet-wide view.  Built by [`ShardFleet::fleet_stats`].
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// One entry per fleet slot, in shard order.
    pub shards: Vec<ShardStats>,
    /// All successful snapshots merged: counters and gauges sum, histograms
    /// pool their buckets, so percentiles read fleet-wide.
    pub merged: RegistrySnapshot,
}

impl FleetStats {
    /// Shards that answered the exchange.
    pub fn live(&self) -> usize {
        self.shards
            .iter()
            .filter(|shard| shard.result.is_ok())
            .count()
    }
}

/// One shard's answer to the `Stats` exchange ([`ShardFleet::fleet_stats`]).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Fleet slot index (also the placement index).
    pub shard: usize,
    /// The shard's model fingerprint; empty for slots that never connected.
    pub fingerprint: String,
    /// The snapshot, or why the exchange failed.
    pub result: Result<RegistrySnapshot, String>,
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
}
