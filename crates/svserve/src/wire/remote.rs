//! The client side of the fabric: one [`RemoteShard`] per connection, a
//! [`ShardFleet`] spreading requests over them by content hash.
//!
//! ## Placement
//!
//! [`shard_for_key`] is a pure function of request content and shard count —
//! the same recipe as [`crate::ab_arm`], salted differently so A/B arm and
//! shard placement stay independent.  Placement never consults load, so
//! per-shard caches stay disjoint (each key always lands on the same shard)
//! and a re-run replays against warm caches byte-for-byte.
//!
//! ## Degradation
//!
//! Every failure is counted, never thrown across the fleet: a shard that
//! refuses connection occupies a [`Dead`](ShardSlot) slot whose submissions
//! fail fast; a [`WireError::Busy`] is tallied in
//! [`FleetMetrics::shed_busy`] and journaled exactly like a local shed; a
//! protocol failure poisons only that shard's slot.  The fleet itself never
//! panics or hangs on a sick peer.

use super::frame::WireOutcome;
use super::transport::{is_local_refusal, Transport, UnixTransport, WireError};
use crate::cache::CaseKey;
use crate::journal::{JournalEvent, TracerHandle};
use crate::metrics::render_block;
use crate::service::{splitmix64, RepairRequest};
use crate::sync::lock_recover;
use crate::telemetry::{MetricClass, RegistrySnapshot, WindowSnapshot};
use crate::trace::{TraceContext, TraceSpan};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Salt folded into [`shard_for_key`]; distinct from the A/B salt so shard
/// placement and experiment arms are independent hash dimensions.
const PLACEMENT_SALT: u64 = 0x5AAD_F1EE_791A_CE00;

/// Deterministic shard placement: a pure function of request content and
/// shard count, mirroring [`crate::ab_arm`].
///
/// Placement by content (not load) keeps per-shard caches disjoint: every
/// occurrence of a key — this run or the next — lands on the same shard.
pub fn shard_for_key(key: CaseKey, shards: usize) -> usize {
    (splitmix64(key.fold64() ^ PLACEMENT_SALT) % shards.max(1) as u64) as usize
}

/// One connected shard: a [`Transport`] behind a mutex (calls are
/// strictly request/response, so one in-flight call per connection).
pub struct RemoteShard {
    inner: Mutex<RemoteInner>,
}

struct RemoteInner {
    transport: Box<dyn Transport>,
    /// Set after a protocol failure: the stream may be desynchronized, so all
    /// later submissions fail fast instead of corrupting frames.
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
        let mut inner = lock_recover(&self.inner);
        if let Some(reason) = &inner.dead {
            return Err(WireError::Protocol(format!(
                "shard connection failed earlier: {reason}"
            )));
        }
        let result = inner.transport.call(request);
        if let Err(WireError::Protocol(reason)) = &result {
            // Busy/Closed leave the stream consistent; a protocol failure may
            // not (half-read frame, dead peer), so retire the connection.
            inner.dead = Some(reason.clone());
        }
        result
    }

    /// Submits one request carrying a trace context, blocking for the answer
    /// plus the spans the shard recorded under the remote parent.
    ///
    /// Same retirement discipline as [`RemoteShard::submit`]; a transport
    /// without trace propagation degrades to the plain exchange and the span
    /// vector comes back empty.
    pub fn submit_traced(
        &self,
        request: &RepairRequest,
        context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        let mut inner = lock_recover(&self.inner);
        if let Some(reason) = &inner.dead {
            return Err(WireError::Protocol(format!(
                "shard connection failed earlier: {reason}"
            )));
        }
        let result = inner.transport.call_traced(request, context);
        if let Err(WireError::Protocol(reason)) = &result {
            inner.dead = Some(reason.clone());
        }
        result
    }

    /// The shard's model fingerprint, learned at the `Hello` handshake.
    pub fn fingerprint(&self) -> String {
        lock_recover(&self.inner)
            .transport
            .fingerprint()
            .to_string()
    }

    /// Requests the shard's telemetry snapshot, blocking for the answer.
    ///
    /// Same retirement discipline as [`RemoteShard::submit`]: a protocol
    /// failure (which includes a corrupt `StatsReply` frame) poisons the
    /// connection so later calls fail fast instead of reading desynchronized
    /// bytes.
    pub fn stats(&self) -> Result<RegistrySnapshot, WireError> {
        let mut inner = lock_recover(&self.inner);
        if let Some(reason) = &inner.dead {
            return Err(WireError::Protocol(format!(
                "shard connection failed earlier: {reason}"
            )));
        }
        let result = inner.transport.stats();
        if let Err(err @ WireError::Protocol(reason)) = &result {
            if !is_local_refusal(err) {
                inner.dead = Some(reason.clone());
            }
        }
        result
    }

    /// Requests the shard's time-windowed telemetry (`StatsWindow`
    /// exchange), blocking for the answer.  Same retirement discipline as
    /// [`RemoteShard::stats`] — except a *local* refusal (the transport does
    /// not implement the exchange; no bytes were sent) leaves the healthy
    /// connection alone, so polling for windows never kills a submit path.
    pub fn stats_window(&self) -> Result<WindowSnapshot, WireError> {
        let mut inner = lock_recover(&self.inner);
        if let Some(reason) = &inner.dead {
            return Err(WireError::Protocol(format!(
                "shard connection failed earlier: {reason}"
            )));
        }
        let result = inner.transport.stats_window();
        if let Err(err @ WireError::Protocol(reason)) = &result {
            if !is_local_refusal(err) {
                inner.dead = Some(reason.clone());
            }
        }
        result
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
    journal_events: AtomicU64,
}

/// A set of shards behind one submit surface, with content-hash placement.
pub struct ShardFleet {
    slots: Vec<ShardSlot>,
    recorder: Arc<FleetRecorder>,
    tracer: TracerHandle,
}

impl ShardFleet {
    /// Builds a fleet over already-connected transports (loopback or unix).
    pub fn new(transports: Vec<Box<dyn Transport>>) -> Self {
        Self {
            slots: transports
                .into_iter()
                .map(|transport| ShardSlot::Connected(RemoteShard::new(transport)))
                .collect(),
            recorder: Arc::new(FleetRecorder::default()),
            tracer: TracerHandle::off(),
        }
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
        let slots = sockets
            .iter()
            .map(
                |path| match UnixTransport::connect(path, expected_fingerprint, timeout) {
                    Ok(transport) => ShardSlot::Connected(RemoteShard::new(Box::new(transport))),
                    Err(err) => {
                        ShardSlot::Dead(format!("{}: {err}", path.as_ref().to_string_lossy()))
                    }
                },
            )
            .collect();
        Self {
            slots,
            recorder: Arc::new(FleetRecorder::default()),
            tracer: TracerHandle::off(),
        }
    }

    /// Returns the fleet with the journal tracer replaced; wire sheds are then
    /// journaled exactly like local pool sheds
    /// ([`JournalEvent::Shed`] with pool `"wire"`).
    pub fn with_tracer(mut self, tracer: TracerHandle) -> Self {
        self.tracer = tracer;
        self
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
        self.recorder.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = self.placement(request);
        let result = match &self.slots[shard] {
            ShardSlot::Connected(remote) => remote.submit(request),
            ShardSlot::Dead(reason) => Err(WireError::Protocol(format!(
                "shard {shard} is down: {reason}"
            ))),
        };
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
                if self.tracer.is_on() {
                    // Same lifecycle as a local shed (`Pool::begin_submit`):
                    // the diagnostic keys on the request's content hash.
                    self.recorder.journal_events.fetch_add(1, Ordering::Relaxed);
                    self.tracer.diagnostic(
                        request.key().fold64(),
                        JournalEvent::Shed {
                            pool: "wire".to_string(),
                        },
                    );
                }
            }
            Err(WireError::Closed) | Err(WireError::Protocol(_)) => {
                self.recorder.wire_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Submits one request with a trace context to its content-placed shard,
    /// blocking for the answer plus the shard's spans.  Accounting is
    /// identical to [`ShardFleet::submit`]; the span vector is empty when the
    /// transport does not propagate traces.
    pub fn submit_traced(
        &self,
        request: &RepairRequest,
        context: &TraceContext,
    ) -> Result<(WireOutcome, Vec<TraceSpan>), WireError> {
        self.recorder.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = self.placement(request);
        let result = match &self.slots[shard] {
            ShardSlot::Connected(remote) => remote.submit_traced(request, context),
            ShardSlot::Dead(reason) => Err(WireError::Protocol(format!(
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
                if self.tracer.is_on() {
                    self.recorder.journal_events.fetch_add(1, Ordering::Relaxed);
                    self.tracer.diagnostic(
                        request.key().fold64(),
                        JournalEvent::Shed {
                            pool: "wire".to_string(),
                        },
                    );
                }
            }
            Err(WireError::Closed) | Err(WireError::Protocol(_)) => {
                self.recorder.wire_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Asks every live shard for its telemetry snapshot and merges them into
    /// one fleet-wide view (the `Stats` wire exchange per shard).
    ///
    /// A shard that fails the exchange contributes an error string instead of
    /// a snapshot — and a counted wire error — so one sick peer never hides
    /// the rest of the fleet's numbers.
    pub fn fleet_stats(&self) -> FleetStats {
        let mut merged = RegistrySnapshot::new();
        let shards = self
            .slots
            .iter()
            .enumerate()
            .map(|(index, slot)| {
                let (fingerprint, result) = match slot {
                    ShardSlot::Connected(remote) => {
                        let fingerprint = remote.fingerprint();
                        let result = remote.stats().map_err(|err| {
                            self.recorder.wire_errors.fetch_add(1, Ordering::Relaxed);
                            err.to_string()
                        });
                        (fingerprint, result)
                    }
                    ShardSlot::Dead(reason) => (
                        String::new(),
                        Err(format!("shard {index} is down: {reason}")),
                    ),
                };
                if let Ok(snapshot) = &result {
                    merged.merge(snapshot);
                }
                ShardStats {
                    shard: index,
                    fingerprint,
                    result,
                }
            })
            .collect();
        FleetStats { shards, merged }
    }

    /// Asks every shard for its time-windowed telemetry (`StatsWindow` per
    /// shard), in shard order.  One entry per slot; a shard that fails the
    /// exchange — dead, unsupported, or mid-frame corruption — contributes an error
    /// string and (for real wire failures) a counted wire error, never a
    /// panic.  This is the poll `svtop` runs on every refresh.
    pub fn fleet_windows(&self) -> Vec<ShardWindow> {
        self.slots
            .iter()
            .enumerate()
            .map(|(index, slot)| {
                let (fingerprint, result) = match slot {
                    ShardSlot::Connected(remote) => {
                        let fingerprint = remote.fingerprint();
                        let result = remote.stats_window().map_err(|err| {
                            if !super::transport::is_local_refusal(&err) {
                                self.recorder.wire_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            err.to_string()
                        });
                        (fingerprint, result)
                    }
                    ShardSlot::Dead(reason) => (
                        String::new(),
                        Err(format!("shard {index} is down: {reason}")),
                    ),
                };
                ShardWindow {
                    shard: index,
                    fingerprint,
                    result,
                }
            })
            .collect()
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
            journal_events: self.recorder.journal_events.load(Ordering::Relaxed),
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
    /// Diagnostics emitted to an installed tracer; zero while journaling is off.
    pub journal_events: u64,
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
            (
                "journal",
                format!("{:>10} events emitted", self.journal_events),
            ),
        ]
    }

    /// Renders the snapshot through the shared [`render_block`] formatter.
    pub fn render(&self) -> String {
        render_block("fleet metrics", &self.rows())
    }

    /// Exports the counters into a registry snapshot under `prefix`
    /// (e.g. `service.fleet`).
    ///
    /// Submission and completion totals are content-derived for a fixed
    /// workload, so they carry [`MetricClass::Deterministic`]; everything
    /// timing- or failure-dependent (cache warmth, sheds, wire errors) is
    /// [`MetricClass::Volatile`].
    pub fn export(&self, prefix: &str, out: &mut RegistrySnapshot) {
        let det = MetricClass::Deterministic;
        let vol = MetricClass::Volatile;
        out.upsert_gauge(&format!("{prefix}.shards"), vol, self.shards as u64);
        out.upsert_gauge(
            &format!("{prefix}.dead_shards"),
            vol,
            self.dead_shards as u64,
        );
        out.upsert_counter(&format!("{prefix}.submitted"), det, self.submitted);
        out.upsert_counter(&format!("{prefix}.completed"), det, self.completed);
        out.upsert_counter(
            &format!("{prefix}.remote_cache_hits"),
            vol,
            self.remote_cache_hits,
        );
        out.upsert_counter(&format!("{prefix}.shed_busy"), vol, self.shed_busy);
        out.upsert_counter(&format!("{prefix}.wire_errors"), vol, self.wire_errors);
        out.upsert_counter(
            &format!("{prefix}.journal.events"),
            vol,
            self.journal_events,
        );
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

/// One shard's answer to the `Stats` exchange.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Fleet slot index (also the placement index).
    pub shard: usize,
    /// The shard's model fingerprint; empty for slots that never connected.
    pub fingerprint: String,
    /// The snapshot, or why the exchange failed.
    pub result: Result<RegistrySnapshot, String>,
}

/// One shard's answer to the `StatsWindow` exchange
/// ([`ShardFleet::fleet_windows`]).
#[derive(Debug, Clone)]
pub struct ShardWindow {
    /// Fleet slot index (also the placement index).
    pub shard: usize,
    /// The shard's model fingerprint; empty for slots that never connected.
    pub fingerprint: String,
    /// The windowed snapshot, or why the exchange failed.
    pub result: Result<WindowSnapshot, String>,
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
    fn placement_differs_from_ab_arm() {
        // Same fold-and-mix recipe, different salt: a request's experiment arm
        // must not determine its shard.
        let disagreements = (0..64)
            .filter(|&tag| shard_for_key(key(tag), 2) != crate::ab_arm(key(tag), 2))
            .count();
        assert!(disagreements > 0, "placement must not alias the A/B split");
    }

    #[test]
    fn zero_shards_clamps_instead_of_dividing_by_zero() {
        assert_eq!(shard_for_key(key(1), 0), 0);
    }
}
