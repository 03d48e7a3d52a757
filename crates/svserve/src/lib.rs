//! # svserve — a concurrent, sharded repair service over any [`svmodel::RepairModel`]
//!
//! The paper evaluates AssertSolver one case at a time; this crate is the serving
//! harness that turns a repair model into a system that can absorb heavy traffic:
//!
//! * **Sharded worker pool** — N worker threads, each owning one bounded queue shard
//!   ([`queue`]); submitters block when a shard is full (backpressure) instead of
//!   growing memory without bound.
//! * **Micro-batching** — workers drain up to [`ServiceConfig::max_batch`] jobs per
//!   wake-up, amortizing queue synchronization across model invocations
//!   ([`ServiceMetrics::mean_batch_size`] shows the effect).
//! * **Content-addressed response cache** — answers are cached under a 128-bit hash
//!   of `(spec, buggy source, failure log, samples, temperature)` with LRU eviction
//!   and hit/miss counters ([`cache`]).
//! * **Metrics** — [`ServiceMetrics`] snapshots throughput, per-stage latency
//!   (queue wait / cache lookup / solve), queue depth and cache hit rate.
//! * **Determinism** — sampler seeds derive from the content hash plus the service
//!   seed, never from arrival order or worker identity, so the same workload yields
//!   byte-identical responses at any worker count.
//! * **One engine** — queueing, caching, panic absorption, snapshots and both
//!   frontends live once, in [`pool`]; the repair pool ([`service`]), the verify
//!   pool ([`verify`]) and every router backend are instantiations of it.
//! * **Verification offload** — a second instantiation of the engine ([`verify`])
//!   judges `(case, candidate response)` pairs on dedicated workers,
//!   with a content-addressed verdict cache keyed by
//!   `hash(case, response, checker config)`; sampling and verification pipeline
//!   through the two pools concurrently in `assertsolver::evaluate_model`.
//! * **Cache persistence & warm start** — both caches can spill to versioned
//!   on-disk snapshots ([`persist`]) that are preloaded at pool start, so repeated
//!   runs replay responses and verdicts from disk instead of recomputing them;
//!   corrupt or mismatched snapshots degrade to a cold start, never an error.
//!   Snapshots carry a generation counter, and entries that go unused for
//!   [`PersistSpec::compact_after`] runs are compacted away at flush.
//! * **Multi-model routing** — a [`route::ModelRouter`] serves N named backends
//!   (e.g. base/SFT/DPO checkpoints plus baseline surrogates), each with its own
//!   pool and cache, behind one submit/await surface; a [`RoutePolicy`] places
//!   each request (pinned, deterministic A/B split, or cheapest-first escalation
//!   with verification-failure re-submits and a full attempt trail).
//! * **Async session runtime** — a hand-rolled, dependency-free executor
//!   ([`rt`]) plus a [`session::SessionEngine`] that drives each repair session
//!   as a waker-scheduled state machine (submit → sampled → verify →
//!   accept/escalate → done), so thousands of in-flight sessions multiplex over
//!   a handful of driver threads instead of parking one OS thread per waiter.
//!   Tickets are `Future`s, pool submission is non-blocking
//!   (`submit_async`), and per-backend admission control sheds overload with a
//!   deterministic [`SubmitError::Busy`].
//! * **Structured session journal** — a typed-event observability layer
//!   ([`journal`]): span hooks on the pools, the router and the session engine
//!   record phases, rung attempts, verdict tallies and terminal outcomes into a
//!   sharded sink with logical timestamps, rendered as a checksummed JSONL
//!   artifact whose bytes are deterministic at any driver/worker count — a
//!   replayable repro artifact, not just a log.  Off by default; the hot path
//!   pays one branch.
//! * **Distributed shard fabric** — a versioned, checksummed, length-capped
//!   frame protocol ([`wire`]) with loopback and unix-socket transports, a
//!   [`ShardFleet`] client placing requests by content hash (per-shard caches
//!   stay disjoint; results are byte-identical to in-process at any shard
//!   count) and a [`ShardServer`] / `shard-serve` binary hosting a service
//!   behind a socket.  `Busy` and every wire failure degrade to counted
//!   outcomes, never a client panic or hang.
//!
//! ## Quick example
//!
//! ```
//! use svserve::{serve_scoped, RepairRequest, ServiceConfig};
//! use svmodel::{AssertSolverModel, CaseInput};
//!
//! let model = AssertSolverModel::base(1);
//! let case = CaseInput {
//!     spec: "spec".into(),
//!     buggy_source: "module m(); endmodule".into(),
//!     logs: String::new(),
//! };
//! let outcomes = serve_scoped(&model, ServiceConfig::default(), |service| {
//!     service.solve_all(vec![RepairRequest::new(case, 3, 0.2)])
//! });
//! assert_eq!(outcomes[0].responses.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod queue;
pub mod route;
pub mod rt;
pub mod service;
pub mod session;
pub(crate) mod sync;
pub mod telemetry;
mod ticket;
pub mod trace;
pub mod verify;
pub mod wire;

pub use cache::{case_key, verdict_key, CaseKey, LruCache, VerdictKey};
pub use journal::{
    env_journal_dir, logical_tick, parse_journal, render_journal, write_journal, JournalCounters,
    JournalEvent, JournalFooter, JournalHeader, JournalMode, JournalRecord, JournalSink,
    JournalSpec, ParsedJournal, SessionEnd, SessionSpan, SpanHandle, Tracer, TracerHandle,
    JOURNAL_DIR_ENV, JOURNAL_FORMAT_VERSION, JOURNAL_KIND, TERMINAL_SEQ,
};
pub use metrics::{indent_block, render_block, ServiceMetrics, VerifyMetrics};
pub use persist::{
    env_cache_dir, PersistSpec, SnapshotHeader, SnapshotLoad, CACHE_DIR_ENV,
    DEFAULT_COMPACT_AFTER_RUNS, SNAPSHOT_FORMAT_VERSION,
};
pub use queue::{ServiceClosed, SubmitError};
pub use route::{
    ab_arm, BackendMetrics, BackendSpec, EscalationJudge, EscalationMetrics, JudgeReport,
    ModelRouter, RouteAttempt, RouteMetrics, RouteOutcome, RoutePolicy, RouteSubmitFuture,
    RouteTicket, RouterConfig,
};
pub use rt::{block_on, env_drivers, Runtime, TaskHandle, DRIVERS_ENV};
pub use service::{
    serve_scoped, RepairOutcome, RepairRequest, RepairService, RepairTicket, ScopedService,
    ServiceConfig, SubmitFuture,
};
pub use session::{
    SessionConfig, SessionEngine, SessionHandle, SessionMetrics, SessionMonitor, SessionOutcome,
    SessionPhase, DEFAULT_DRIVERS,
};
pub use telemetry::{
    env_profile_dir, env_telemetry, env_window_width, percentile_from_buckets, ratio,
    CollapsedProfile, Metric, MetricClass, MetricKind, MetricSnapshot, MetricsRegistry,
    RegistrySnapshot, TelemetryHandle, TelemetryWindows, WindowBucketSnapshot, WindowSnapshot,
    DEFAULT_WINDOW_WIDTH, HISTOGRAM_BUCKETS, PROFILE_DIR_ENV, TELEMETRY_ENV, WINDOW_RING_BUCKETS,
    WINDOW_WIDTH_ENV,
};
pub use trace::{
    env_trace, stage, TraceContext, TraceForest, TraceHandle, TraceSessionSummary, TraceSpan,
    TRACE_ENV,
};
pub use verify::{
    env_verify_workers, verify_scoped, ResponseJudge, ScopedVerifier, VerdictOutcome, VerifyConfig,
    VerifyPool, VerifyRequest, VerifySubmitFuture, VerifyTicket, VERIFY_WORKERS_ENV,
};
pub use wire::{
    decode_frame, encode_frame, env_shard_sockets, read_frame, shard_for_key, write_frame,
    FleetMetrics, FleetStats, Frame, FrameError, LoopbackTransport, RemoteShard, ShardFleet,
    ShardServer, ShardStats, ShardWindow, Transport, UnixTransport, WireError, WireOutcome,
    MAX_FRAME_LEN, MIN_WIRE_FORMAT_VERSION, SHARD_SOCKETS_ENV, WIRE_FORMAT_VERSION,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::ServiceConfig>();
        assert_send_sync::<super::ServiceMetrics>();
        assert_send_sync::<super::RepairRequest>();
        assert_send_sync::<super::RepairOutcome>();
        assert_send_sync::<super::RepairTicket>();
        assert_send_sync::<super::VerifyConfig>();
        assert_send_sync::<super::VerifyMetrics>();
        assert_send_sync::<super::VerifyRequest<String>>();
        assert_send_sync::<super::VerdictOutcome>();
        assert_send_sync::<super::VerifyTicket>();
        assert_send_sync::<super::TracerHandle>();
        assert_send_sync::<super::TelemetryHandle>();
        assert_send_sync::<super::MetricsRegistry>();
        assert_send_sync::<super::RegistrySnapshot>();
        assert_send_sync::<super::JournalSink>();
        assert_send_sync::<super::SessionSpan>();
        assert_send_sync::<super::SpanHandle>();
        assert_send_sync::<super::TraceHandle>();
        assert_send_sync::<super::TraceSpan>();
        assert_send_sync::<super::TraceForest>();
        assert_send_sync::<super::TelemetryWindows>();
        assert_send_sync::<super::WindowSnapshot>();
    }
}
