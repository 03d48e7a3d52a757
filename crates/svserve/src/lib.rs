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
//! * **Admission control** — a pool with a `max_in_flight` limit sheds the
//!   overflow with a deterministic [`SubmitError::Busy`] instead of queueing
//!   it.  Submission is blocking and tickets are plain one-shot slots:
//!   `assertsolver`'s case driver keeps every case in flight by submitting
//!   them all before it waits on any.
//! * **Structured session journal** — a typed-event observability layer
//!   ([`journal`]): span hooks on the pools, the router and each case's
//!   session record phases, rung attempts, verdict tallies and terminal
//!   outcomes into a sharded sink with logical timestamps, rendered as a
//!   checksummed JSONL artifact whose bytes are deterministic at any
//!   driver/worker count — a replayable repro artifact, not just a log.  Off
//!   by default; the hot path pays one branch.
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
#![forbid(unsafe_code)]

pub mod cache;
pub mod env;
pub mod journal;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod queue;
pub mod route;
pub mod service;
pub(crate) mod sync;
pub mod telemetry;
mod ticket;
pub mod trace;
pub mod verify;
pub mod wire;

pub use cache::{case_key, verdict_key, CaseKey, LruCache, VerdictKey};
pub use env::{
    env_cache_dir, env_drivers, env_journal_dir, env_profile_dir, env_shard_sockets, env_telemetry,
    env_trace, env_verify_workers, env_window_width, CACHE_DIR_ENV, DEFAULT_DRIVERS, DRIVERS_ENV,
    JOURNAL_DIR_ENV, PROFILE_DIR_ENV, SHARD_SOCKETS_ENV, TELEMETRY_ENV, TRACE_ENV,
    WINDOW_WIDTH_ENV,
};
pub use journal::{
    logical_tick, parse_journal, render_journal, write_journal, JournalCounters, JournalEvent,
    JournalFooter, JournalHeader, JournalMode, JournalRecord, JournalSink, JournalSpec,
    ParsedJournal, SessionEnd, SessionPhase, SessionSpan, SpanHandle, Tracer, TracerHandle,
    JOURNAL_FORMAT_VERSION, JOURNAL_KIND, TERMINAL_SEQ,
};
pub use metrics::{indent_block, render_block, ServiceMetrics, VerifyMetrics};
pub use persist::{
    PersistSpec, SnapshotHeader, SnapshotLoad, DEFAULT_COMPACT_AFTER_RUNS, SNAPSHOT_FORMAT_VERSION,
};
pub use queue::{ServiceClosed, SubmitError};
pub use route::{
    ab_arm, BackendMetrics, BackendSpec, EscalationJudge, EscalationMetrics, JudgeReport,
    ModelRouter, RouteAttempt, RouteMetrics, RouteOutcome, RoutePolicy, RouteTicket, RouterConfig,
};
pub use service::{
    serve_scoped, RepairOutcome, RepairRequest, RepairService, RepairTicket, ScopedService,
    ServiceConfig,
};
pub use telemetry::{
    percentile_from_buckets, ratio, CollapsedProfile, Metric, MetricClass, MetricKind,
    MetricSnapshot, MetricsRegistry, RegistrySnapshot, TelemetryHandle, TelemetryWindows,
    WindowBucketSnapshot, WindowSnapshot, DEFAULT_WINDOW_WIDTH, HISTOGRAM_BUCKETS,
    WINDOW_RING_BUCKETS,
};
pub use trace::{stage, TraceContext, TraceForest, TraceHandle, TraceSessionSummary, TraceSpan};
pub use verify::{
    verify_scoped, ResponseJudge, ScopedVerifier, VerdictOutcome, VerifyConfig, VerifyPool,
    VerifyRequest, VerifyTicket,
};
pub use wire::{
    decode_frame, encode_frame, read_frame, shard_for_key, write_frame, FleetMetrics, FleetStats,
    Frame, FrameError, LoopbackTransport, RemoteShard, ShardAnswer, ShardFleet, ShardServer,
    ShardStats, ShardWindow, Transport, UnixTransport, WireError, WireOutcome, MAX_FRAME_LEN,
    WIRE_FORMAT_VERSION,
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
