//! # svserve — a concurrent, sharded repair service over any [`svmodel::RepairModel`]
//!
//! The paper evaluates AssertSolver one case at a time; this crate is the serving
//! harness that turns a repair model into a system that can absorb heavy traffic:
//!
//! * **Sharded pools, served in place** — every pool keeps N content-addressed
//!   cache shards and serves each job on the thread that submits it
//!   ([`serve_scoped`], [`VerifyPool`], [`RepairService`]): no pool spawns a
//!   thread.  Concurrency comes from the callers — the evaluation's case
//!   drivers.
//! * **Content-addressed response cache** — answers are cached under a 128-bit hash
//!   of `(spec, buggy source, failure log, samples, temperature)` with LRU eviction
//!   and hit/miss counters ([`cache`]).
//! * **Metrics** — [`ServiceMetrics`] snapshots throughput, per-stage latency
//!   (cache lookup / solve), in-flight sessions and cache hit rate.
//! * **Determinism** — sampler seeds derive from the content hash plus the service
//!   seed, never from arrival order or shard, so the same workload yields
//!   byte-identical responses at any shard count.
//! * **One engine** — admission, caching, panic absorption, snapshots and the one
//!   frontend ([`pool::Bound`]) live once, in [`pool`]; the repair pool
//!   ([`service`]) and the verify pool ([`verify`]) are instantiations of it.
//! * **Verdict cache** — a second instantiation of the engine ([`verify`])
//!   judges `(case, candidate response)` pairs in place, with a
//!   content-addressed verdict cache keyed by
//!   `hash(case, response, checker config)`; `assertsolver::evaluate_model`
//!   samples and judges each case on the thread that drives it.
//! * **Cache persistence & warm start** — both caches can spill to versioned
//!   on-disk snapshots ([`persist`]) that are preloaded at pool start, so repeated
//!   runs replay responses and verdicts from disk instead of recomputing them;
//!   corrupt or mismatched snapshots degrade to a cold start, never an error.
//!   Snapshots carry a generation counter, and entries that go unused for
//!   [`PersistSpec::compact_after`] runs are compacted away at flush.
//! * **Admission control** — a pool with a `max_in_flight` limit bounds how
//!   many submitters are inside the backend at once and sheds the overflow
//!   with a deterministic [`SubmitError::Busy`].  A ticket holds an outcome
//!   already served when `submit` returns.
//! * **Structured session journal** — a typed-event observability layer
//!   ([`journal`]): each judged case journals its phases, verdict tally and
//!   terminal outcome in one call ([`TracerHandle::case`]) into one sink with
//!   logical timestamps, rendered as a checksummed JSONL artifact whose bytes
//!   are deterministic at any driver/worker count — a replayable repro
//!   artifact, not just a log.  Off by default; the hot path pays one branch.
//!   Pool events (admits, sheds, cache lookups, panics) are counted once, in
//!   the pool metrics.
//! * **Stage profile** — a [`TelemetryHandle`] that is on has an evaluation
//!   time its setup, sessions and report stages as a [`CollapsedProfile`]
//!   ([`telemetry`]).
//! * **Frame protocol** — a checksummed, length-capped frame codec ([`wire`])
//!   with an in-process loopback transport and a [`ShardFleet`] client placing
//!   requests by content hash (per-shard caches stay disjoint; answers are
//!   byte-identical to direct submission at any shard count).  `Busy` and
//!   every wire failure degrade to counted outcomes, never a client panic.
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
pub mod service;
pub(crate) mod sync;
pub mod telemetry;
pub mod trace;
pub mod verify;
pub mod wire;

pub use cache::{
    case_key, verdict_case_state, verdict_key, verdict_key_after, CaseKey, LruCache,
    VerdictCaseState, VerdictKey,
};
pub use env::{
    env_cache_dir, env_drivers, env_journal_dir, env_profile_dir, env_trace, env_verify_workers,
    CACHE_DIR_ENV, DRIVERS_ENV, JOURNAL_DIR_ENV, PROFILE_DIR_ENV, SCALE_ENV, TRACE_ENV,
};
pub use journal::{
    logical_tick, parse_journal, render_journal, write_journal, JournalCounters, JournalEvent,
    JournalFooter, JournalHeader, JournalRecord, JournalSink, ParsedJournal, SessionEnd,
    TracerHandle, JOURNAL_FORMAT_VERSION, JOURNAL_KIND, TERMINAL_SEQ,
};
pub use metrics::{render_block, ServiceMetrics, VerifyMetrics};
pub use persist::{
    PersistSpec, SnapshotHeader, SnapshotLoad, DEFAULT_COMPACT_AFTER_RUNS, SNAPSHOT_FORMAT_VERSION,
};
pub use pool::SubmitError;
pub use service::{
    serve_scoped, RepairOutcome, RepairRequest, RepairService, RepairTicket, ScopedService,
    ServiceConfig,
};
pub use telemetry::{CollapsedProfile, MetricsRegistry, TelemetryHandle};
pub use trace::{stage, TraceContext, TraceForest, TraceHandle, TraceSessionSummary, TraceSpan};
pub use verify::{
    ResponseJudge, VerdictOutcome, VerifyConfig, VerifyPool, VerifyRequest, VerifyTicket,
};
pub use wire::{
    decode_frame, encode_frame, FleetMetrics, Frame, FrameError, LoopbackTransport, ShardFleet,
    Transport, WireError, WireOutcome, MAX_FRAME_LEN,
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
        assert_send_sync::<super::JournalSink>();
        assert_send_sync::<super::TraceHandle>();
        assert_send_sync::<super::TraceSpan>();
        assert_send_sync::<super::TraceForest>();
    }
}
